// bench_faults — the loss sweep for the reliable-delivery layer
// (EXPERIMENTS.md "Loss sweep"; PR9 robustness work).
//
// The paper assumes a reliable, exactly-once, FIFO network (§4); each
// processor's reliable links (server/links.h) manufacture that assumption on
// top of a lossy link. This bench prices the manufacturing: a mixed
// insert/search workload runs against clusters whose links drop 0% / 0.1% / 1%
// / 5% of messages (via net/faults.h), on both the simulated and the
// real-thread transport, and reports goodput plus the reliability counters
// (retransmits, duplicates deduped, piggybacked acks, links declared
// down). A raw row — no reliable layer, no faults — anchors the
// overhead of the layer itself at 0% loss.
//
// Every operation must still complete at every loss rate: loss degrades
// throughput, never correctness. And with nothing lost, nothing may be
// resent: on threads at 0% loss at most 1% of remote frames may be
// retransmissions (a spurious RTO). The bench CHECK-fails otherwise, which
// is what the CI smoke run (`--smoke`: the 1%-drop scenario on both
// transports and the 0%-loss reliable row on threads) exists to catch.
//
// `--json PATH` writes the machine-readable sweep (BENCH_PR9.json via
// the `lazytree_bench` target).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/net/faults.h"

namespace lazytree::bench {
namespace {

struct SweepPoint {
  const char* transport;  // "sim" | "threads"
  double drop;            // per-message loss probability
  bool reliable;          // false only for the raw 0%-loss anchor row
};

struct SweepResult {
  SweepPoint point;
  uint64_t ops = 0;
  double ops_per_sec = 0;
  double remote_msgs_per_op = 0;
  uint64_t dropped = 0;  // messages the fault layer actually ate
  uint64_t retransmits = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t acks_piggybacked = 0;
  uint64_t link_down = 0;
  uint64_t remote_messages = 0;
};

SweepResult RunPoint(const SweepPoint& point, size_t ops, bool smoke) {
  ClusterOptions o;
  o.processors = 4;
  o.protocol = ProtocolKind::kSemiSyncSplit;
  o.transport = std::strcmp(point.transport, "sim") == 0
                    ? TransportKind::kSim
                    : TransportKind::kThreads;
  o.seed = 17;
  o.tree.max_entries = 24;
  o.tree.track_history = false;
  if (point.drop > 0) {
    o.faults.drop = point.drop;
    o.faults.seed = 29;
  }
  // Pin the layer explicitly: the sweep's 0%-loss reliable row must
  // carry the seq/ack machinery so its cost is visible against the raw
  // row, and the lossy rows must not depend on the auto-enable rule.
  o.reliable = point.reliable ? 1 : 0;
  // Generous budget: at 5% loss a frame's k-th retransmit is still lost
  // with probability 0.05^k, so links must survive the whole run.
  o.reliability.link_down_after_us = 10'000'000;

  Cluster cluster(o);
  cluster.Start();
  Preload(cluster, smoke ? 256 : 1024, /*seed=*/5);
  auto before = cluster.NetStats();
  uint64_t dropped_before =
      cluster.faulty() != nullptr ? cluster.faulty()->dropped() : 0;
  RunResult run;
  if (o.transport == TransportKind::kSim) {
    run = RunSimWorkload(cluster, ops, /*insert_fraction=*/0.5,
                         /*seed=*/23);
  } else {
    const int clients = 4;
    run = RunThreadWorkload(cluster, clients, ops / clients,
                            /*insert_fraction=*/0.5, /*seed=*/23);
  }
  auto net = cluster.NetStats() - before;

  SweepResult r;
  r.point = point;
  r.ops = run.ops;
  r.ops_per_sec = run.OpsPerSec();
  r.remote_msgs_per_op = run.RemoteMsgsPerOp();
  r.dropped = (cluster.faulty() != nullptr ? cluster.faulty()->dropped()
                                           : 0) -
              dropped_before;
  r.retransmits = net.retransmits;
  r.duplicates_dropped = net.duplicates_dropped;
  r.acks_piggybacked = net.acks_piggybacked;
  r.link_down = net.link_down;
  r.remote_messages = net.remote_messages;

  // Loss must degrade throughput, never correctness: every client op
  // completed and no link exhausted its budget.
  LAZYTREE_CHECK(run.completed == run.ops)
      << point.transport << " drop=" << point.drop << ": completed "
      << run.completed << " of " << run.ops;
  LAZYTREE_CHECK(r.link_down == 0)
      << point.transport << " drop=" << point.drop
      << ": a link died mid-sweep";
  if (point.reliable && point.drop == 0 &&
      o.transport == TransportKind::kThreads) {
    // Nothing was lost, so a retransmission is an RTO that fired before
    // the ack could arrive: the measured RTO must keep those rare.
    LAZYTREE_CHECK(r.retransmits * 100 <= r.remote_messages)
        << "threads at 0% loss retransmitted " << r.retransmits << " of "
        << r.remote_messages << " remote frames (more than 1%)";
  }
  if (point.drop > 0) {
    LAZYTREE_CHECK(r.dropped > 0)
        << "fault plan injected no loss at drop=" << point.drop;
    LAZYTREE_CHECK(r.retransmits > 0)
        << "loss without retransmissions at drop=" << point.drop;
  }
  cluster.Stop();
  return r;
}

void WriteJson(const std::string& path,
               const std::vector<SweepResult>& sweep) {
  std::ofstream out(path);
  LAZYTREE_CHECK(out.good()) << "cannot write " << path;
  char buf[512];
  out << "{\n  \"bench\": \"PR9 loss sweep: reliable delivery over lossy "
         "links\",\n";
  out << "  \"workload\": \"50/50 insert/search, 4 processors, "
         "semisync-split\",\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"transport\": \"%s\", \"drop_pct\": %.1f, "
        "\"reliable\": %s, \"ops\": %llu, \"ops_per_sec\": %.0f, "
        "\"remote_msgs_per_op\": %.2f, \"messages_lost\": %llu, "
        "\"retransmits\": %llu, \"duplicates_dropped\": %llu, "
        "\"acks_piggybacked\": %llu, \"link_down\": %llu}%s\n",
        r.point.transport, r.point.drop * 100,
        r.point.reliable ? "true" : "false",
        static_cast<unsigned long long>(r.ops), r.ops_per_sec,
        r.remote_msgs_per_op, static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.duplicates_dropped),
        static_cast<unsigned long long>(r.acks_piggybacked),
        static_cast<unsigned long long>(r.link_down),
        i + 1 < sweep.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  std::vector<SweepPoint> points;
  if (smoke) {
    // The CI-sized run: the 1%-drop scenario on both transports, and
    // threads at 0% loss, where nothing may be resent.
    points = {{"sim", 0.01, true},
              {"threads", 0.01, true},
              {"threads", 0.0, true}};
  } else {
    for (const char* transport : {"sim", "threads"}) {
      points.push_back({transport, 0.0, false});  // raw anchor
      for (double drop : {0.0, 0.001, 0.01, 0.05}) {
        points.push_back({transport, drop, true});
      }
    }
  }
  const size_t ops = smoke ? 512 : 4096;

  std::printf("loss sweep: %zu ops/point, 4 processors, semisync-split\n\n",
              ops);
  Table table({"transport", "drop%", "reliable", "ops/sec", "rmsg/op",
               "lost", "rexmit", "dedup", "piggyack", "linkdown"});
  table.Header();
  std::vector<SweepResult> sweep;
  for (const SweepPoint& p : points) {
    SweepResult r = RunPoint(p, ops, smoke);
    table.Row({r.point.transport, Fmt("%.1f", r.point.drop * 100),
               r.point.reliable ? "yes" : "no", Fmt("%.0f", r.ops_per_sec),
               Fmt("%.2f", r.remote_msgs_per_op), FmtU(r.dropped),
               FmtU(r.retransmits), FmtU(r.duplicates_dropped),
               FmtU(r.acks_piggybacked), FmtU(r.link_down)});
    sweep.push_back(r);
  }

  if (!json_path.empty()) {
    WriteJson(json_path, sweep);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace lazytree::bench

int main(int argc, char** argv) { return lazytree::bench::Main(argc, argv); }
