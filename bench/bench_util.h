// Shared plumbing for the experiment benches (see DESIGN.md's experiment
// index): cluster workload drivers and aligned-table printing. Each bench
// binary regenerates one figure/claim of the paper and prints the series
// EXPERIMENTS.md records.

#ifndef LAZYTREE_BENCH_BENCH_UTIL_H_
#define LAZYTREE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/balancer.h"
#include "src/core/cluster.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/threading.h"

namespace lazytree::bench {

/// Prints one row of "|"-separated cells under a header.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    // Floor of 8 so cells a little wider than a short header ("semisync"
    // under "protocol") don't shove the rest of the row out of alignment.
    for (const auto& h : headers_) {
      widths_.push_back(h.size() > 8 ? h.size() + 2 : 10);
    }
  }

  void Header() {
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths_[i]),
                  headers_[i].c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s", std::string(widths_[i] - 1, '-').c_str());
      std::printf(" ");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths_[i]), cells[i].c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
inline std::string FmtU(uint64_t v) { return std::to_string(v); }

/// Outcome of one driven workload.
struct RunResult {
  uint64_t ops = 0;
  double seconds = 0;
  net::StatsSnapshot net;      ///< delta over the run
  Histogram hops;              ///< per-op node visits
  uint64_t completed = 0;

  double OpsPerSec() const { return seconds > 0 ? ops / seconds : 0; }
  double RemoteMsgsPerOp() const {
    return ops ? static_cast<double>(net.remote_messages) / ops : 0;
  }
  double BytesPerOp() const {
    return ops ? static_cast<double>(net.remote_bytes) / ops : 0;
  }
};

/// Pre-loads `count` distinct random keys (synchronously, not measured).
inline std::vector<Key> Preload(Cluster& cluster, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    Key k = rng.Range(1, 1ull << 40);
    cluster.InsertAsync(
        static_cast<ProcessorId>(keys.size() % cluster.size()), k, k,
        [](const OpResult&) {});
    if (keys.size() % 64 == 63) cluster.Settle();
    keys.push_back(k);
  }
  cluster.Settle();
  return keys;
}

/// Drives a closed-loop mixed workload on the sim transport: at most
/// `concurrency` operations are outstanding; each completion launches the
/// next (a realistic client population — enqueueing everything at once
/// would make early operations chase right links across every split that
/// happens "while" they run). The sim has no wall clock, so `seconds` is
/// the real drain time; use message counts for protocol comparisons.
struct SimDriver {
  Cluster* cluster;
  Rng rng;
  size_t remaining;
  double insert_fraction;
  RunResult* result;

  void LaunchOne() {
    if (remaining == 0) return;
    --remaining;
    ProcessorId home =
        static_cast<ProcessorId>(rng.Below(cluster->size()));
    auto cb = [this](const OpResult& r) {
      result->hops.Record(r.hops);
      ++result->completed;
      LaunchOne();
    };
    if (rng.NextDouble() < insert_fraction) {
      cluster->InsertAsync(home, rng.Range(1, 1ull << 40), remaining, cb);
    } else {
      cluster->SearchAsync(home, rng.Range(1, 1ull << 40), cb);
    }
  }
};

inline RunResult RunSimWorkload(Cluster& cluster, size_t ops,
                                double insert_fraction, uint64_t seed,
                                size_t concurrency = 32) {
  RunResult result;
  result.ops = ops;
  auto before = cluster.NetStats();
  SimDriver driver{&cluster, Rng(seed), ops, insert_fraction, &result};
  const uint64_t t0 = NowNanos();
  for (size_t i = 0; i < concurrency && i < ops; ++i) driver.LaunchOne();
  cluster.Settle(std::chrono::milliseconds(120000));
  result.seconds = (NowNanos() - t0) * 1e-9;
  result.net = cluster.NetStats() - before;
  return result;
}

/// Closed-loop driver for a latency-mode sim cluster: records per-op
/// latency in simulated microseconds.
struct LatencyDriver {
  Cluster* cluster;
  Rng rng;
  size_t remaining;
  double insert_fraction;
  Histogram* latencies;

  void LaunchOne() {
    if (remaining == 0) return;
    --remaining;
    ProcessorId home =
        static_cast<ProcessorId>(rng.Below(cluster->size()));
    const uint64_t t0 = cluster->sim()->NowUs();
    auto cb = [this, t0](const OpResult&) {
      latencies->Record(cluster->sim()->NowUs() - t0);
      LaunchOne();
    };
    if (rng.NextDouble() < insert_fraction) {
      cluster->InsertAsync(home, rng.Range(1, 1ull << 40), 1, cb);
    } else {
      cluster->SearchAsync(home, rng.Range(1, 1ull << 40), cb);
    }
  }
};

inline Histogram RunSimLatencyWorkload(Cluster& cluster, size_t ops,
                                       double insert_fraction,
                                       uint64_t seed,
                                       size_t concurrency = 16) {
  Histogram latencies;
  LatencyDriver driver{&cluster, Rng(seed), ops, insert_fraction,
                       &latencies};
  for (size_t i = 0; i < concurrency && i < ops; ++i) driver.LaunchOne();
  cluster.Settle(std::chrono::milliseconds(120000));
  return latencies;
}

/// Drives `clients` threads of synchronous ops against a thread-transport
/// cluster; measures wall-clock throughput.
inline RunResult RunThreadWorkload(Cluster& cluster, int clients,
                                   size_t ops_per_client,
                                   double insert_fraction, uint64_t seed) {
  RunResult result;
  result.ops = static_cast<uint64_t>(clients) * ops_per_client;
  auto before = cluster.NetStats();
  std::vector<std::thread> workers;
  const uint64_t t0 = NowNanos();
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(seed * 1000 + c);
      for (size_t i = 0; i < ops_per_client; ++i) {
        ProcessorId home =
            static_cast<ProcessorId>((c + i) % cluster.size());
        Key k = rng.Range(1, 1ull << 40);
        if (rng.NextDouble() < insert_fraction) {
          cluster.Insert(home, k, i);
        } else {
          cluster.Search(home, k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  cluster.Settle(std::chrono::milliseconds(120000));
  result.seconds = (NowNanos() - t0) * 1e-9;
  result.net = cluster.NetStats() - before;
  result.completed = result.ops;
  return result;
}

/// Standard preamble naming the experiment.
inline void Banner(const char* exp_id, const char* paper_artifact,
                   const char* claim) {
  std::printf("=== %s — %s ===\n%s\n\n", exp_id, paper_artifact, claim);
}

}  // namespace lazytree::bench

#endif  // LAZYTREE_BENCH_BENCH_UTIL_H_
