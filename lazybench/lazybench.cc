// lazybench: the lazytree benchmark.
//
// Runs one workload against the public lazytree::Cluster API, checks every
// result, and prints one JSON report on the last line of stdout. run.py
// builds this binary, adds provenance and turns the report into the
// benchmark's result line; README.md names every workload and metric.
//
//   lazybench --workload insert-grow --seed 1 --seconds 30 --trace 0
//
// Layers are measured from outside: public counters are read after every
// round, and in a traced run (--trace 1) the benchmark times its own calls
// into the layers' public functions. Nothing under src/ is changed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/inspect.h"
#include "src/oracle/oracle.h"
#include "src/util/rng.h"
#include "src/util/threading.h"
#include "src/workload/distributions.h"

#ifndef LAZYBENCH_BUILD_TYPE
#define LAZYBENCH_BUILD_TYPE "unknown"
#endif

namespace lazytree::lazybench {
namespace {

constexpr Key kKeySpace = 1ull << 40;
/// Client-written values carry a top bit, so they can never equal a
/// preloaded value (preloaded records hold their own key).
constexpr int kWriterShift = 48;
constexpr auto kSettleTimeout = std::chrono::milliseconds(120000);
/// Preload drains every this many inserts, as the repo's benches do, so
/// early inserts do not chase every split later ones cause.
constexpr size_t kLoadBatch = 512;
/// Node capacity (TreeConfig::max_entries) on every workload.
constexpr size_t kMaxEntries = 8;

/// Every workload runs on the timestamped sim (4 µs ± 1 µs per remote
/// hop), with a closed loop of async ops.
struct Workload {
  const char* name;
  uint32_t processors;
  size_t records;      ///< preloaded zipf-rank keys
  double read_share;   ///< zipfian point reads; the rest are writes
  /// Writes insert fresh uniform keys (else they upsert zipfian loaded
  /// keys).
  bool fresh_inserts;
  int outstanding;     ///< ops kept in flight
  int8_t reliable;     ///< ClusterOptions::reliable
  /// ClusterOptions::combine_ops and ::local_read_fastpath (-1: the
  /// sim's default, off).
  int8_t fast_paths;
  size_t piggyback_window;
  size_t round_ops;    ///< fixed ops per round (keeps counts exact)
};

constexpr Workload kWorkloads[] = {
    {"read-zipf-sim", 4, 20000, 1.0, false, 32, -1, 1, 0, 300000},
    {"insert-grow", 8, 20000, 0.5, true, 32, -1, -1, 8, 20000},
    {"mixed-reliable-sim", 4, 20000, 0.5, false, 32, 1, 1, 0, 200000},
};

/// Minimum rounds of a run (setup median and same-seed comparison).
constexpr int kMinRounds = 3;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a * 0x9E3779B97F4A7C15ull + b;
  return SplitMix64(state);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Fixed-memory latency histogram: exact below 256, then 256 log-linear
/// sub-buckets per power of two (0.4% resolution). Its size does not grow
/// with the op count, so peak RSS does not depend on how fast a run went.
/// The buckets are allocated by the first sample.
class Latencies {
 public:
  void Record(uint64_t v) {
    if (counts_.empty()) counts_.resize(kBuckets);
    ++counts_[Bucket(v)];
    ++count_;
  }

  void Merge(const Latencies& o) {
    if (o.count_ == 0) return;
    if (counts_.empty()) counts_.resize(kBuckets);
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    count_ += o.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile. The samples of a bucket are taken as spread
  /// evenly over its width (for whole-µs simulated latencies, the 1-µs
  /// bin), and the value is interpolated at the rank's position in it.
  /// `beyond` receives the number of samples ranked above it.
  double Percentile(double p, uint64_t* beyond) const {
    *beyond = 0;
    if (count_ == 0) return 0;
    const double exact = p / 100.0 * static_cast<double>(count_);
    uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(exact));
    if (static_cast<double>(rank) < exact) ++rank;
    rank = std::min(rank, count_);
    *beyond = count_ - rank;
    uint64_t seen = 0;
    size_t b = 0;
    while (seen + counts_[b] < rank) seen += counts_[b++];
    const double within = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(counts_[b]);
    return static_cast<double>(Low(b)) +
           within * static_cast<double>(Low(b + 1) - Low(b));
  }

  bool operator==(const Latencies&) const = default;

 private:
  static constexpr int kSubBits = 8;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub * (64 - kSubBits + 1);

  static size_t Bucket(uint64_t v) {
    if (v < kSub) return v;
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return kSub * (shift + 1) + ((v >> shift) - kSub);
  }

  /// Smallest value of bucket `b` (b == kBuckets gives the top's end).
  static uint64_t Low(size_t b) {
    if (b < kSub) return b;
    const size_t shift = b / kSub - 1;
    return (kSub + b % kSub) << shift;
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// --- spans -------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanOp,         ///< one client op, submit to completion callback
  kSpanSubmit,     ///< Cluster::*Async call to its return
  kSpanWait,       ///< that return to the completion callback
  kSpanDelivery,   ///< one SimNetwork::Step (decode + handlers)
  kSpanBootstrap,  ///< Cluster construction + Start
  kSpanLoad,       ///< preload submission and its periodic drains
  kSpanSettle,     ///< final Settle of the preload
  kSpanKinds,
};

/// Spans a run keeps in memory and writes out (about 32 bytes each); a
/// traced sim run makes millions. Every span still counts in the metrics.
constexpr int64_t kMaxKeptSpans = 1000000;

constexpr const char* kSpanNames[kSpanKinds] = {
    "op",         "core.submit",    "server.wait", "net.delivery",
    "core.bootstrap", "core.load",  "core.settle"};

struct Span {
  uint64_t op;  ///< op id shared by an op's spans; 0 = not an op
  uint64_t start_ns;
  uint64_t end_ns;
  SpanName name;
};

/// Spans one round recorded. Every span's duration goes into the
/// per-name histograms; the first kMaxKeptSpans of the run are also kept
/// and written out when the run ends.
struct SpanLog {
  explicit SpanLog(int64_t* budget) : keep_budget(budget) {}

  int64_t* keep_budget;               ///< shared by the run's logs
  std::vector<Span> spans;            ///< the kept spans
  Latencies durations[kSpanKinds];    ///< ns, every span
  uint64_t op_ns = 0;     ///< summed op span durations
  uint64_t child_ns = 0;  ///< summed durations of the op spans' children
  uint64_t recorded = 0;

  void Add(SpanName name, uint64_t op, uint64_t start, uint64_t end) {
    const uint64_t d = end - start;
    durations[name].Record(d);
    if (name == kSpanOp) {
      op_ns += d;
    } else if (name == kSpanSubmit || name == kSpanWait) {
      child_ns += d;
    }
    ++recorded;
    if ((*keep_budget)-- > 0) {
      spans.push_back(Span{op, start, end, name});
    }
  }
};

// --- per-phase results -------------------------------------------------

/// Client-visible outcome of a measured phase.
struct Tally {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;     ///< timeouts, unavailable, wrong results
  uint64_t not_found = 0;  ///< read misses on loaded keys (also failed)
  uint64_t hops = 0;

  uint64_t ops() const { return reads + writes; }

  void Absorb(const Tally& o) {
    reads += o.reads;
    writes += o.writes;
    failed += o.failed;
    not_found += o.not_found;
    hops += o.hops;
  }
};

/// Read and write latencies of one round.
struct OpLatencies {
  Latencies read, write;

  void Merge(const OpLatencies& o) {
    read.Merge(o.read);
    write.Merge(o.write);
  }
  bool operator==(const OpLatencies&) const = default;
};

/// Percentiles of one round's simulated latencies, in µs.
struct LatencyStats {
  double p50 = 0, p99 = 0, p999 = 0;
  uint64_t count = 0;
  uint64_t beyond999 = 0;  ///< samples above p999

  static LatencyStats Of(const Latencies& lat) {
    LatencyStats st;
    uint64_t beyond = 0;
    st.p50 = lat.Percentile(50, &beyond);
    st.p99 = lat.Percentile(99, &beyond);
    st.p999 = lat.Percentile(99.9, &st.beyond999);
    st.count = lat.count();
    return st;
  }
};

/// Public layer counters, as absolute readings or as a phase's delta.
struct Counters {
  net::StatsSnapshot net;
  std::vector<uint64_t> actions;  ///< Processor::actions_handled, per id
  uint64_t deliveries = 0;        ///< SimNetwork::delivered

  static Counters Read(Cluster& c) {
    Counters r;
    r.net = c.NetStats();
    for (ProcessorId p = 0; p < c.size(); ++p) {
      r.actions.push_back(c.processor(p).actions_handled());
    }
    r.deliveries = c.sim()->delivered();
    return r;
  }

  Counters operator-(const Counters& rhs) const {
    Counters d;
    d.net = net - rhs.net;
    for (size_t i = 0; i < actions.size(); ++i) {
      d.actions.push_back(actions[i] - rhs.actions[i]);
    }
    d.deliveries = deliveries - rhs.deliveries;
    return d;
  }

  void Add(const Counters& o) {
    net.remote_messages += o.net.remote_messages;
    net.local_messages += o.net.local_messages;
    net.remote_bytes += o.net.remote_bytes;
    net.piggybacked_actions += o.net.piggybacked_actions;
    net.combined_actions += o.net.combined_actions;
    net.fastpath_reads += o.net.fastpath_reads;
    net.retransmits += o.net.retransmits;
    net.duplicates_dropped += o.net.duplicates_dropped;
    net.acks_piggybacked += o.net.acks_piggybacked;
    net.link_down += o.net.link_down;
    for (size_t i = 0; i < net.actions_by_kind.size(); ++i) {
      net.actions_by_kind[i] += o.net.actions_by_kind[i];
    }
    if (actions.size() < o.actions.size()) actions.resize(o.actions.size());
    for (size_t i = 0; i < o.actions.size(); ++i) actions[i] += o.actions[i];
    deliveries += o.deliveries;
  }

  uint64_t total_actions() const {
    uint64_t sum = 0;
    for (uint64_t a : actions) sum += a;
    return sum;
  }
};

// --- host calibration -----------------------------------------------------

/// Deliveries between two calibration slices.
constexpr int kDeliveriesPerSlice = 256;
/// Iterations of one calibration slice.
constexpr int kSliceIters = 128;
/// A calibration slice's time on the reference host (README: "What the
/// gated metrics measure"). It only scales the reported figure.
constexpr double kSliceRefS = 125e-6;

/// Fixed work that shares no code with lazytree but has the same kind of
/// cost as a sim delivery: hashing, a hash map and an ordered map of a few
/// MB, and small byte copies. An untraced round runs one slice of it after
/// every kDeliveriesPerSlice deliveries, in its set-up and its run phase,
/// so the two see the host at the same moments; the ratio of their times
/// cancels most of the host's drift (O7, O12).
class Calibrator {
 public:
  /// Runs one slice; returns its wall nanoseconds.
  uint64_t Slice() {
    const uint64_t t0 = NowNanos();
    for (int i = 0; i < kSliceIters; ++i) {
      const uint64_t k = SplitMix64(state_);
      auto [it, inserted] = hashed_.try_emplace(k & 0xFFFF, k);
      if (!inserted) {
        sink_ = sink_ + it->second;
        hashed_.erase(it);
      }
      std::vector<uint8_t>& bytes = ordered_[k & 0x3FFF];
      bytes.resize(8 + (k >> 60));
      std::memcpy(bytes.data(), &k, sizeof(k));
      sink_ = sink_ + bytes[k & 7];
    }
    return NowNanos() - t0;
  }

 private:
  uint64_t state_ = 1;
  volatile uint64_t sink_ = 0;  ///< keeps the work observable
  std::unordered_map<uint64_t, uint64_t> hashed_;
  std::map<uint64_t, std::vector<uint8_t>> ordered_;
};

/// Calibration slices run during one stretch of a round.
struct Calibration {
  uint64_t ns = 0;
  uint64_t slices = 0;

  /// Mean wall time of one slice: how fast the host was.
  double slice_us() const {
    return static_cast<double>(ns) * 1e-3 / static_cast<double>(slices);
  }

  /// `wall_s` (slices excluded) in reference-host seconds.
  double Normalise(double wall_s) const {
    return wall_s * kSliceRefS * 1e6 / slice_us();
  }
};

/// Steps the sim until it runs dry. With a calibrator, runs a slice after
/// every kDeliveriesPerSlice deliveries; with spans, times each delivery.
/// Neither touches the sim, so the schedule is the one Settle() runs: the
/// piggyback layer flushes only once the sim has drained.
void StepUntilDry(net::SimNetwork* sim, Calibrator* calibrator,
                  Calibration* cal, SpanLog* spans) {
  uint64_t t = NowNanos();
  for (uint64_t n = 1; sim->Step(); ++n) {
    if (spans != nullptr) {
      const uint64_t next = NowNanos();
      spans->Add(kSpanDelivery, 0, t, next);
      t = next;
    } else if (calibrator != nullptr && n % kDeliveriesPerSlice == 0) {
      cal->ns += calibrator->Slice();
      ++cal->slices;
    }
  }
}

/// Wall times of a set-up, calibration slices excluded.
struct SetupTimes {
  double bootstrap_s = 0;
  double load_s = 0;
  double settle_s = 0;
  Calibration calibration;  ///< slices run during the preload
  double total() const { return bootstrap_s + load_s + settle_s; }
};

/// One measured phase: a round's closed loop plus its settle. Its Tally
/// is merged into the run's as soon as the phase ends, so memory does not
/// grow with the number of phases.
struct Phase {
  bool traced = false;
  uint64_t ops = 0;
  uint64_t failed = 0;
  Counters counters;
  double run_s = 0;        ///< wall seconds, calibration slices excluded
  double sim_s = 0;        ///< simulated seconds
  Calibration calibration;  ///< untraced: slices run during the phase
  double ops_per_s() const {
    return run_s > 0 ? static_cast<double>(ops) / run_s : 0;
  }
};

/// Everything a run accumulates; turned into metrics at the end.
struct RunState {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::vector<std::string> errors;
  std::vector<SetupTimes> setups;  ///< measured rounds' set-ups
  std::vector<Phase> phases;
  Tally tallies[2];  ///< merged client outcomes: [untraced, traced]
  /// Untraced rounds' latencies by name ("read", "write"), one entry per
  /// round.
  std::map<std::string, std::vector<LatencyStats>> round_latencies;
  long peak_rss_kb = 0;  ///< ru_maxrss at the end of the first round
  std::deque<SpanLog> span_logs;  ///< deque: appending keeps addresses
  int64_t spans_to_keep = kMaxKeptSpans;
  TreeStats tree;
  uint64_t run_start_ns = 0;

  void Fail(std::string msg) { errors.push_back(std::move(msg)); }

  SpanLog* NewSpanLog() { return &span_logs.emplace_back(&spans_to_keep); }

  void AddLatencies(const OpLatencies& l) {
    if (l.read.count() != 0) {
      round_latencies["read"].push_back(LatencyStats::Of(l.read));
    }
    if (l.write.count() != 0) {
      round_latencies["write"].push_back(LatencyStats::Of(l.write));
    }
  }

  /// Peak RSS is taken once, after the first measured round: later rounds
  /// repeat the same work, so the figure does not depend on run length.
  void NotePeakRss() {
    if (peak_rss_kb != 0) return;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_kb = usage.ru_maxrss;
  }

  void AddPhase(Phase phase, const Tally& tally) {
    phase.ops = tally.ops();
    phase.failed = tally.failed;
    tallies[phase.traced].Absorb(tally);
    phases.push_back(std::move(phase));
  }
};

// --- cluster set-up and the correctness check ---------------------------

ClusterOptions MakeOptions(const Workload& w, uint64_t seed) {
  ClusterOptions o;
  o.processors = w.processors;
  o.protocol = ProtocolKind::kSemiSyncSplit;
  o.transport = TransportKind::kSim;
  o.seed = seed;
  o.tree.max_entries = kMaxEntries;
  o.tree.upsert = true;
  o.tree.track_history = false;  // bench mode, as in the repo's benches
  o.check_histories = false;
  o.reliable = w.reliable;
  o.combine_ops = w.fast_paths;
  o.local_read_fastpath = w.fast_paths;
  o.piggyback_window = w.piggyback_window;
  o.sim_latency_us = 4;  // 4 µs ± 1 µs per remote hop
  o.sim_jitter_us = 1;
  return o;
}

/// The preloaded keys: zipf ranks 1..records, so zipfian reads always hit.
std::vector<Key> LoadKeys(const workload::ZipfianDist& zipf, size_t records) {
  std::vector<Key> keys;
  keys.reserve(records);
  for (size_t i = 0; i < records; ++i) keys.push_back(zipf.KeyForRank(i + 1));
  return keys;
}

/// Builds, starts and preloads a cluster; records the set-up times. With a
/// calibrator, the preload's drains run calibration slices.
std::unique_ptr<Cluster> SetUp(const Workload& w, uint64_t seed,
                               const std::vector<Key>& keys,
                               Calibrator* calibrator, SetupTimes* t,
                               SpanLog* spans, RunState& run) {
  const uint64_t t0 = NowNanos();
  auto cluster = std::make_unique<Cluster>(MakeOptions(w, seed));
  cluster->Start();
  const uint64_t t1 = NowNanos();
  uint64_t failed = 0;
  Calibration& cal = t->calibration;
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster->InsertAsync(static_cast<ProcessorId>(i % w.processors),
                         keys[i], keys[i], [&failed](const OpResult& r) {
                           if (!r.status.ok()) ++failed;
                         });
    if (i % kLoadBatch == kLoadBatch - 1) {
      StepUntilDry(cluster->sim(), calibrator, &cal, nullptr);
      if (!cluster->Settle(kSettleTimeout)) {
        run.Fail("preload did not settle");
        break;
      }
    }
  }
  const uint64_t t2 = NowNanos();
  if (!cluster->Settle(kSettleTimeout)) run.Fail("preload did not settle");
  const uint64_t t3 = NowNanos();
  if (failed != 0) {
    run.Fail(std::to_string(failed) + " preload inserts failed");
  }
  t->bootstrap_s = (t1 - t0) * 1e-9;
  t->load_s = (t2 - t1 - cal.ns) * 1e-9;
  t->settle_s = (t3 - t2) * 1e-9;
  if (spans != nullptr) {
    spans->Add(kSpanBootstrap, 0, t0, t1);
    spans->Add(kSpanLoad, 0, t1, t2);
    spans->Add(kSpanSettle, 0, t2, t3);
  }
  return cluster;
}

/// After the final Settle: structure, no outstanding ops, and the leaves
/// exactly as the oracle holds them. A mismatch is recorded as a run error.
void CheckFinal(Cluster& c, const Oracle& oracle, const char* where,
                RunState& run) {
  const std::string at = std::string(" (") + where + ")";
  std::vector<std::string> structure = c.CheckTreeStructure();
  if (!structure.empty()) {
    run.Fail("tree structure: " + structure.front() + at);
  }
  for (ProcessorId p = 0; p < c.size(); ++p) {
    const size_t outstanding = c.processor(p).ops().Outstanding();
    if (outstanding != 0) {
      run.Fail("p" + std::to_string(p) + " has " +
               std::to_string(outstanding) + " outstanding ops" + at);
    }
  }
  const std::vector<Entry> leaves = c.DumpLeaves();
  const std::vector<Entry> expect = oracle.Dump();
  if (leaves != expect) {
    run.Fail("leaves differ from the oracle: " +
             std::to_string(leaves.size()) + " vs " +
             std::to_string(expect.size()) + " entries" + at);
  }
}

// --- closed loop of async ops ---------------------------------------------

/// Keeps `w.outstanding` ops in flight until `remaining` ops were issued.
/// Every op launches from the previous op's completion callback.
///
/// Reads expect the oracle's value exactly. On an upsert workload a key
/// never has a write in flight together with any other op, so the oracle
/// (updated as writes complete) holds each read's only correct value.
struct SimLoop {
  Cluster* cluster = nullptr;
  const Workload* w = nullptr;
  workload::ZipfianDist* zipf = nullptr;
  Oracle* oracle = nullptr;
  std::unordered_set<Key>* used = nullptr;  ///< keys present or inserted
  std::unordered_set<Key> writing;          ///< upserts in flight
  std::unordered_map<Key, uint32_t> reading;  ///< reads in flight
  Rng rng;
  size_t remaining = 0;
  uint64_t seq = 0;
  Tally tally;
  OpLatencies sim_us;  ///< simulated latency
  SpanLog* spans = nullptr;  ///< non-null in a traced round
  /// Traced: when each op's submit returned, indexed by op. The sim
  /// delivers nothing until it is stepped, so a callback always follows
  /// its own submit's return.
  std::vector<uint64_t> submit_end;

  Key PickKey(bool read) {
    Key key = 0;
    if (read) {
      do {
        key = zipf->Next(rng);
      } while (writing.contains(key));
      ++reading[key];
    } else if (w->fresh_inserts) {
      do {
        key = 1 + rng.Below(kKeySpace - 1);
      } while (!used->insert(key).second);
    } else {
      do {
        key = zipf->Next(rng);
      } while (writing.contains(key) || reading.contains(key));
      writing.insert(key);
    }
    return key;
  }

  void Launch() {
    if (remaining == 0) return;
    --remaining;
    const uint64_t op = ++seq;
    const ProcessorId home =
        static_cast<ProcessorId>(rng.Below(w->processors));
    const bool read = rng.NextDouble() < w->read_share;
    const Key key = PickKey(read);
    const Value value = (1ull << kWriterShift) | op;
    const uint64_t sim_t0 = cluster->sim()->NowUs();
    const uint64_t t0 = spans != nullptr ? NowNanos() : 0;
    auto cb = [this, read, key, value, sim_t0, t0, op](const OpResult& r) {
      const uint64_t elapsed_us = cluster->sim()->NowUs() - sim_t0;
      tally.hops += r.hops;
      if (read) {
        ++tally.reads;
        sim_us.read.Record(elapsed_us);
        if (r.status.IsNotFound()) ++tally.not_found;
        const StatusOr<Value> expect = oracle->Search(key);
        if (!r.status.ok() || !expect.ok() || r.value != *expect) {
          ++tally.failed;
        }
        if (--reading[key] == 0) reading.erase(key);
      } else {
        ++tally.writes;
        sim_us.write.Record(elapsed_us);
        if (r.status.ok()) {
          oracle->Insert(key, value);
        } else {
          ++tally.failed;
        }
        writing.erase(key);
      }
      if (spans != nullptr) {
        const uint64_t t2 = NowNanos();
        spans->Add(kSpanOp, op, t0, t2);
        spans->Add(kSpanWait, op, submit_end[op], t2);
      }
      Launch();
    };
    if (read) {
      cluster->SearchAsync(home, key, std::move(cb));
    } else {
      cluster->InsertAsync(home, key, value, std::move(cb));
    }
    if (spans != nullptr) {
      submit_end[op] = NowNanos();
      spans->Add(kSpanSubmit, op, t0, submit_end[op]);
    }
  }
};

/// Deterministic summary of a round, compared across rounds.
struct Fingerprint {
  std::vector<uint64_t> values;
  OpLatencies sim_us;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint TakeFingerprint(const Counters& c, const Tally& t,
                            const OpLatencies& sim_us,
                            const std::vector<Entry>& leaves,
                            const TreeStats& tree) {
  Fingerprint f;
  auto& v = f.values;
  const net::StatsSnapshot& n = c.net;
  v.insert(v.end(), {n.remote_messages, n.local_messages, n.remote_bytes,
                     n.piggybacked_actions, n.combined_actions,
                     n.fastpath_reads, n.retransmits, n.duplicates_dropped,
                     n.acks_piggybacked, n.link_down});
  v.insert(v.end(), n.actions_by_kind.begin(), n.actions_by_kind.end());
  v.insert(v.end(), c.actions.begin(), c.actions.end());
  v.insert(v.end(), {c.deliveries, t.reads, t.writes, t.hops, t.failed});
  f.sim_us = sim_us;
  uint64_t h = leaves.size();
  for (const Entry& e : leaves) h = Mix(Mix(h, e.key), e.payload);
  v.insert(v.end(), {h, static_cast<uint64_t>(tree.height), tree.keys});
  for (const auto& [level, s] : tree.levels) {
    v.insert(v.end(), {static_cast<uint64_t>(level), s.nodes, s.copies,
                       s.entries});
  }
  return f;
}

/// One full round: set-up, `round_ops` ops, settle, check. Only a
/// `measured` round's set-up and phase count towards the metrics.
Fingerprint RunRound(const Workload& w, uint64_t seed, bool traced,
                     bool measured, Calibrator& calibrator, RunState& run) {
  workload::ZipfianDist zipf(w.records, kKeySpace);
  const std::vector<Key> keys = LoadKeys(zipf, w.records);
  SpanLog* spans = nullptr;
  if (traced) spans = run.NewSpanLog();
  // Only an untraced measured round calibrates.
  Calibrator* cal = measured && !traced ? &calibrator : nullptr;
  SetupTimes setup;
  auto cluster = SetUp(w, seed, keys, cal, &setup, spans, run);

  Oracle oracle(/*upsert=*/true);
  std::unordered_set<Key> used(keys.begin(), keys.end());
  for (Key k : keys) oracle.Insert(k, k);

  SimLoop loop;
  loop.cluster = cluster.get();
  loop.w = &w;
  loop.zipf = &zipf;
  loop.oracle = &oracle;
  loop.used = &used;
  loop.rng.Seed(Mix(seed, 0x51u));
  loop.remaining = w.round_ops;
  loop.spans = spans;
  if (traced) loop.submit_end.resize(w.round_ops + 1);

  Phase phase;
  phase.traced = traced;
  const Counters before = Counters::Read(*cluster);
  net::SimNetwork* sim = cluster->sim();
  const uint64_t sim_t0 = sim->NowUs();
  const uint64_t t0 = NowNanos();
  for (int i = 0; i < w.outstanding; ++i) loop.Launch();
  StepUntilDry(sim, cal, &phase.calibration, spans);
  if (!cluster->Settle(kSettleTimeout)) run.Fail("run phase did not settle");
  phase.run_s = (NowNanos() - t0 - phase.calibration.ns) * 1e-9;
  phase.sim_s = static_cast<double>(sim->NowUs() - sim_t0) * 1e-6;
  phase.counters = Counters::Read(*cluster) - before;
  const Tally& tally = loop.tally;
  if (tally.ops() != w.round_ops) {
    run.Fail("round completed " + std::to_string(tally.ops()) + " of " +
             std::to_string(w.round_ops) + " ops");
  }
  CheckFinal(*cluster, oracle, w.name, run);
  const TreeStats tree = CollectTreeStats(*cluster);
  Fingerprint f = TakeFingerprint(phase.counters, tally, loop.sim_us,
                                  cluster->DumpLeaves(), tree);
  if (measured) {
    run.tree = tree;
    if (!traced) {
      run.AddLatencies(loop.sim_us);
    }
    run.NotePeakRss();
    run.setups.push_back(setup);
    run.AddPhase(std::move(phase), tally);
  }
  return f;
}

/// Runs rounds of one seed until `seconds` of wall time have passed (at
/// least kMinRounds, and in a traced run an even number).
void Run(RunState& run) {
  const Workload& w = *run.w;
  const uint64_t t0 = NowNanos();
  std::vector<Fingerprint> prints;
  Calibrator calibrator;
  for (int round = 0;; ++round) {
    // A traced run alternates untraced and traced rounds of one seed; the
    // traced rounds must reproduce the untraced counters exactly.
    const bool traced = run.trace && round % 2 == 1;
    prints.push_back(RunRound(w, run.seed, traced, true, calibrator, run));
    if (!run.errors.empty()) return;
    if (!(prints.back() == prints.front())) {
      run.Fail(std::string("round ") + std::to_string(round) +
               (traced ? " (traced)" : "") +
               " differs from round 0 of the same seed");
      return;
    }
    if (round + 1 >= kMinRounds && (NowNanos() - t0) * 1e-9 >= run.seconds &&
        (!run.trace || round % 2 == 1)) {
      break;
    }
  }
  if (run.trace) {
    // A different seed must change the counters (an unmeasured round).
    const Fingerprint other =
        RunRound(w, run.seed + 1, false, false, calibrator, run);
    if (other == prints.front()) {
      run.Fail("seed " + std::to_string(run.seed + 1) +
               " reproduced seed " + std::to_string(run.seed));
    }
  }
}

// --- metrics ------------------------------------------------------------

struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> absent;  ///< metric -> why
  std::map<std::string, uint64_t> samples;    ///< percentile sample counts
};

double PerOp(uint64_t count, uint64_t ops) {
  return ops ? static_cast<double>(count) / static_cast<double>(ops) : 0;
}

/// Latency metrics: each percentile is the median over the untraced
/// rounds of that round's percentile, so a disturbed round does not move
/// it.
void AddLatencyMetrics(Report& r, const RunState& run) {
  for (const auto& [name, rounds] : run.round_latencies) {
    std::vector<double> p50, p99, p999;
    uint64_t samples = 0;
    uint64_t min_beyond = UINT64_MAX;
    for (const LatencyStats& st : rounds) {
      p50.push_back(st.p50);
      p99.push_back(st.p99);
      p999.push_back(st.p999);
      samples += st.count;
      min_beyond = std::min(min_beyond, st.beyond999);
    }
    r.metrics[name + "_p50_us"] = Median(p50);
    r.metrics[name + "_p99_us"] = Median(p99);
    r.metrics[name + "_p999_us"] = Median(p999);
    r.samples[name + ".samples"] = samples;
    r.samples[name + ".rounds"] = rounds.size();
    r.samples[name + "_p999_us.min_beyond_per_round"] = min_beyond;
  }
}

void AddCounterMetrics(Report& r, const Workload& w, const Counters& c,
                       const Tally& t, const TreeStats& tree) {
  const uint64_t ops = t.ops();
  const net::StatsSnapshot& n = c.net;
  const uint64_t kmsg = n.remote_messages;
  r.metrics["server.actions_per_op"] = PerOp(c.total_actions(), ops);
  if (t.writes != 0) {
    r.metrics["protocol.insert_actions_per_insert"] =
        PerOp(n.ActionCount(ActionKind::kInsert), t.writes);
  } else {
    r.absent["protocol.insert_actions_per_insert"] = "no client inserts";
  }
  r.metrics["net.local_msgs_per_op"] = PerOp(n.local_messages, ops);
  r.metrics["protocol.hops_per_op"] = PerOp(t.hops, ops);
  r.metrics["protocol.relayed_inserts_per_op"] =
      PerOp(n.ActionCount(ActionKind::kRelayedInsert), ops);
  r.metrics["protocol.relayed_splits_per_op"] =
      PerOp(n.ActionCount(ActionKind::kRelayedSplit), ops);
  r.metrics["protocol.create_nodes_per_op"] =
      PerOp(n.ActionCount(ActionKind::kCreateNode), ops);
  r.metrics["net.piggybacked_per_op"] = PerOp(n.piggybacked_actions, ops);
  r.metrics["net.bytes_per_msg"] = PerOp(n.remote_bytes, n.remote_messages);
  r.metrics["server.combined_per_op"] = PerOp(n.combined_actions, ops);
  r.metrics["server.fastpath_hops_per_op"] = PerOp(n.fastpath_reads, ops);
  uint64_t busiest = 0;
  for (uint64_t a : c.actions) busiest = std::max(busiest, a);
  r.metrics["server.busiest_share"] =
      c.total_actions() ? static_cast<double>(busiest) * w.processors /
                              static_cast<double>(c.total_actions())
                        : 0;
  r.metrics["net.retransmits_per_kmsg"] = 1000 * PerOp(n.retransmits, kmsg);
  r.metrics["net.acks_piggybacked_per_kmsg"] =
      1000 * PerOp(n.acks_piggybacked, kmsg);
  r.metrics["net.duplicates_per_kmsg"] =
      1000 * PerOp(n.duplicates_dropped, kmsg);
  r.metrics["net.deliveries_per_op"] = PerOp(c.deliveries, ops);
  // Tree shape at the end of the run (CollectTreeStats).
  r.metrics["node.height"] = tree.height;
  auto leaf = tree.levels.find(0);
  r.metrics["node.leaf_fill"] =
      leaf == tree.levels.end() ? 0 : leaf->second.fill(kMaxEntries);
  uint64_t nodes = 0;
  uint64_t copies = 0;
  for (const auto& [level, s] : tree.levels) {
    if (level == 0) continue;
    nodes += s.nodes;
    copies += s.copies;
  }
  r.metrics["node.interior_replication"] = PerOp(copies, nodes);
  size_t leaves = 0;
  size_t most = 0;
  for (const auto& [host, count] : tree.leaves_per_host) {
    leaves += count;
    most = std::max(most, count);
  }
  r.metrics["node.leaves_busiest_share"] =
      leaves ? static_cast<double>(most) * w.processors / leaves : 0;
}

/// Per-span-name duration percentiles, tracing overhead and the share of
/// op time no child span covers.
void AddTraceMetrics(Report& r, const RunState& run,
                     const std::vector<const Phase*>& untraced,
                     const std::vector<const Phase*>& traced) {
  Latencies durations[kSpanKinds];
  uint64_t op_ns = 0;
  uint64_t child_ns = 0;
  uint64_t recorded = 0;
  uint64_t kept = 0;
  for (const SpanLog& log : run.span_logs) {
    for (int k = 0; k < kSpanKinds; ++k) durations[k].Merge(log.durations[k]);
    op_ns += log.op_ns;
    child_ns += log.child_ns;
    recorded += log.recorded;
    kept += log.spans.size();
  }
  r.samples["trace.spans_recorded"] = recorded;
  r.samples["trace.spans_kept"] = kept;
  auto add = [&](SpanName name, const std::string& metric) {
    const Latencies& lat = durations[name];
    if (lat.count() == 0) return false;
    uint64_t beyond = 0;
    r.metrics[metric + "_p50"] = lat.Percentile(50, &beyond) / 1e3;
    r.metrics[metric + "_p99"] = lat.Percentile(99, &beyond) / 1e3;
    r.samples[metric + ".samples"] = lat.count();
    r.samples[metric + "_p99.beyond"] = beyond;
    return true;
  };
  add(kSpanSubmit, "core.submit_us");
  add(kSpanWait, "server.wait_us");
  add(kSpanDelivery, "net.delivery_us");
  std::vector<double> boot, load, settle;
  for (const SetupTimes& s : run.setups) {
    boot.push_back(s.bootstrap_s);
    load.push_back(s.load_s);
    settle.push_back(s.settle_s);
  }
  r.metrics["core.bootstrap_s"] = Median(boot);
  r.metrics["core.load_s"] = Median(load);
  r.metrics["core.settle_ms"] = Median(settle) * 1e3;
  auto rate = [](const std::vector<const Phase*>& ps) {
    uint64_t ops = 0;
    double s = 0;
    for (const Phase* p : ps) {
      ops += p->ops;
      s += p->run_s;
    }
    return s > 0 ? static_cast<double>(ops) / s : 0;
  };
  const double plain = rate(untraced);
  const double with = rate(traced);
  r.metrics["trace.ops_per_s_traced"] = with;
  r.metrics["trace.ops_per_s_untraced"] = plain;
  r.metrics["trace.overhead_pct"] = plain > 0 ? 100 * (1 - with / plain) : 0;
  r.metrics["trace.unaccounted_share"] =
      op_ns ? 1 - static_cast<double>(child_ns) / static_cast<double>(op_ns)
            : 0;
}

Report BuildReport(const RunState& run) {
  const Workload& w = *run.w;
  Report r;
  std::vector<const Phase*> untraced;
  std::vector<const Phase*> traced;
  for (const Phase& p : run.phases) {
    (p.traced ? traced : untraced).push_back(&p);
  }
  // End-to-end and counter metrics come from the untraced phases only.
  // Figures in simulated time are exact per seed; the wall-clock ones are
  // reported beside them, and the host-normalised ones divide wall time by
  // the calibration loop's time (README: "What the gated metrics measure").
  const Tally& t = run.tallies[0];
  Counters c;
  std::vector<double> rates, wall_rates, norm_us, slice_us;
  for (const Phase* p : untraced) {
    c.Add(p->counters);
    rates.push_back(static_cast<double>(p->ops) / p->sim_s);
    wall_rates.push_back(p->ops_per_s());
    norm_us.push_back(p->calibration.Normalise(p->run_s) /
                      static_cast<double>(p->ops) * 1e6);
    slice_us.push_back(p->calibration.slice_us());
  }
  const uint64_t ops = t.ops();
  r.metrics["ops_per_s"] = Median(rates);
  r.metrics["wall_ops_per_s"] = Median(wall_rates);
  r.metrics["host_norm_us_per_op"] = Median(norm_us);
  r.metrics["calibration_slice_us"] = Median(slice_us);
  AddLatencyMetrics(r, run);
  if (t.writes == 0) {
    r.absent["write_p50_us"] = r.absent["write_p999_us"] =
        "read-only workload";
  }
  r.metrics["fail_ratio"] = PerOp(t.failed, ops);
  r.samples["reads.not_found"] = t.not_found;
  r.metrics["msgs_per_op"] = PerOp(c.net.remote_messages, ops);
  r.metrics["bytes_per_op"] = PerOp(c.net.remote_bytes, ops);
  // Set-up is normalised like the run phase, from the slices its preload
  // ran; traced rounds' set-ups ran none and are left out.
  std::vector<double> setup, wall_setup;
  for (const SetupTimes& s : run.setups) {
    if (s.calibration.slices == 0) continue;
    setup.push_back(s.calibration.Normalise(s.total()));
    wall_setup.push_back(s.total());
  }
  r.metrics["setup_s"] = Median(setup);
  r.metrics["wall_setup_s"] = Median(wall_setup);
  r.metrics["peak_rss_mb"] = static_cast<double>(run.peak_rss_kb) / 1024.0;
  AddCounterMetrics(r, w, c, t, run.tree);
  if (run.trace) AddTraceMetrics(r, run, untraced, traced);
  return r;
}

// --- output -------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Writes the kept spans as CSV (times relative to the run start).
bool WriteSpans(const RunState& run, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,span,start_ns,end_ns\n");
  for (const SpanLog& log : run.span_logs) {
    for (const Span& s : log.spans) {
      std::fprintf(f, "%llu,%s,%llu,%llu\n",
                   static_cast<unsigned long long>(s.op), kSpanNames[s.name],
                   static_cast<unsigned long long>(s.start_ns -
                                                   run.run_start_ns),
                   static_cast<unsigned long long>(s.end_ns -
                                                   run.run_start_ns));
    }
  }
  return std::fclose(f) == 0;
}

void PrintReport(const RunState& run, const Report& r,
                 const std::string& spans_path) {
  const Workload& w = *run.w;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Phase& p : run.phases) {
    attempted += p.ops;
    failed += p.failed;
  }
  std::string out = "{";
  out += "\"workload\":" + JsonString(w.name);
  out += ",\"correct\":";
  out += run.errors.empty() && failed == 0 && attempted > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"errors\":[";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    out += (i ? "," : "") + JsonString(run.errors[i]);
  }
  out += "],\"provenance\":{";
  out += "\"build_type\":" + JsonString(LAZYBENCH_BUILD_TYPE);
  out += ",\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"transport\":\"sim\"";
  out += ",\"processors\":" + std::to_string(w.processors);
  // The sim runs every processor on the calling thread: nothing to pin.
  out += ",\"pin_threads\":false";
  out += ",\"seed\":" + std::to_string(run.seed);
  out += ",\"preload\":" + std::to_string(w.records);
  out += ",\"outstanding\":" + std::to_string(w.outstanding);
  out += ",\"seconds\":" + JsonNumber(run.seconds);
  out += ",\"traced\":";
  out += run.trace ? "true" : "false";
  out += "},\"rounds\":[";
  for (size_t i = 0; i < run.phases.size(); ++i) {
    const Phase& p = run.phases[i];
    out += (i ? ",{" : "{");
    out += "\"traced\":";
    out += p.traced ? "true" : "false";
    out += ",\"ops\":" + std::to_string(p.ops);
    out += ",\"run_s\":" + JsonNumber(p.run_s);
    out += ",\"ops_per_s\":" + JsonNumber(p.ops_per_s());
    // Measured rounds push a set-up and a phase each.
    const SetupTimes& setup = run.setups[i];
    out += ",\"setup_s\":" + JsonNumber(setup.total());
    if (!p.traced) {
      out += ",\"slice_us\":" + JsonNumber(p.calibration.slice_us());
      out += ",\"setup_slice_us\":" +
             JsonNumber(setup.calibration.slice_us());
    }
    out += "}";
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "},\"absent\":{";
  first = true;
  for (const auto& [name, why] : r.absent) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonString(why);
    first = false;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, count] : r.samples) {
    out += (first ? "" : ",") + JsonString(name) + ":" + std::to_string(count);
    first = false;
  }
  out += "},\"spans_file\":" + JsonString(spans_path) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: lazybench --workload <read-zipf-sim|insert-grow|"
               "mixed-reliable-sim> --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (std::strcmp(LAZYBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "lazybench: refusing to measure a %s build\n",
                 LAZYBENCH_BUILD_TYPE);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "lazybench: unknown workload '%s'\n",
                 workload.c_str());
    return Usage();
  }
  RunState run;
  run.w = w;
  run.seed = seed;
  run.seconds = seconds;
  run.trace = trace == 1;
  run.run_start_ns = NowNanos();
  Run(run);
  const Report report = BuildReport(run);
  if (run.trace && !spans_path.empty() && !WriteSpans(run, spans_path)) {
    run.Fail("cannot write spans to " + spans_path);
  }
  PrintReport(run, report, run.trace ? spans_path : "");
  return 0;
}

}  // namespace
}  // namespace lazytree::lazybench

int main(int argc, char** argv) {
  return lazytree::lazybench::Main(argc, argv);
}
