// Public configuration for a lazytree cluster.

#ifndef LAZYTREE_CORE_OPTIONS_H_
#define LAZYTREE_CORE_OPTIONS_H_

#include <cstdint>

#include "src/history/checker.h"
#include "src/net/faults.h"
#include "src/server/links.h"
#include "src/server/processor.h"

namespace lazytree {

/// Which replica-maintenance algorithm runs the tree (§4).
enum class ProtocolKind {
  kSyncSplit,      ///< §4.1.1 — AAS-ordered splits, blocks initial inserts
  kSemiSyncSplit,  ///< §4.1.2 — history rewriting, never blocks (default)
  kNaive,          ///< Fig. 4 strawman — loses inserts (tests/bench only)
  kVigorous,       ///< available-copies baseline — locks every update
  kMobile,         ///< §4.2 — single-copy nodes that migrate
  kVarCopies,      ///< §4.3 — join/unjoin replication, mobile leaves
};

const char* ProtocolKindName(ProtocolKind kind);

/// How the simulated processors exchange messages.
enum class TransportKind {
  kSim,      ///< deterministic seeded scheduler (tests; replayable)
  kThreads,  ///< one worker thread per processor (benches; parallel)
};

struct ClusterOptions {
  uint32_t processors = 4;
  ProtocolKind protocol = ProtocolKind::kSemiSyncSplit;
  TransportKind transport = TransportKind::kSim;
  /// Seed for the sim scheduler and all protocol-internal randomness.
  uint64_t seed = 1;
  /// Sim transport only: when > 0, run the simulator in timestamped mode
  /// with this base one-way remote latency (µs) plus `sim_jitter_us` of
  /// uniform jitter; operations then have measurable latency in
  /// simulated time (SimNetwork::NowUs).
  uint64_t sim_latency_us = 0;
  uint64_t sim_jitter_us = 0;
  /// Relayed updates each processor's queue manager holds per remote
  /// destination for piggybacking (§1.1) before they leave as one
  /// message. 0 disables piggybacking.
  size_t piggyback_window = 0;
  /// Hot-node op combining (TreeConfig::combine_ops): -1 auto-resolves to
  /// ON for the threads transport and OFF for sim (keeping every seeded
  /// sim schedule — and all checked-in explorer traces — byte-stable);
  /// 0/1 force it. Sim runs with it forced on stay deterministic, just
  /// under a different (still valid) schedule.
  int8_t combine_ops = -1;
  /// Inline local descent (TreeConfig::local_fastpath), on both
  /// transports: an op walks the locally stored copies root -> interior ->
  /// leaf-home inside one delivery, and a reply to the op's own origin
  /// completes it directly. Off selects the per-hop model, one node visit
  /// per delivery with every local hop a self-send; the schedule explorer
  /// and lazytree_verify set that explicitly because it gives the
  /// scheduler one interleaving point per node visit.
  bool local_read_fastpath = true;
  /// Threads transport only: pin each worker thread to a fixed CPU.
  bool pin_threads = true;
  /// Threads transport only: max messages per drained inbox batch (tail-
  /// latency bound); 0 keeps the ThreadNetwork default.
  size_t max_batch = 0;
  /// Run the §3.1 history checks (complete/compatible/ordered) at every
  /// quiescent point Settle() reaches, aborting on the first violation so
  /// the failing schedule is caught at the earliest moment it is
  /// observable — not only when a test remembers to call
  /// VerifyHistories(). Requires tree.track_history (the hook is a no-op
  /// without it) and is skipped while a processor is crashed (§3.1 is a
  /// quiescence property of the recovered system). Turn off for
  /// deliberately broken configurations — the kNaive strawman, fault
  /// injection, schedule exploration — that want to *observe* violations
  /// instead of dying on them.
  bool check_histories = true;
  /// Policy for those checks and for VerifyHistories(): duplicate-
  /// application tolerance and the per-check violation report cap.
  history::CheckOptions history_check;
  /// Link-fault injection (net/faults.h): when the plan is active, a
  /// FaultyNetwork decorator drops/duplicates/reorders/delays remote
  /// messages under the plan's own seed, on either transport.
  net::FaultPlan faults;
  /// Reliable delivery (server/links.h): -1 auto-resolves to ON when the
  /// fault plan is active and OFF otherwise; 0/1 force it. With it on,
  /// every processor runs go-back-N links in the header of its own
  /// messages, so exactly-once FIFO delivery — and therefore §3.1 — holds
  /// even over lossy links; a link without ack progress for
  /// `reliability.link_down_after_us` is declared down and pending ops
  /// fail with a retriable kUnavailable status instead of hanging
  /// Settle().
  int8_t reliable = -1;
  /// Link tuning (RTO floor, ack delay, link-down budget, initial
  /// sequence number). Timers run on the sim's virtual clock or, on
  /// threads, the steady clock.
  ReliabilityOptions reliability;
  /// Node capacity, history tracking, replication factor, upserts.
  TreeConfig tree;
};

}  // namespace lazytree

#endif  // LAZYTREE_CORE_OPTIONS_H_
