// Links: one processor's ends of its reliable channels.
//
// The paper's §4 protocols assume reliable, exactly-once, FIFO channels.
// A lossy transport (net/faults.h) breaks that; these links restore it
// with go-back-N run by the processor itself, in the header of the
// messages its queue manager already builds:
//
//   send side, per peer: every remote message the queue manager sends gets the
//     link's next sequence number and the cumulative ack of the reverse
//     direction, and goes into the peer's unacked log; the network gets a copy
//     (Send). A cumulative ack arriving from the peer retires the log's head;
//     the retransmission timer resends the whole log with exponential backoff
//     and deterministic jitter. Its base, the RTO, is Jacobson/Karels SRTT +
//     max(G, 4·RTTVAR) over measured round trips (Karn's rule: a retransmitted
//     frame gives no sample), floored at `rto_us`. G is RFC 6298's clock
//     granularity; on the steady clock it is a scheduler time slice (5 ms),
//     since a worker that is not running cannot ack and a preempted peer must
//     not read as a lost frame. Only the thread transport's real clock is
//     sampled: virtual time passes only while timers wait, so a sim "round
//     trip" would measure the links' own timers, not the network; there the RTO
//     is `rto_us` and every sim schedule is independent of the estimator. A
//     link with no progress for `link_down_after_us` is declared down: its log
//     is dropped and the cluster fails pending ops retriably.
//
//   receive side, per peer (Accept, before any action is handled): the
//     ack retires frames, stale and duplicate frames are dropped (and
//     re-acked at once, since the peer is resending), out-of-order frames
//     wait in a bounded reorder buffer and are released in sequence.
//     Sequence numbers compare by serial arithmetic, so every window
//     survives wraparound.
//
//   acks: an in-order frame arms an ack that waits up to `ack_delay_us`
//     for the next message to that peer to carry it (§1.1's piggybacking
//     applied to control traffic); when none goes, a pure ack frame
//     (Message::kAckOnly, never handed to the protocol) is sent instead.
//
// Self-sends are never stamped: they model in-process work. The fault
// injector sits below the stamp, so a retransmission is a fresh send it
// may fault again.
//
// Confinement: a processor's links are touched only by its delivery
// thread (the thread transport's worker, or the sim's single thread), so
// there is no lock. Timers are per-processor deadlines read on a
// LinkClock: on the sim a virtual clock that only PumpLinks advances, at
// quiescent points, so timer firings are deterministic, schedulable
// events; on threads the steady clock, and the worker parks no longer
// than its processor's next deadline (net::Receiver::TimerDeadline).

#ifndef LAZYTREE_SERVER_LINKS_H_
#define LAZYTREE_SERVER_LINKS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/msg/fingerprint.h"
#include "src/net/transport.h"

namespace lazytree {

struct ReliabilityOptions {
  /// First sequence number a link assigns. Tests set this near
  /// UINT64_MAX to exercise the dedup window across sequence overflow.
  uint64_t initial_seq = 1;
  /// Retransmission timeout floor in microseconds (virtual or real). The
  /// measured RTO is never lower.
  uint64_t rto_us = 200;
  /// A link whose oldest unacked frame has waited this long without any
  /// ack progress is declared down at its next retransmission timer.
  uint64_t link_down_after_us = 1'000'000;
  /// Delayed-ack window in microseconds.
  uint64_t ack_delay_us = 50;
  /// Upper bound on deterministic backoff jitter in microseconds.
  uint64_t jitter_us = 16;
  /// Seed for the jitter hash.
  uint64_t seed = 1;
  /// Out-of-order frames buffered per peer; frames beyond it are dropped
  /// and recovered by retransmission.
  size_t reorder_window = 1024;
};

/// Time source of every link timer in one cluster.
class LinkClock {
 public:
  /// `real`: the steady clock (thread transport). Otherwise a virtual
  /// clock starting at 0 that only AdvanceTo moves.
  explicit LinkClock(bool real) : real_(real) {}

  bool real() const { return real_; }
  uint64_t Now() const { return real_ ? net::SteadyNowUs() : virtual_us_; }
  void AdvanceTo(uint64_t us) {
    if (us > virtual_us_) virtual_us_ = us;
  }

 private:
  bool real_;
  uint64_t virtual_us_ = 0;
};

class Links {
 public:
  /// Links from `self` to each of `processors` peers. Pure acks and
  /// retransmissions go straight to `network` (the fault injector when
  /// one is installed); counters go to its stats sink.
  Links(ProcessorId self, uint32_t processors, net::Network* network,
        const ReliabilityOptions& options, const LinkClock* clock);

  /// Send side: stamps the remote message `m` (seq, cumulative ack),
  /// moves it into the peer's unacked log and sends a copy of the logged
  /// frame (Network::SendCopy: the sim encodes it in place). False, with
  /// nothing sent, when the link is down.
  bool Send(Message m);

  /// Receive side, for a remote frame: applies its ack, then dedups and
  /// orders it. True when `m` is the next frame in sequence and must be
  /// handled now, followed by released(); false when there is nothing to
  /// handle (pure ack, duplicate, or parked out of order).
  bool Accept(Message& m);

  /// Frames that `m`'s arrival released from the reorder buffer, in
  /// sequence, valid until the next Accept. The caller moves them out.
  std::vector<Message>& released() { return released_; }

  /// Earliest armed timer, or net::kNoTimer.
  uint64_t NextDeadline() const;

  enum class Fired { kNothing, kResent, kDown };
  /// Fires `peer`'s retransmission timer if it is due at `now`: resends
  /// the log, or declares the link down once its budget is spent.
  Fired FireRetransmit(ProcessorId peer, uint64_t now);
  /// Sends `peer` a pure ack if its delayed ack is due at `now`.
  bool FireAck(ProcessorId peer, uint64_t now);
  /// Fires every due timer: retransmissions, then acks, both in peer
  /// order. Appends the peers whose link went down to `downs`.
  void FireDue(uint64_t now, std::vector<ProcessorId>* downs);

  /// No unacked frame on a live link and no ack pending.
  bool Settled() const;
  bool AnyDown() const { return any_down_; }
  /// Frames awaiting an ack, over all peers.
  size_t Unacked() const;

  /// Mixes the schedule-relevant link state (sequence numbers, logs,
  /// reorder buffers, deadlines relative to the clock) into a verifier
  /// fingerprint. The RTT estimator is left out: it samples only the real
  /// clock, so on the virtual one the RTO is always `rto_us`.
  void MixState(Fingerprint& fp) const;

 private:
  /// uint64_t ordering by serial-number arithmetic, so reorder-buffer
  /// keys sort correctly across the sequence wrap.
  struct SerialLess {
    bool operator()(uint64_t a, uint64_t b) const {
      return static_cast<int64_t>(a - b) < 0;
    }
  };

  struct Peer {
    // Send half: this processor -> peer.
    uint64_t next_seq = 0;
    std::deque<Message> log;  // unacked frames, oldest first
    uint32_t retries = 0;  // timer firings since the last ack progress
    uint64_t rto_deadline = net::kNoTimer;
    uint64_t stalled_since = 0;  // last ack progress, or log non-empty
    bool dead = false;
    // RTT estimator: one timed frame at a time, untimed on retransmit.
    bool timing = false;
    uint64_t timed_seq = 0;
    uint64_t timed_at = 0;
    bool has_rtt = false;
    uint64_t srtt_us = 0;
    uint64_t rttvar_us = 0;
    uint64_t rto_us = 0;

    // Receive half: peer -> this processor.
    uint64_t expected = 0;  // next in-sequence seq; cum ack = expected - 1
    std::map<uint64_t, Message, SerialLess> reorder;
    bool ack_pending = false;
    uint64_t ack_deadline = net::kNoTimer;
  };

  /// RFC 6298's RTO from the peer's estimator, at least `rto_us`.
  uint64_t RtoFor(const Peer& p) const;
  uint64_t BackoffUs(ProcessorId peer, const Peer& p) const;
  /// Stamps the cumulative ack for peer -> self onto an outgoing frame,
  /// clearing any delayed ack it makes redundant.
  void AttachAck(Message& m, Peer& p);
  void RetireAcked(ProcessorId peer, Peer& p, uint64_t ack, uint64_t now);
  void SampleRtt(Peer& p, uint64_t rtt_us);

  ProcessorId self_;
  net::Network* network_;
  ReliabilityOptions options_;
  const LinkClock* clock_;
  std::vector<Peer> peers_;
  std::vector<Message> released_;
  bool any_down_ = false;
};

/// `from`'s link to `to` was declared down.
using LinkDownFn = std::function<void(ProcessorId from, ProcessorId to)>;

/// Sim transport: advances `clock` to the earliest deadline over `links`
/// (indexed by processor) and fires everything due then, in the one
/// order replays depend on: retransmissions by (from, to), then pure
/// acks by (sender of the acked frames, acker). Links declared down are
/// reported to `on_down` after every frame has been sent. Returns true
/// if anything fired.
bool PumpLinks(const std::vector<Links*>& links, LinkClock& clock,
               const LinkDownFn& on_down);

/// Sim transport: runs `network` until nothing is in flight and every
/// link is settled, pumping link timers whenever it runs dry. False on
/// timeout (the sim reads it as a delivery budget).
bool DrainLinks(net::Network& network, const std::vector<Links*>& links,
                LinkClock& clock, const LinkDownFn& on_down,
                std::chrono::milliseconds timeout);

}  // namespace lazytree

#endif  // LAZYTREE_SERVER_LINKS_H_
