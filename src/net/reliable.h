// Reliable delivery over lossy links.
//
// ReliableNetwork is a Network decorator that restores the paper's §4
// channel assumption — reliable, exactly-once, in-order delivery — on top
// of a transport that drops, duplicates, reorders, or delays messages
// (net/faults.h). The machinery is classic go-back-N:
//
//   sender, per ordered channel (from, to):
//     every data message gets the channel's next sequence number and a
//     copy is kept in an unacked window; an armed retransmission timer
//     resends the whole window with exponential backoff + deterministic
//     jitter; a cumulative ack prunes the window. A bounded retransmit
//     budget declares the link *down* instead of retrying forever: the
//     window is discarded, the link-down callback fires (Cluster fails
//     pending ops with a retriable kUnavailable status), and quiescence
//     treats the channel as settled — Settle() degrades gracefully rather
//     than hanging.
//
//   receiver, per ordered channel:
//     tracks the next expected sequence number with serial-number
//     arithmetic (int64_t difference), so the dedup window survives
//     sequence overflow; stale/duplicate frames are dropped (and trigger
//     an eager re-ack, since a duplicate means the peer is resending);
//     out-of-order frames wait in a bounded reorder buffer and are
//     released in sequence order.
//
//   acks: every outgoing data message piggybacks the cumulative ack for
//     its reverse channel (§1.1's piggybacking discipline applied to
//     control traffic); when no reverse traffic shows up within
//     `ack_delay_us`, a pure ack frame (Message::kAckOnly, never
//     delivered to the application) is emitted by a timer.
//
// Timer discipline: with `real_timers` (ThreadNetwork) a dedicated timer
// thread fires deadlines on the steady clock. Without it (SimNetwork) the
// layer keeps a *virtual* clock that only advances when Pump() is called —
// at quiescent points of the simulation — so timer firings are
// deterministic, schedulable events and fault-bearing explorer traces
// replay byte-for-byte.
//
// Quiescence: dropped messages never reach the base transport and
// retransmits re-enter it as fresh sends, so the base's atomic
// inflight-counter accounting stays exact. This layer's WaitQuiescent
// additionally requires every channel to be settled (window empty or link
// down, no ack pending), pumping its own timers until that holds.

#ifndef LAZYTREE_NET_RELIABLE_H_
#define LAZYTREE_NET_RELIABLE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/msg/fingerprint.h"
#include "src/net/transport.h"

namespace lazytree::net {

struct ReliabilityOptions {
  /// First sequence number a channel assigns. Tests set this near
  /// UINT64_MAX to exercise dedup-window wraparound at sequence overflow.
  uint64_t initial_seq = 1;
  /// Retransmission attempts before the link is declared down.
  uint32_t max_retransmits = 10;
  /// Base retransmission timeout in microseconds (virtual or real).
  uint64_t rto_us = 200;
  /// Delayed pure-ack timer in microseconds.
  uint64_t ack_delay_us = 50;
  /// Upper bound on deterministic backoff jitter in microseconds.
  uint64_t jitter_us = 16;
  /// Seed for the jitter hash.
  uint64_t seed = 1;
  /// Receiver out-of-order buffer cap per channel; frames beyond it are
  /// dropped and recovered by retransmission.
  size_t reorder_window = 1024;
  /// Real timer thread (ThreadNetwork) vs virtual Pump()-driven clock
  /// (SimNetwork). Set by Cluster from the transport kind.
  bool real_timers = false;
};

class ReliableNetwork : public Network {
 public:
  ReliableNetwork(Network* base, ReliabilityOptions options);
  ~ReliableNetwork() override;

  /// Called (outside this layer's lock) when a channel exhausts its
  /// retransmit budget. `from -> to` is the dead direction.
  using LinkDownFn = std::function<void(ProcessorId from, ProcessorId to)>;
  void SetLinkDownCallback(LinkDownFn fn) { on_link_down_ = std::move(fn); }

  void Register(ProcessorId id, Receiver* receiver) override;
  ProcessorId size() const override;
  void Send(Message m) override;
  void Start() override;
  void Stop() override;
  bool WaitQuiescent(std::chrono::milliseconds timeout) override;
  NetworkStats& stats() override { return base_->stats(); }

  /// Virtual-timer pump: advances the virtual clock to the earliest
  /// pending deadline and fires everything due (retransmits, pure acks,
  /// link-down declarations) in deterministic channel order. Returns true
  /// if any timer fired. No-op (false) under real timers.
  bool Pump();

  /// True if any directed channel has been declared down.
  bool AnyLinkDown() const;
  bool IsLinkDown(ProcessorId from, ProcessorId to) const;

  /// Total data messages awaiting ack across all channels (tests).
  size_t Unacked() const;

  /// Mixes the reliable layer's schedule-relevant state (sequence
  /// numbers, unacked windows, reorder buffers, relative deadlines) into
  /// an exhaustive-verifier state fingerprint. Canonical: iterates
  /// channels in index order and mixes deadlines relative to the virtual
  /// clock, never absolute times.
  void MixState(Fingerprint& fp) const;

 private:
  /// uint64_t ordering by serial-number arithmetic, so reorder-buffer
  /// keys sort correctly across the sequence wrap.
  struct SerialLess {
    bool operator()(uint64_t a, uint64_t b) const {
      return static_cast<int64_t>(a - b) < 0;
    }
  };

  static constexpr uint64_t kNoDeadline = ~0ull;

  // Sender half of ordered channel (from, to).
  struct TxChannel {
    uint64_t next_seq = 0;
    std::deque<Message> unacked;  // retransmission window (go-back-N)
    uint32_t retries = 0;
    uint64_t rto_deadline = kNoDeadline;
    bool dead = false;
  };

  // Receiver half of ordered channel (from, to), owned by endpoint `to`.
  struct RxChannel {
    uint64_t expected = 0;  // next in-sequence seq; cum ack = expected - 1
    std::map<uint64_t, Message, SerialLess> reorder;  // out-of-order frames
    bool ack_pending = false;
    uint64_t ack_deadline = kNoDeadline;
  };

  /// Receiver wrapper registered with the base transport: runs the
  /// ack/dedup/reorder state machine, then forwards the surviving batch
  /// to the real receiver (preserving DeliverBatch combining).
  class Endpoint : public Receiver {
   public:
    Endpoint(ReliableNetwork* net, ProcessorId id, Receiver* real)
        : net_(net), id_(id), real_(real) {}
    void Deliver(Message m) override;
    void DeliverBatch(std::vector<Message>& batch) override;
    void OnInboxDrained() override { real_->OnInboxDrained(); }

   private:
    ReliableNetwork* net_;
    ProcessorId id_;
    Receiver* real_;
  };

  void EnsureChannels();
  size_t Index(ProcessorId from, ProcessorId to) const {
    return static_cast<size_t>(from) * num_processors_ + to;
  }

  uint64_t NowUs() const;
  uint64_t BackoffUs(ProcessorId from, ProcessorId to,
                     uint32_t retries) const;
  uint64_t NextDeadlineLocked() const;
  /// Fires every timer due at `now`. Appends outgoing frames to `sends`
  /// and dead links to `downs`; the caller dispatches both after
  /// releasing the lock.
  void FireDueLocked(uint64_t now, std::vector<Message>* sends,
                     std::vector<std::pair<ProcessorId, ProcessorId>>* downs);
  bool AllSettledLocked() const;
  /// Stamps the cumulative ack for `to -> from` onto an outgoing
  /// `from -> to` frame, clearing any pending delayed ack.
  void AttachAckLocked(Message* m);
  void ProcessBatch(ProcessorId id, std::vector<Message>& in,
                    std::vector<Message>* out);
  void DispatchDowns(
      const std::vector<std::pair<ProcessorId, ProcessorId>>& downs);
  void TimerLoop();
  void WakeTimerLocked();

  Network* base_;
  ReliabilityOptions options_;
  LinkDownFn on_link_down_;

  std::once_flag channels_once_;
  size_t num_processors_ = 0;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;

  mutable std::mutex mu_;
  std::vector<TxChannel> tx_;
  std::vector<RxChannel> rx_;
  uint64_t virtual_now_us_ = 0;
  bool any_link_down_ = false;
  bool stopped_ = false;

  // Real-timer machinery (options_.real_timers only).
  std::thread timer_thread_;
  std::condition_variable timer_cv_;
  std::condition_variable settled_cv_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_RELIABLE_H_
