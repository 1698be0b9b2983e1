// QueueManager: the paper's per-processor message-queue component (§1.1).
//
// The node manager hands it subsequent actions; it routes each one to the
// processor storing the target copy — a self-send lands back in the local
// queue (the paper's "new entry is put into the message queue"), a remote
// send crosses the Network. Self-sends are counted as local messages, not
// network traffic.
//
// Outbound buffer. A message already carries a *vector* of actions (§1.1),
// so one Message buffer per destination does all of the batching:
//
//   * Op combining (TreeConfig::combine_ops). While the owning worker
//     thread is inside a delivery scope (BeginCombine/EndCombine, opened
//     by the Processor around Deliver/DeliverBatch), every outgoing action
//     is appended to its destination's buffer, and the outermost
//     EndCombine releases each touched destination as one message, in
//     first-touch order. A batch of searches crossing the same hot root
//     replica leaves as a single message instead of one message per op.
//   * Piggybacking (`piggyback_window` > 0): "the lazy update can be
//     piggybacked onto messages used for other purposes". When everything
//     a scope adds for a remote destination is relayed updates, which
//     commute, the buffer is held across deliveries instead of sent, until
//     it reaches `piggyback_window` actions and leaves as one message. Any
//     other action to that destination takes the held relays with it,
//     relays first. Self-sends are never held.
//
// Outside a scope an action is a scope of one: with piggybacking on it is
// held or sent at once; with it off it goes straight to the network. A
// buffer grows only at the back and leaves whole, so per-(from, to) FIFO
// holds.
//
// Reliable delivery (server/links.h): with links set, every remote
// message is stamped with its link's sequence number and the reverse
// direction's cumulative ack, and logged, as it leaves for the network.
// A buffer is stamped when it leaves, not when it fills, so the sequence
// order is the send order.
//
// Held relays leave only from the delivery side (FlushHeld): the thread
// transport calls it when a worker's inbox drains, before the batch counts
// as handled, so a quiescent network has nothing held; on the sim,
// Cluster::Settle calls it on every processor until nothing is held.
//
// Thread safety: Submit* enqueues client actions from arbitrary threads
// through SendLocal. A self-send outside the caller's own scope goes
// straight to the network, so client threads never touch the buffers.
// Only the network worker that opened the combine scope may buffer, so the
// routing decision keys on an atomic owner-thread id: client threads read
// `combine_owner_`, see "not me", and take the direct path. Remote sends
// come only from protocol code on the delivering thread, which owns the
// buffers.

#ifndef LAZYTREE_SERVER_QUEUE_MANAGER_H_
#define LAZYTREE_SERVER_QUEUE_MANAGER_H_

#include <atomic>
#include <thread>
#include <vector>

#include "src/net/transport.h"
#include "src/util/logging.h"

namespace lazytree {

class Links;

class QueueManager {
 public:
  /// `piggyback_window`: relayed actions held per remote destination
  /// before they leave as one message; 0 never holds.
  QueueManager(ProcessorId self, net::Network* network,
               size_t piggyback_window = 0)
      : self_(self), network_(network), window_(piggyback_window) {}

  ProcessorId self() const { return self_; }

  /// Routes one action to `dest` (which may be self_).
  void SendAction(ProcessorId dest, Action action) {
    if (CombiningHere()) {
      BufferAction(dest, std::move(action));
    } else if (window_ > 0 && dest != self_) {
      BufferAction(dest, std::move(action));
      Flush();
    } else {
      Transmit(Message(self_, dest, std::move(action)));
    }
  }

  /// Re-enqueues an action locally (deferred work, local hops).
  void SendLocal(Action action) { SendAction(self_, std::move(action)); }

  /// Sends a copy of `action` to every processor in `dests` except self.
  void Broadcast(const std::vector<ProcessorId>& dests, const Action& action) {
    for (ProcessorId d : dests) {
      if (d != self_) SendAction(d, action);
    }
  }

  /// Opens a combining scope owned by the calling thread. Nestable (a
  /// batch scope around per-message scopes); only the outermost
  /// EndCombine flushes. Must not be called while another thread owns a
  /// scope — the Processor only opens scopes from its (single) delivery
  /// thread, which the network serializes.
  void BeginCombine() {
    if (combine_depth_ == 0) {
      combine_owner_.store(std::this_thread::get_id(),
                           std::memory_order_release);
    }
    ++combine_depth_;
  }

  /// Closes the scope; the outermost close releases every destination the
  /// scope touched (first-touch order): one message each, or held.
  void EndCombine() {
    LAZYTREE_CHECK(combine_depth_ > 0) << "unbalanced EndCombine";
    if (--combine_depth_ > 0) return;
    combine_owner_.store(std::thread::id(), std::memory_order_release);
    Flush();
  }

  /// Sends every destination's held relays, one message each, in
  /// ascending destination order. Delivering thread only, outside any
  /// scope.
  void FlushHeld();

  /// Discards every buffer unsent, held relays included: a fail-stop
  /// crash loses the processor's volatile outbound state. Delivering
  /// thread only, outside any scope.
  void DropBuffers();

  /// Relayed actions held for a later message, over all destinations.
  /// Read it on the delivering thread or at quiescence.
  size_t held() const { return held_; }

  net::Network* network() { return network_; }

  /// Stamps and logs every remote message on `links` from now on (null:
  /// reliable delivery off). Set before the network starts.
  void SetLinks(Links* links) { links_ = links; }

 private:
  // One destination's buffer: its first `held` actions are relays held
  // from earlier scopes, the rest were added by the open scope.
  struct Outbox {
    Message msg;
    size_t held = 0;
    bool direct = false;  // the open scope added an action it cannot hold
  };

  bool CombiningHere() const {
    // Owner-thread check doubles as the "is combining active" check:
    // client threads never match, and they must not, because the buffers
    // are owner-confined.
    return combine_owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  void BufferAction(ProcessorId dest, Action action) {
    if (boxes_.size() <= dest) boxes_.resize(dest + 1);
    Outbox& box = boxes_[dest];
    if (box.msg.actions.size() == box.held) {  // first touch this scope
      box.msg.from = self_;
      box.msg.to = dest;
      flush_order_.push_back(dest);
    }
    box.direct |= window_ == 0 || dest == self_ || !action.IsRelayed();
    box.msg.actions.push_back(std::move(action));
  }

  // Releases every destination the scope touched: an all-relay addition
  // stays held below the window, anything else sends the whole buffer.
  void Flush();
  void SendBuffer(Outbox& box);
  /// Hands `m` to the network, stamped when it crosses a reliable link;
  /// drops it when that link is down.
  void Transmit(Message m) {
    if (links_ != nullptr && m.to != self_) {
      SendLinked(std::move(m));
    } else {
      network_->Send(std::move(m));
    }
  }
  void SendLinked(Message m);

  ProcessorId self_;
  net::Network* network_;
  size_t window_;
  Links* links_ = nullptr;

  // `combine_owner_` is the only field other threads read; depth and
  // buffers belong to the delivering thread.
  std::atomic<std::thread::id> combine_owner_{};
  int combine_depth_ = 0;
  std::vector<Outbox> boxes_;             // indexed by destination
  std::vector<ProcessorId> flush_order_;  // first-touch destinations
  size_t held_ = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_SERVER_QUEUE_MANAGER_H_
