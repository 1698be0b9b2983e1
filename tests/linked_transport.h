// LinkedTransport: reliable links (server/links.h) around bare receivers.
//
// A Cluster's processors own their links; transport-level tests drive
// plain receivers instead, so this harness gives each registered receiver
// the same wiring a Processor has: its own Links, stamped on the way out
// and consulted before delivery, over an optional FaultyNetwork over the
// base transport. On the sim, WaitQuiescent pumps link timers on a
// virtual clock the way Cluster::Settle does; on threads each worker
// fires its own timers. A send from outside the sender's own delivery is
// posted to the sender's worker, which stamps and sends it, because a
// processor's links belong to its delivery thread.

#ifndef LAZYTREE_TESTS_LINKED_TRANSPORT_H_
#define LAZYTREE_TESTS_LINKED_TRANSPORT_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/net/faults.h"
#include "src/net/thread_network.h"
#include "src/server/links.h"

namespace lazytree {

class LinkedTransport : public net::Network {
 public:
  /// `base` is a SimNetwork or a ThreadNetwork; a fault plan, when
  /// given, sits between it and the links.
  LinkedTransport(std::unique_ptr<net::Network> base, bool threads,
                  const net::FaultPlan* plan = nullptr,
                  ReliabilityOptions options = {})
      : base_(std::move(base)),
        threads_(threads ? static_cast<net::ThreadNetwork*>(base_.get())
                         : nullptr),
        options_(options),
        clock_(/*real=*/threads) {
    below_ = base_.get();
    if (plan != nullptr) {
      faulty_ = std::make_unique<net::FaultyNetwork>(below_, *plan);
      below_ = faulty_.get();
    }
  }

  void Register(ProcessorId id, net::Receiver* receiver) override {
    if (endpoints_.size() <= id) endpoints_.resize(id + 1);
    endpoints_[id] = std::make_unique<Endpoint>(this, id, receiver);
    below_->Register(id, endpoints_[id].get());
  }
  ProcessorId size() const override { return below_->size(); }

  void Send(Message m) override {
    if (m.from == m.to) {
      below_->Send(std::move(m));  // self-sends stay unstamped
    } else if (threads_ != nullptr &&
               Endpoint::current != endpoints_[m.from].get()) {
      const ProcessorId from = m.from;
      threads_->Post(from, std::move(m));
    } else {
      endpoints_[m.from]->Transmit(std::move(m));
    }
  }

  void Start() override {
    links_.clear();
    for (auto& e : endpoints_) {
      e->links = std::make_unique<Links>(e->id, size(), below_, options_,
                                         &clock_);
      links_.push_back(e->links.get());
    }
    below_->Start();
  }
  void Stop() override { below_->Stop(); }

  bool WaitQuiescent(std::chrono::milliseconds timeout) override {
    if (threads_ != nullptr) return below_->WaitQuiescent(timeout);
    return DrainLinks(*below_, links_, clock_, NoteDown, timeout);
  }
  net::NetworkStats& stats() override { return below_->stats(); }

  /// Sim only: fires the earliest due link timers (virtual clock).
  bool Pump() { return PumpLinks(links_, clock_, NoteDown); }

  /// The links' clock, in µs (virtual on the sim).
  uint64_t Now() const { return clock_.Now(); }

  /// Frames awaiting an ack, over all links. Sim, or at quiescence.
  size_t Unacked() const {
    size_t total = 0;
    for (const Links* l : links_) total += l->Unacked();
    return total;
  }
  net::FaultyNetwork* faulty() { return faulty_.get(); }

 private:
  static void NoteDown(ProcessorId, ProcessorId) {}

  class Endpoint : public net::Receiver {
   public:
    Endpoint(LinkedTransport* net, ProcessorId self, net::Receiver* real)
        : net_(net), id(self), real_(real) {}

    void Deliver(Message m) override {
      if (m.to != id) {  // posted: send it from this delivery thread
        Transmit(std::move(m));
        return;
      }
      current = this;
      const bool remote = m.from != id;
      if (!remote || links->Accept(m)) {
        real_->Deliver(std::move(m));
        if (remote) {
          for (Message& next : links->released()) {
            real_->Deliver(std::move(next));
          }
        }
      }
      current = nullptr;
    }
    uint64_t TimerDeadline() const override { return links->NextDeadline(); }
    void OnTimer(uint64_t now_us) override {
      std::vector<ProcessorId> downs;
      links->FireDue(now_us, &downs);
    }

    void Transmit(Message m) { links->Send(std::move(m)); }

    /// The endpoint whose delivery is running on this thread.
    static inline thread_local const Endpoint* current = nullptr;

    LinkedTransport* net_;
    ProcessorId id;
    std::unique_ptr<Links> links;

   private:
    net::Receiver* real_;
  };

  std::unique_ptr<net::Network> base_;
  net::ThreadNetwork* threads_;
  std::unique_ptr<net::FaultyNetwork> faulty_;
  net::Network* below_;
  ReliabilityOptions options_;
  LinkClock clock_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<Links*> links_;
};

}  // namespace lazytree

#endif  // LAZYTREE_TESTS_LINKED_TRANSPORT_H_
