#include "src/net/thread_network.h"

#include "src/msg/wire.h"
#include "src/util/affinity.h"
#include "src/util/logging.h"

namespace lazytree::net {

ThreadNetwork::ThreadNetwork(Options options)
    : byte_stats_(options.byte_stats),
      pin_threads_(options.pin_threads),
      max_batch_(options.max_batch > 0 ? options.max_batch : 1) {}

ThreadNetwork::~ThreadNetwork() { Stop(); }

void ThreadNetwork::Register(ProcessorId id, Receiver* receiver) {
  LAZYTREE_CHECK(!started_.load(std::memory_order_acquire))
      << "register after Start";
  if (stations_.size() <= id) stations_.resize(id + 1);
  LAZYTREE_CHECK(stations_[id] == nullptr) << "double register p" << id;
  stations_[id] = std::make_unique<Station>();
  stations_[id]->id = id;
  stations_[id]->receiver = receiver;
}

ProcessorId ThreadNetwork::size() const {
  return static_cast<ProcessorId>(stations_.size());
}

void ThreadNetwork::Send(Message m) {
  LAZYTREE_CHECK(m.to < stations_.size() && stations_[m.to] != nullptr)
      << "send to unregistered p" << m.to;
  Station& station = *stations_[m.to];
  // Opt-in byte counts are exact even though no buffer is materialized;
  // self-sends are never counted as network bytes.
  stats_.OnSend(
      m, byte_stats_ && m.from != m.to ? wire::EncodedSize(m) : 0);
  Enqueue(station, std::move(m));
}

void ThreadNetwork::Post(ProcessorId p, Message m) {
  LAZYTREE_CHECK(p < stations_.size() && stations_[p] != nullptr)
      << "post to unregistered p" << p;
  Enqueue(*stations_[p], std::move(m));
}

void ThreadNetwork::Enqueue(Station& station, Message m) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (!station.inbox.Push(std::move(m))) {
    // Inbox closed during shutdown: account the message as handled.
    OnHandled(1);
  }
}

void ThreadNetwork::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return;
  }
  for (auto& station : stations_) {
    LAZYTREE_CHECK(station != nullptr) << "processor ids must be dense";
    station->worker = std::thread(&ThreadNetwork::WorkerLoop, this,
                                  station.get());
  }
}

void ThreadNetwork::WorkerLoop(Station* station) {
  // Pin only when there are cores to spread over: on a single-CPU host
  // (or a 1-CPU cgroup) pinning is a no-op scheduling-wise and skipping
  // it keeps strace/TSan logs quiet.
  if (pin_threads_ && AvailableCpus() > 1) {
    PinCurrentThreadToCpu(static_cast<unsigned>(station->id));
  }
  Receiver* receiver = station->receiver;
  std::vector<Message> batch;  // recycled across PopAll swaps
  bool armed = false;          // a timer's unit of in-flight work is held
  while (true) {
    uint64_t deadline = receiver->TimerDeadline();
    if (!station->inbox.PopAll(
            batch, max_batch_,
            deadline == kNoTimer
                ? std::chrono::steady_clock::time_point::max()
                : std::chrono::steady_clock::time_point(
                      std::chrono::microseconds(deadline)))) {
      break;
    }
    if (!batch.empty()) {
      receiver->DeliverBatch(batch);
      // Whatever the receiver still holds goes out before the batch
      // retires, so in-flight cannot reach zero with work held back.
      if (station->inbox.Drained()) receiver->OnInboxDrained();
    }
    deadline = receiver->TimerDeadline();
    // Timers fire only with the inbox drained: an ack already queued is
    // read before a retransmission timer can fire past it.
    if (deadline != kNoTimer && station->inbox.Drained()) {
      const uint64_t now = SteadyNowUs();
      if (now >= deadline) {
        receiver->OnTimer(now);
        deadline = receiver->TimerDeadline();
      }
    }
    // Take the timer's unit before retiring the batch, and give it back
    // with the batch, so in-flight never reads zero while one is armed.
    int64_t handled = static_cast<int64_t>(batch.size());
    if (deadline != kNoTimer && !armed) {
      inflight_.fetch_add(1, std::memory_order_relaxed);
      armed = true;
    } else if (deadline == kNoTimer && armed) {
      ++handled;
      armed = false;
    }
    if (handled > 0) OnHandled(handled);
  }
  if (armed) OnHandled(1);
}

void ThreadNetwork::OnHandled(int64_t n) {
  const int64_t prev = inflight_.fetch_sub(n, std::memory_order_acq_rel);
  LAZYTREE_CHECK(prev >= n) << "inflight underflow: " << prev << " - " << n;
  if (prev == n) {
    // Zero transition: sync with WaitQuiescent's predicate check.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_cv_.notify_all();
  }
}

void ThreadNetwork::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return;
  }
  for (auto& station : stations_) {
    if (station) station->inbox.Close();
  }
  for (auto& station : stations_) {
    if (station && station->worker.joinable()) station->worker.join();
  }
}

bool ThreadNetwork::WaitQuiescent(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  return inflight_cv_.wait_for(lock, timeout, [&] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace lazytree::net
