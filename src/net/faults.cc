#include "src/net/faults.h"

#include <chrono>
#include <utility>

#include "src/util/rng.h"

namespace lazytree::net {
namespace {

/// One uniform double in [0, 1) for fault decision `stream` of send
/// `index` on link (from, to). Pure function — this is what makes the
/// whole fault layer replayable.
double FaultUniform(uint64_t seed, ProcessorId from, ProcessorId to,
                    uint64_t index, uint64_t stream) {
  uint64_t state = seed;
  state ^= 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(from) + 1);
  state ^= 0xC2B2AE3D27D4EB4Full * (static_cast<uint64_t>(to) + 1);
  state ^= 0x165667B19E3779F9ull * (index + 1);
  state ^= 0x27D4EB2F165667C5ull * (stream + 1);
  uint64_t z = SplitMix64(state);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

constexpr uint64_t kDropStream = 0;
constexpr uint64_t kDupStream = 1;
constexpr uint64_t kReorderStream = 2;
constexpr uint64_t kDelayStream = 3;

}  // namespace

FaultyNetwork::FaultyNetwork(Network* base, FaultPlan plan)
    : base_(base), plan_(std::move(plan)) {}

void FaultyNetwork::Register(ProcessorId id, Receiver* receiver) {
  base_->Register(id, receiver);
}

ProcessorId FaultyNetwork::size() const { return base_->size(); }

void FaultyNetwork::Start() {
  // Links exist before any worker can send, so FlushHeld (client thread)
  // never reads the table while a worker's first Send builds it.
  EnsureLinks();
  base_->Start();
}

void FaultyNetwork::Stop() {
  // Held messages are dead at Stop — like messages on the wire when the
  // plug is pulled. Dropping them here (instead of sending into a stopping
  // base) keeps Stop non-blocking and accounting simple.
  base_->Stop();
}

void FaultyNetwork::EnsureLinks() {
  std::call_once(links_once_, [this] {
    num_processors_ = base_->size();
    links_.resize(num_processors_ * num_processors_);
    for (auto& l : links_) l = std::make_unique<Link>();
  });
}

bool FaultyNetwork::Partitioned(ProcessorId from, ProcessorId to,
                                uint64_t index) const {
  for (const FaultPlan::Partition& p : plan_.partitions) {
    const bool on_link = (p.a == from && p.b == to) ||
                         (p.a == to && p.b == from);
    if (on_link && index >= p.start && index < p.start + p.length) {
      return true;
    }
  }
  return false;
}

void FaultyNetwork::Send(Message m) {
  // Self-sends model in-process work, not network traffic; never fault
  // them (dropping one would wedge the processor's own pipeline, which no
  // real lossy link can do).
  if (m.from == m.to) {
    base_->Send(std::move(m));
    return;
  }
  EnsureLinks();
  Link& link = LinkFor(m.from, m.to);

  bool duplicate = false;
  Message swapped_out;
  bool have_swapped_out = false;
  {
    std::lock_guard<std::mutex> lock(link.mu);
    const uint64_t index = link.sends++;
    if (Partitioned(m.from, m.to, index)) {
      partitioned_.fetch_add(1, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // blackholed
    }
    const uint64_t seed = plan_.seed;
    if (plan_.drop > 0 &&
        FaultUniform(seed, m.from, m.to, index, kDropStream) < plan_.drop) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // vanished
    }
    if (plan_.delay > 0 &&
        FaultUniform(seed, m.from, m.to, index, kDelayStream) < plan_.delay) {
      delayed_.fetch_add(1, std::memory_order_relaxed);
      link.held.push_back(std::move(m));
      return;  // released by FlushHeld
    }
    if (plan_.reorder > 0 &&
        FaultUniform(seed, m.from, m.to, index, kReorderStream) <
            plan_.reorder &&
        !link.has_stash) {
      // Stash this message; it departs *after* the link's next send —
      // an adjacent swap, the minimal FIFO violation.
      reordered_.fetch_add(1, std::memory_order_relaxed);
      link.stash = std::move(m);
      link.has_stash = true;
      return;
    }
    if (link.has_stash) {
      swapped_out = std::move(link.stash);
      link.has_stash = false;
      have_swapped_out = true;
    }
    duplicate =
        plan_.duplicate > 0 &&
        FaultUniform(seed, m.from, m.to, index, kDupStream) < plan_.duplicate;
  }

  if (duplicate) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    base_->Send(m);  // copy out first, then the original below
  }
  base_->Send(std::move(m));
  if (have_swapped_out) base_->Send(std::move(swapped_out));
}

size_t FaultyNetwork::FlushHeld() {
  if (links_.empty()) return 0;
  size_t released = 0;
  for (auto& link_ptr : links_) {
    Link& link = *link_ptr;
    std::vector<Message> held;
    Message stash;
    bool have_stash = false;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      held.swap(link.held);
      if (link.has_stash) {
        stash = std::move(link.stash);
        link.has_stash = false;
        have_stash = true;
      }
    }
    for (Message& m : held) {
      base_->Send(std::move(m));
      ++released;
    }
    if (have_stash) {
      base_->Send(std::move(stash));
      ++released;
    }
  }
  return released;
}

bool FaultyNetwork::WaitQuiescent(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Held messages re-enter the base when flushed, so loop until a flush
  // releases nothing *and* the base reports quiescence.
  for (int i = 0; i < 1000; ++i) {
    const size_t released = FlushHeld();
    const auto now = std::chrono::steady_clock::now();
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (!base_->WaitQuiescent(remaining > std::chrono::milliseconds(0)
                                  ? remaining
                                  : std::chrono::milliseconds(0))) {
      return false;
    }
    if (released == 0) return true;
  }
  return false;
}

}  // namespace lazytree::net
