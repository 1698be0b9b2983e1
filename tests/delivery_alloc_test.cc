// Heap allocations per sim delivery. A delivery's steady state should pay
// for the outgoing message's action vector and the decoded message's
// action vector, and nothing else: payload-free actions carry no
// out-of-line payload, and SimNetwork reuses encoded-byte buffers.
//
// Its own binary because it replaces the global operator new/delete with
// counting versions.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/net/sim_network.h"

namespace {

// Counted only while `g_counting` is set; the test is single-threaded.
bool g_counting = false;
uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lazytree {
namespace {

// Sends every message it receives back to its sender as a new one-action
// message, the way a queue manager sends a subsequent action.
class Bouncer : public net::Receiver {
 public:
  Bouncer(net::SimNetwork* network, ProcessorId self)
      : network_(network), self_(self) {}

  void Deliver(Message m) override {
    ASSERT_EQ(m.actions.size(), 1u);
    Action& a = m.actions.front();
    ASSERT_FALSE(a.has_payload());
    ++a.hops;
    a.key += 7;
    network_->Send(Message(self_, m.from, std::move(a)));
  }

 private:
  net::SimNetwork* network_;
  ProcessorId self_;
};

TEST(DeliveryAlloc, AtMostTwoAllocationsPerDelivery) {
  net::SimNetwork network(/*seed=*/5);
  network.EnableLatency(/*base_us=*/10, /*jitter_us=*/5);
  Bouncer p0(&network, 0), p1(&network, 1);
  network.Register(0, &p0);
  network.Register(1, &p1);
  // A few messages in flight at once, so the timeline heap and the byte
  // free list both see more than one buffer.
  for (uint64_t i = 0; i < 4; ++i) {
    Action a;
    a.kind = ActionKind::kSearch;
    a.target = NodeId::Make(1, 3);
    a.op = MakeOpId(0, static_cast<uint32_t>(i + 1));
    a.key = 1000 * i;
    a.origin = 0;
    network.Send(Message(0, 1, std::move(a)));
  }
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(network.Step());  // warm-up

  constexpr uint64_t kDeliveries = 10000;
  const uint64_t delivered_before = network.delivered();
  g_allocations = 0;
  g_counting = true;
  for (uint64_t i = 0; i < kDeliveries; ++i) {
    if (!network.Step()) break;
  }
  g_counting = false;
  ASSERT_EQ(network.delivered() - delivered_before, kDeliveries);
  EXPECT_LE(g_allocations, 2 * kDeliveries)
      << static_cast<double>(g_allocations) / kDeliveries
      << " allocations per delivery";
}

}  // namespace
}  // namespace lazytree
