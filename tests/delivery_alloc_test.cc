// Heap allocations per sim delivery. A delivery's steady state should pay
// for the outgoing message's action vector and the decoded message's
// action vector, and nothing else: payload-free actions carry no
// out-of-line payload, and SimNetwork reuses encoded-byte buffers. With
// reliable links on, a frame moves into the sender's log and the sim
// encodes the logged frame in place, so reliability adds only the log's
// occasional deque block (2.11 per delivery measured).
//
// Its own binary because it replaces the global operator new/delete with
// counting versions.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/net/sim_network.h"
#include "src/server/links.h"

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

// The same bouncer behind reliable links: each frame is accepted by the
// receiver's links, and each reply is stamped, logged and sent by the
// sender's and carries the ack that retires the frame it answers.
class LinkedBouncer : public net::Receiver {
 public:
  LinkedBouncer(Links* links, ProcessorId self) : links_(links), self_(self) {}

  void Deliver(Message m) override {
    ASSERT_TRUE(links_->Accept(m));
    ASSERT_TRUE(links_->released().empty());
    ASSERT_EQ(m.actions.size(), 1u);
    Action& a = m.actions.front();
    ASSERT_FALSE(a.has_payload());
    ++a.hops;
    a.key += 7;
    ASSERT_TRUE(links_->Send(Message(self_, m.from, std::move(a))));
  }

 private:
  Links* links_;
  ProcessorId self_;
};

Message SearchFrom0(uint64_t i) {
  Action a;
  a.kind = ActionKind::kSearch;
  a.target = NodeId::Make(1, 3);
  a.op = MakeOpId(0, static_cast<uint32_t>(i + 1));
  a.key = 1000 * i;
  a.origin = 0;
  return Message(0, 1, std::move(a));
}

/// Steps `network` through a warm-up, then returns the allocations per
/// delivery over the next 10000 deliveries.
double AllocationsPerDelivery(net::SimNetwork& network) {
  for (int i = 0; i < 1000; ++i) {
    if (!network.Step()) return -1;  // warm-up
  }
  constexpr uint64_t kDeliveries = 10000;
  const uint64_t delivered_before = network.delivered();
  g_allocations = 0;
  g_counting = true;
  for (uint64_t i = 0; i < kDeliveries; ++i) {
    if (!network.Step()) break;
  }
  g_counting = false;
  if (network.delivered() - delivered_before != kDeliveries) return -1;
  return static_cast<double>(g_allocations) / kDeliveries;
}

TEST(DeliveryAlloc, AtMostTwoAllocationsPerDelivery) {
  net::SimNetwork network(/*seed=*/5);
  network.EnableLatency(/*base_us=*/10, /*jitter_us=*/5);
  Bouncer p0(&network, 0), p1(&network, 1);
  network.Register(0, &p0);
  network.Register(1, &p1);
  // A few messages in flight at once, so the timeline heap and the byte
  // free list both see more than one buffer.
  for (uint64_t i = 0; i < 4; ++i) network.Send(SearchFrom0(i));
  const double per_delivery = AllocationsPerDelivery(network);
  ASSERT_GE(per_delivery, 0) << "the bouncers stopped";
  EXPECT_LE(per_delivery, 2.0) << per_delivery << " allocations per delivery";
}

// Reliable delivery may add at most one allocation per remote delivery
// (the log copy, where a transport copies); on the sim it adds only the
// log's deque blocks. The
// ReliableNetwork decorator that the links replaced paid 5.11 here (two
// per-delivery batch vectors, deque blocks and the window copy).
TEST(DeliveryAlloc, AtMostThreeAllocationsPerReliableDelivery) {
  net::SimNetwork network(/*seed=*/5);
  network.EnableLatency(/*base_us=*/10, /*jitter_us=*/5);
  LinkClock clock(/*real=*/false);
  Links links0(0, 2, &network, ReliabilityOptions{}, &clock);
  Links links1(1, 2, &network, ReliabilityOptions{}, &clock);
  LinkedBouncer p0(&links0, 0), p1(&links1, 1);
  network.Register(0, &p0);
  network.Register(1, &p1);
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(links0.Send(SearchFrom0(i)));
  const double per_delivery = AllocationsPerDelivery(network);
  ASSERT_GE(per_delivery, 0) << "the bouncers stopped";
  EXPECT_LE(per_delivery, 3.0) << per_delivery << " allocations per delivery";
  // Every reply acked the frame it answered: each of the 4 chains holds
  // at most its frame in flight and the frame that one answers.
  EXPECT_LE(links0.Unacked() + links1.Unacked(), 8u);
}

}  // namespace
}  // namespace lazytree
