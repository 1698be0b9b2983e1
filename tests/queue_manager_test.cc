// QueueManager unit tests (src/server/queue_manager.h).
//
// The op combiner sits between every protocol handler and the network, so
// its routing rules are load-bearing for both correctness and the perf
// numbers: nested scopes must flush exactly once at the outermost close,
// an empty scope must send nothing, ownership must hand off cleanly
// between consecutive batches (including across threads, as when the
// worker pool recycles), and the per-(from,to) FIFO contract must survive
// combined flushes interleaved with direct sends from other threads. The
// same buffer holds relayed updates for piggybacking: they wait for direct
// traffic or the window, and leave when the sim settles or a thread
// transport worker's inbox drains.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/net/sim_network.h"
#include "src/server/queue_manager.h"

namespace lazytree {
namespace {

/// Records every Send in arrival order; no delivery, no threads.
class RecordingNetwork : public net::Network {
 public:
  void Register(ProcessorId, net::Receiver*) override {}
  ProcessorId size() const override { return 4; }
  void Send(Message m) override { sent.push_back(std::move(m)); }
  void Start() override {}
  void Stop() override {}
  bool WaitQuiescent(std::chrono::milliseconds) override { return true; }

  std::vector<Message> sent;
};

Action SearchFor(uint64_t key) {
  Action a;
  a.kind = ActionKind::kSearch;
  a.key = key;
  return a;
}

Action RelayedAction(Key k) {
  Action a;
  a.kind = ActionKind::kRelayedInsert;
  a.key = k;
  return a;
}

/// Sim-side sink: every delivered action's key, in delivery order.
class Recorder : public net::Receiver {
 public:
  void Deliver(Message m) override {
    for (const Action& a : m.actions) keys.push_back(a.key);
  }
  std::vector<Key> keys;
};

// Nested Begin/EndCombine: only the outermost EndCombine flushes, and the
// inner scopes' actions ride in the same per-destination message.
TEST(QueueManager, NestedCombineScopesFlushOnceAtOutermostClose) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();  // batch scope
  qm.SendAction(1, SearchFor(10));
  qm.BeginCombine();  // per-message scope
  qm.SendAction(1, SearchFor(11));
  qm.SendAction(2, SearchFor(12));
  qm.EndCombine();
  EXPECT_TRUE(net.sent.empty()) << "inner close must not flush";
  qm.SendAction(2, SearchFor(13));
  qm.EndCombine();

  ASSERT_EQ(net.sent.size(), 2u);  // one message per destination
  EXPECT_EQ(net.sent[0].to, 1u);   // first-touch order: dest 1 before 2
  ASSERT_EQ(net.sent[0].actions.size(), 2u);
  EXPECT_EQ(net.sent[0].actions[0].key, 10u);
  EXPECT_EQ(net.sent[0].actions[1].key, 11u);
  EXPECT_EQ(net.sent[1].to, 2u);
  ASSERT_EQ(net.sent[1].actions.size(), 2u);
  EXPECT_EQ(net.sent[1].actions[0].key, 12u);
  EXPECT_EQ(net.sent[1].actions[1].key, 13u);
  EXPECT_EQ(net.stats().Snapshot().combined_actions, 2u)
      << "4 actions in 2 messages = 2 combined";
}

// A combine scope that buffered nothing must close silently: no empty
// messages on the wire, no combining stats.
TEST(QueueManager, FlushWithZeroBufferedActionsSendsNothing) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.EndCombine();

  EXPECT_TRUE(net.sent.empty());
  EXPECT_EQ(net.stats().Snapshot().combined_actions, 0u);

  // And the manager still works normally afterwards.
  qm.SendAction(3, SearchFor(7));
  ASSERT_EQ(net.sent.size(), 1u);
  EXPECT_EQ(net.sent[0].to, 3u);
}

// Consecutive batches, each owned by a different thread (as when a worker
// pool hands the processor to another worker): the scope owner must hand
// off so the second batch combines for its own thread, and each batch
// flushes its own actions exactly once.
TEST(QueueManager, OwnerThreadHandoffAcrossConsecutiveBatches) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  auto run_batch = [&](uint64_t base) {
    qm.BeginCombine();
    qm.SendAction(1, SearchFor(base));
    qm.SendAction(1, SearchFor(base + 1));
    qm.EndCombine();
  };

  std::thread first([&] { run_batch(100); });
  first.join();
  std::thread second([&] { run_batch(200); });
  second.join();

  ASSERT_EQ(net.sent.size(), 2u);
  ASSERT_EQ(net.sent[0].actions.size(), 2u);
  EXPECT_EQ(net.sent[0].actions[0].key, 100u);
  ASSERT_EQ(net.sent[1].actions.size(), 2u);
  EXPECT_EQ(net.sent[1].actions[0].key, 200u);
}

// After EndCombine resets the owner, the same thread's sends go direct
// again — the combining path must not leak past the scope.
TEST(QueueManager, SendsGoDirectOutsideScope) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.SendAction(1, SearchFor(1));
  qm.EndCombine();
  qm.SendAction(1, SearchFor(2));
  qm.SendAction(1, SearchFor(3));

  ASSERT_EQ(net.sent.size(), 3u);
  EXPECT_EQ(net.sent[0].actions.size(), 1u);  // the flushed scope
  EXPECT_EQ(net.sent[1].actions.size(), 1u);  // direct
  EXPECT_EQ(net.sent[2].actions.size(), 1u);  // direct
}

// FIFO with a client thread interleaved: while the owner combines, a
// non-owner thread's SendAction must bypass the buffers (it can never
// match combine_owner_) and its message lands on the wire immediately —
// before the owner's flush. The owner's buffered actions still leave in
// submission order within their message, so per-sender order holds for
// both parties.
TEST(QueueManager, CombinedFlushInterleavedWithDirectSendsKeepsFifo) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.SendAction(1, SearchFor(10));  // buffered by the owner
  std::thread client([&] {
    qm.SendAction(1, SearchFor(99));  // direct: client is not the owner
  });
  client.join();
  qm.SendAction(1, SearchFor(11));  // buffered after the direct send
  qm.EndCombine();

  ASSERT_EQ(net.sent.size(), 2u);
  // The client's direct message hit the network first...
  ASSERT_EQ(net.sent[0].actions.size(), 1u);
  EXPECT_EQ(net.sent[0].actions[0].key, 99u);
  // ...and the owner's combined message preserves its submission order.
  ASSERT_EQ(net.sent[1].actions.size(), 2u);
  EXPECT_EQ(net.sent[1].actions[0].key, 10u);
  EXPECT_EQ(net.sent[1].actions[1].key, 11u);
}

// Broadcast inside a scope buffers per destination and skips self.
TEST(QueueManager, BroadcastInsideScopeBuffersPerDestinationSkippingSelf) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.Broadcast({0, 1, 2}, SearchFor(5));
  qm.Broadcast({1, 2}, SearchFor(6));
  qm.EndCombine();

  ASSERT_EQ(net.sent.size(), 2u);
  for (const Message& m : net.sent) {
    EXPECT_NE(m.to, 0u) << "self must be skipped";
    ASSERT_EQ(m.actions.size(), 2u);
    EXPECT_EQ(m.actions[0].key, 5u);
    EXPECT_EQ(m.actions[1].key, 6u);
  }
}

// Piggybacking: relays wait in the buffer until a direct action to the
// same destination takes them along, relays first.
TEST(QueueManager, PiggybackDefersRelaysUntilDirectTraffic) {
  net::SimNetwork base(1);
  Recorder r0, r1;
  base.Register(0, &r0);
  base.Register(1, &r1);
  QueueManager qm(/*self=*/0, &base, /*piggyback_window=*/16);
  for (Key k = 0; k < 5; ++k) qm.SendAction(1, RelayedAction(k));
  EXPECT_EQ(qm.held(), 5u);
  EXPECT_EQ(base.Pending(), 0u) << "relays held, not sent";
  // A direct action flushes the buffer onto itself, relays first.
  qm.SendAction(1, SearchFor(99));
  EXPECT_EQ(qm.held(), 0u);
  EXPECT_EQ(base.Pending(), 1u) << "one combined message";
  ASSERT_TRUE(base.WaitQuiescent(std::chrono::milliseconds(1000)));
  ASSERT_EQ(r1.keys.size(), 6u);
  for (Key k = 0; k < 5; ++k) EXPECT_EQ(r1.keys[k], k) << "relay order kept";
  EXPECT_EQ(r1.keys[5], 99u) << "direct action rides last";
}

TEST(QueueManager, PiggybackWindowForcesStandaloneFlush) {
  net::SimNetwork base(1);
  Recorder r0, r1;
  base.Register(0, &r0);
  base.Register(1, &r1);
  QueueManager qm(/*self=*/0, &base, /*piggyback_window=*/4);
  for (Key k = 0; k < 4; ++k) qm.SendAction(1, RelayedAction(k));
  EXPECT_EQ(qm.held(), 0u) << "window reached: flushed";
  EXPECT_EQ(base.Pending(), 1u);
}

// Settle flushes what the processors hold and drains until nothing is
// held, so relays stepped past by the sim still arrive.
TEST(QueueManager, SettleFlushesHeldRelays) {
  ClusterOptions o;
  o.processors = 3;
  o.protocol = ProtocolKind::kSyncSplit;
  o.tree.leaf_replication = 2;  // client inserts are relayed
  o.piggyback_window = 64;
  Cluster cluster(o);
  cluster.Start();
  for (Key k = 1; k <= 10; ++k) {
    cluster.InsertAsync(0, k, k, [](const OpResult&) {});
  }
  while (cluster.sim()->Step()) {
  }
  EXPECT_GT(cluster.HeldRelays(), 0u) << "the drained sim left relays held";
  ASSERT_TRUE(cluster.Settle());
  EXPECT_EQ(cluster.HeldRelays(), 0u);
  EXPECT_EQ(cluster.DumpLeaves().size(), 10u);
  EXPECT_TRUE(cluster.VerifyHistories().ok());
}

/// Counts delivered messages that processor `from` sent to a peer.
class RemoteSendCounter : public net::DeliveryObserver {
 public:
  explicit RemoteSendCounter(ProcessorId from) : from_(from) {}
  void OnDelivery(ProcessorId from, ProcessorId to,
                  net::DeliveryOutcome) override {
    if (from == from_ && to != from_) ++sent;
  }
  void OnCrash(ProcessorId) override {}
  void OnRestart(ProcessorId) override {}
  size_t sent = 0;

 private:
  ProcessorId from_;
};

// A fail-stop crash loses the queue manager's held relays with the rest of
// the processor's volatile state: the following Settle must not send them.
TEST(QueueManager, CrashDropsHeldRelays) {
  ClusterOptions o;
  o.processors = 3;
  o.protocol = ProtocolKind::kSyncSplit;
  o.tree.leaf_replication = 2;  // client inserts are relayed
  o.piggyback_window = 64;
  Cluster cluster(o);
  cluster.Start();
  for (Key k = 1; k <= 10; ++k) {
    cluster.InsertAsync(0, k, k, [](const OpResult&) {});
  }
  while (cluster.sim()->Step()) {
  }
  ASSERT_GT(cluster.processor(1).out().held(), 0u)
      << "the drained sim left relays held on p1";
  cluster.CrashProcessor(1);
  EXPECT_EQ(cluster.processor(1).out().held(), 0u);
  RemoteSendCounter p1_sends(1);
  cluster.sim()->SetObserver(&p1_sends);
  ASSERT_TRUE(cluster.Settle());
  cluster.sim()->SetObserver(nullptr);
  EXPECT_EQ(p1_sends.sent, 0u) << "a crashed processor sent its held relays";
  EXPECT_EQ(cluster.HeldRelays(), 0u);
}

TEST(QueueManager, PiggybackZeroWindowPassesThrough) {
  net::SimNetwork base(1);
  Recorder r0, r1;
  base.Register(0, &r0);
  base.Register(1, &r1);
  QueueManager qm(/*self=*/0, &base, /*piggyback_window=*/0);
  qm.SendAction(1, RelayedAction(1));
  EXPECT_EQ(base.Pending(), 1u);
}

// Inside a combine scope the window test runs when the scope closes: a
// scope that adds only relays to a destination leaves them held, and a
// later scope with direct traffic sends the older held relays first.
// Combining counts each scope's output to one destination as one message,
// held or not; piggybacking counts every relay that was held.
TEST(QueueManager, CombineScopeHoldsRelaysUntilMixedScope) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net, /*piggyback_window=*/16);

  qm.BeginCombine();
  qm.SendAction(1, RelayedAction(1));
  qm.SendAction(1, RelayedAction(2));
  qm.SendAction(2, SearchFor(3));
  qm.EndCombine();
  ASSERT_EQ(net.sent.size(), 1u) << "only the direct destination leaves";
  EXPECT_EQ(net.sent[0].to, 2u);
  EXPECT_EQ(qm.held(), 2u);

  qm.BeginCombine();
  qm.SendAction(1, RelayedAction(4));
  qm.SendAction(1, SearchFor(5));
  qm.EndCombine();
  ASSERT_EQ(net.sent.size(), 2u);
  EXPECT_EQ(qm.held(), 0u);
  const Message& m = net.sent[1];
  EXPECT_EQ(m.from, 0u);
  EXPECT_EQ(m.to, 1u);
  ASSERT_EQ(m.actions.size(), 4u);
  const Key expected[] = {1, 2, 4, 5};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m.actions[i].key, expected[i]) << "held relays first, in order";
  }
  const net::StatsSnapshot stats = net.stats().Snapshot();
  EXPECT_EQ(stats.piggybacked_actions, 2u);
  EXPECT_EQ(stats.combined_actions, 2u)
      << "3 actions in 2 messages, then 2 actions in 1";
}

// Thread transport: the worker flushes what its processor holds when its
// inbox drains, so WaitQuiescent alone (no Settle) returns with every
// relay delivered and nothing held.
TEST(QueueManager, ThreadWorkerFlushesHeldRelaysWhenInboxDrains) {
  ClusterOptions o;
  o.processors = 3;
  o.protocol = ProtocolKind::kSyncSplit;
  o.transport = TransportKind::kThreads;
  o.tree.leaf_replication = 2;  // client inserts are relayed
  o.piggyback_window = 100000;  // never reached: only the drain flushes
  Cluster cluster(o);
  cluster.Start();
  for (Key k = 1; k <= 200; ++k) {
    ASSERT_TRUE(cluster.Insert(static_cast<ProcessorId>(k % 3), k, k).ok());
  }
  ASSERT_TRUE(cluster.network().WaitQuiescent(std::chrono::seconds(30)));
  EXPECT_EQ(cluster.HeldRelays(), 0u);
  EXPECT_GT(cluster.NetStats().piggybacked_actions, 0u)
      << "relays were held at some point";
  EXPECT_EQ(cluster.DumpLeaves().size(), 200u);
  const history::CheckReport report = cluster.VerifyHistories();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace lazytree
