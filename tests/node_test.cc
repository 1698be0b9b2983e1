// Node and NodeStore unit tests: range logic, half-splits, snapshot
// round trips, overflow buckets, closest-node recovery, forwarding.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/node/node.h"
#include "src/node/node_store.h"

namespace lazytree {
namespace {

NodeId Id(uint32_t seq) { return NodeId::Make(0, seq); }

TEST(KeyRange, ContainsAndEmpty) {
  KeyRange r{10, 20};
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(19));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9));
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE((KeyRange{5, 5}).Empty());
  EXPECT_EQ((KeyRange{0, kKeyInfinity}).ToString(), "[0,inf)");
}

TEST(NodeIdPacking, RoundTrip) {
  NodeId id = NodeId::Make(7, 42);
  EXPECT_EQ(id.creator(), 7u);
  EXPECT_EQ(id.seq(), 42u);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(kInvalidNode.valid());
  EXPECT_EQ(id.ToString(), "n7.42");
}

TEST(Node, LeafInsertFindAndDuplicates) {
  Node leaf(Id(1), 0, KeyRange{0, kKeyInfinity}, /*track=*/true);
  EXPECT_TRUE(leaf.Insert(10, 100));
  EXPECT_TRUE(leaf.Insert(5, 50));
  EXPECT_TRUE(leaf.Insert(20, 200));
  EXPECT_FALSE(leaf.Insert(10, 999)) << "dup rejected";
  EXPECT_EQ(*leaf.Find(10), 100u) << "value unchanged";
  EXPECT_TRUE(leaf.Insert(10, 999, /*upsert=*/false) == false);
  EXPECT_FALSE(leaf.Insert(10, 999, /*upsert=*/true));
  EXPECT_EQ(*leaf.Find(10), 999u) << "upsert overwrote";
  EXPECT_FALSE(leaf.Find(11).has_value());
  EXPECT_EQ(leaf.size(), 3u);
  // Entries stay sorted.
  EXPECT_EQ(leaf.entries()[0].key, 5u);
  EXPECT_EQ(leaf.entries()[2].key, 20u);
}

TEST(Node, InteriorRouting) {
  Node interior(Id(2), 1, KeyRange{0, kKeyInfinity}, false);
  interior.Insert(0, Id(10).v);
  interior.Insert(100, Id(11).v);
  interior.Insert(200, Id(12).v);
  EXPECT_EQ(interior.ChildFor(0), Id(10));
  EXPECT_EQ(interior.ChildFor(99), Id(10));
  EXPECT_EQ(interior.ChildFor(100), Id(11));
  EXPECT_EQ(interior.ChildFor(150), Id(11));
  EXPECT_EQ(interior.ChildFor(5000), Id(12));
}

TEST(Node, HalfSplitMovesUpperHalfAndLinks) {
  Node n(Id(3), 0, KeyRange{0, 1000}, true);
  n.set_right(Id(99), 1000);
  for (Key k = 10; k <= 80; k += 10) n.Insert(k, k);
  n.NoteApplied(555);
  Node::SplitResult split = n.HalfSplit(Id(4));

  EXPECT_EQ(split.sep, 50u);
  EXPECT_EQ(n.range().high, 50u);
  EXPECT_EQ(n.right(), Id(4));
  EXPECT_EQ(n.right_low(), 50u);
  EXPECT_EQ(n.size(), 4u);

  const NodeSnapshot& sib = split.sibling;
  EXPECT_EQ(sib.range.low, 50u);
  EXPECT_EQ(sib.range.high, 1000u);
  EXPECT_EQ(sib.right, Id(99));
  EXPECT_EQ(sib.right_low, 1000u);
  EXPECT_EQ(sib.left, Id(3));
  EXPECT_EQ(sib.entries.size(), 4u);
  EXPECT_EQ(sib.version, n.version() + 1);
  ASSERT_EQ(sib.applied_updates.size(), 1u)
      << "sibling inherits the backwards extension";
  EXPECT_EQ(sib.applied_updates[0], 555u);
}

TEST(Node, ApplySplitDiscardsMovedEntries) {
  Node copy(Id(5), 0, KeyRange{0, 1000}, false);
  for (Key k = 10; k <= 80; k += 10) copy.Insert(k, k);
  copy.ApplySplit(50, Id(6));
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy.range().high, 50u);
  EXPECT_EQ(copy.right(), Id(6));
  for (const Entry& e : copy.entries()) EXPECT_LT(e.key, 50u);
}

TEST(Node, OverflowBucketSemantics) {
  // Copies are maintained serially, so exceeding capacity is fine (§4.1:
  // "it is a simple matter to add overflow blocks").
  Node n(Id(7), 0, KeyRange{0, kKeyInfinity}, false);
  for (Key k = 1; k <= 20; ++k) n.Insert(k, k);
  EXPECT_TRUE(n.Overflowing(8));
  EXPECT_FALSE(n.Overflowing(20));
  EXPECT_EQ(n.size(), 20u);
}

TEST(Node, SnapshotRoundTripPreservesEverything) {
  Node n(Id(8), 2, KeyRange{100, 900}, true);
  n.set_right(Id(9), 900);
  n.set_left(Id(7));
  n.set_parent(Id(1));
  n.set_copies({0, 1, 2}, 1);
  n.set_version(5);
  n.set_link_version(LinkKind::kLeft, 3);
  n.Insert(100, Id(20).v);
  n.Insert(500, Id(21).v);
  n.NoteApplied(77);

  Node copy(n.ToSnapshot(), true);
  EXPECT_EQ(copy.id(), n.id());
  EXPECT_EQ(copy.level(), 2);
  EXPECT_EQ(copy.range(), n.range());
  EXPECT_EQ(copy.right(), Id(9));
  EXPECT_EQ(copy.left(), Id(7));
  EXPECT_EQ(copy.parent(), Id(1));
  EXPECT_EQ(copy.copies(), n.copies());
  EXPECT_EQ(copy.pc(), 1u);
  EXPECT_EQ(copy.version(), 5u);
  EXPECT_EQ(copy.link_version(LinkKind::kLeft), 3u);
  EXPECT_EQ(copy.entries(), n.entries());
  EXPECT_TRUE(copy.HasApplied(77));
  EXPECT_FALSE(copy.HasApplied(78));
}

TEST(Node, CopyMembership) {
  Node n(Id(10), 1, KeyRange{}, false);
  n.set_copies({0, 1}, 0);
  EXPECT_TRUE(n.HasCopy(1));
  EXPECT_FALSE(n.HasCopy(2));
  n.AddCopy(2);
  n.AddCopy(2);  // idempotent
  EXPECT_EQ(n.copies().size(), 3u);
  n.RemoveCopy(1);
  EXPECT_FALSE(n.HasCopy(1));
  EXPECT_EQ(n.copies().size(), 2u);
}

TEST(NodeStore, InstallGetRemove) {
  NodeStore store(/*creators=*/1);
  store.Install(std::make_unique<Node>(Id(1), 0, KeyRange{}, false));
  EXPECT_NE(store.Get(Id(1)), nullptr);
  EXPECT_EQ(store.Get(Id(2)), nullptr);
  EXPECT_EQ(store.size(), 1u);
  store.Remove(Id(1));
  EXPECT_EQ(store.Get(Id(1)), nullptr);
  EXPECT_EQ(store.size(), 0u);
}

std::unique_ptr<Node> Copy(NodeId id) {
  return std::make_unique<Node>(id, 0, KeyRange{}, false);
}

TEST(NodeStore, GetUnknownCreatorOrSeqIsNull) {
  NodeStore store(/*creators=*/4);
  store.Install(Copy(NodeId::Make(1, 3)));
  EXPECT_NE(store.Get(NodeId::Make(1, 3)), nullptr);
  EXPECT_EQ(store.Get(NodeId::Make(1, 2)), nullptr) << "hole in the row";
  EXPECT_EQ(store.Get(NodeId::Make(1, 4)), nullptr) << "seq past the row";
  EXPECT_EQ(store.Get(NodeId::Make(2, 3)), nullptr) << "empty row";
  EXPECT_EQ(store.Get(NodeId::Make(4, 3)), nullptr) << "creator past bound";
  EXPECT_EQ(store.Get(NodeId{~0ull}), nullptr);
  EXPECT_EQ(std::as_const(store).Get(NodeId::Make(9, 1)), nullptr);
}

TEST(NodeStore, RemoveThenReinstall) {
  NodeStore store(/*creators=*/2);
  store.Install(Copy(NodeId::Make(1, 5)));
  store.Remove(NodeId::Make(1, 5));
  EXPECT_EQ(store.Get(NodeId::Make(1, 5)), nullptr);
  Node* again = store.Install(Copy(NodeId::Make(1, 5)));
  EXPECT_EQ(store.Get(NodeId::Make(1, 5)), again);
  EXPECT_EQ(store.size(), 1u);
}

TEST(NodeStore, SizeTracksInstallRemoveAndReset) {
  NodeStore store(/*creators=*/3);
  store.Install(Copy(NodeId::Make(0, 1)));
  store.Install(Copy(NodeId::Make(2, 7)));
  store.Install(Copy(NodeId::Make(2, 1)));
  EXPECT_EQ(store.size(), 3u);
  store.Install(Copy(NodeId::Make(2, 7)));  // replaces: no new copy
  EXPECT_EQ(store.size(), 3u);
  store.Remove(NodeId::Make(2, 7));
  EXPECT_EQ(store.size(), 2u);
  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Get(NodeId::Make(0, 1)), nullptr);
  store.Install(Copy(NodeId::Make(2, 1)));
  EXPECT_EQ(store.size(), 1u);
}

TEST(NodeStore, ForEachVisitsInCreatorSeqOrder) {
  NodeStore store(/*creators=*/4);
  const NodeId installs[] = {NodeId::Make(3, 1), NodeId::Make(0, 9),
                             NodeId::Make(2, 4), NodeId::Make(0, 2),
                             NodeId::Make(2, 1), NodeId::Make(3, 12)};
  for (NodeId id : installs) store.Install(Copy(id));
  store.Remove(NodeId::Make(2, 4));
  std::vector<NodeId> seen;
  store.ForEach([&](const Node& n) { seen.push_back(n.id()); });
  EXPECT_EQ(seen, (std::vector<NodeId>{NodeId::Make(0, 2), NodeId::Make(0, 9),
                                       NodeId::Make(2, 1), NodeId::Make(3, 1),
                                       NodeId::Make(3, 12)}));
}

TEST(NodeStoreDeathTest, InstallRejectsCreatorOutOfRange) {
  NodeStore store(/*creators=*/2);
  EXPECT_DEATH(store.Install(Copy(NodeId::Make(2, 1))), "out of range");
}

TEST(NodeStore, ForwardingAddressesAndGC) {
  NodeStore store(/*creators=*/1);
  store.Install(std::make_unique<Node>(Id(1), 0, KeyRange{}, false));
  store.Remove(Id(1), /*forward_to=*/3);
  EXPECT_EQ(store.Forwarding(Id(1)), 3u);
  EXPECT_EQ(store.ForwardingCount(), 1u);
  // Reinstalling clears the stale forward.
  store.Install(std::make_unique<Node>(Id(1), 0, KeyRange{}, false));
  EXPECT_EQ(store.Forwarding(Id(1)), kInvalidProcessor);
  store.Remove(Id(1), 2);
  store.DropForwardingAddresses();
  EXPECT_EQ(store.Forwarding(Id(1)), kInvalidProcessor);
}

TEST(NodeStore, RootHintIsLevelOrdered) {
  NodeStore store(/*creators=*/1);
  store.SetRootHint(Id(1), 1);
  store.SetRootHint(Id(2), 3);
  store.SetRootHint(Id(3), 2);  // lower: ignored
  EXPECT_EQ(store.root_hint(), Id(2));
  EXPECT_EQ(store.root_level(), 3);
}

TEST(NodeStore, ClosestPrefersLowestUsableLevel) {
  NodeStore store(/*creators=*/1);
  // Level 2 spans everything; level 1 has [0,500) and [500,1000);
  // level 0 has [0,100).
  auto mk = [&](uint32_t seq, int32_t level, Key low, Key high) {
    auto n = std::make_unique<Node>(Id(seq), level, KeyRange{low, high},
                                    false);
    store.Install(std::move(n));
  };
  mk(1, 2, 0, kKeyInfinity);
  mk(2, 1, 0, 500);
  mk(3, 1, 500, 1000);
  mk(4, 0, 0, 100);
  store.SetRootHint(Id(1), 2);

  // Key 50 at level 0: the leaf itself.
  EXPECT_EQ(store.Closest(50, 0)->id(), Id(4));
  // Key 700 at level 0: no leaf; best start is level-1 [500,1000).
  EXPECT_EQ(store.Closest(700, 0)->id(), Id(3));
  // Key 700 at level 1 wants a level>=1 node with low <= 700.
  EXPECT_EQ(store.Closest(700, 1)->id(), Id(3));
  // Level 2 target: only the top qualifies.
  EXPECT_EQ(store.Closest(700, 2)->id(), Id(1));
  // Nothing usable (low > key at every level >= 3): falls back to root.
  EXPECT_EQ(store.Closest(5, 3)->id(), Id(1));
}

}  // namespace
}  // namespace lazytree
