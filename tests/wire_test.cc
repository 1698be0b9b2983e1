// Wire-format tests: varints, action/snapshot/message round trips, the
// golden byte record, and rejection of malformed input.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/msg/wire.h"
#include "src/util/rng.h"

namespace lazytree {
namespace {

TEST(Wire, VarintRoundTripEdgeValues) {
  wire::Writer w;
  const uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                             1u << 20, ~0ull, 42,   0x8000000000000000ull};
  for (uint64_t v : values) w.PutVarint(v);
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  for (uint64_t v : values) EXPECT_EQ(r.Varint(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, TruncatedVarintFails) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // continuation, no end
  wire::Reader r(bytes);
  EXPECT_EQ(r.Varint(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().ok());
  // The failure is sticky: later reads return 0 and it stays latched.
  EXPECT_EQ(r.Fixed8(), 0u);
  EXPECT_FALSE(r.ok());
}

Action FullActionFixture() {
  Action a;
  a.kind = ActionKind::kRelayedSplit;
  a.target = NodeId::Make(3, 77);
  a.op = MakeOpId(2, 5);
  a.update = 991;
  a.key = 123456;
  a.value = 654321;
  a.found = true;
  a.rc = Action::Rc::kOk;
  a.version = 17;
  a.origin = 4;
  a.level = 2;
  a.hops = 9;
  a.new_node = NodeId::Make(1, 8);
  a.sep = 500;
  a.link = LinkKind::kLeft;
  a.mutable_members() = {0, 2, 5};
  NodeSnapshot& snap = a.mutable_snapshot();
  snap.id = NodeId::Make(9, 1);
  snap.level = 1;
  snap.range = {100, 900};
  snap.version = 3;
  snap.right = NodeId::Make(9, 2);
  snap.right_low = 900;
  snap.left = NodeId::Make(9, 3);
  snap.parent = NodeId::Make(9, 4);
  snap.link_versions[0] = 5;
  snap.link_versions[2] = 7;
  snap.entries = {{100, 11}, {200, 22}, {800, 33}};
  snap.copies = {1, 2, 3};
  snap.pc = 2;
  snap.applied_updates = {4, 9, 16};
  return a;
}

void ExpectActionsEqual(const Action& a, const Action& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.update, b.update);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.rc, b.rc);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.new_node, b.new_node);
  EXPECT_EQ(a.sep, b.sep);
  EXPECT_EQ(a.link, b.link);
  EXPECT_EQ(a.members(), b.members());
  EXPECT_EQ(a.range_results(), b.range_results());
  EXPECT_EQ(a.snapshot().id, b.snapshot().id);
  EXPECT_EQ(a.snapshot().level, b.snapshot().level);
  EXPECT_EQ(a.snapshot().range, b.snapshot().range);
  EXPECT_EQ(a.snapshot().version, b.snapshot().version);
  EXPECT_EQ(a.snapshot().right, b.snapshot().right);
  EXPECT_EQ(a.snapshot().right_low, b.snapshot().right_low);
  EXPECT_EQ(a.snapshot().left, b.snapshot().left);
  EXPECT_EQ(a.snapshot().parent, b.snapshot().parent);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.snapshot().link_versions[i], b.snapshot().link_versions[i]);
  }
  EXPECT_EQ(a.snapshot().entries, b.snapshot().entries);
  EXPECT_EQ(a.snapshot().copies, b.snapshot().copies);
  EXPECT_EQ(a.snapshot().pc, b.snapshot().pc);
  EXPECT_EQ(a.snapshot().applied_updates, b.snapshot().applied_updates);
}

TEST(Wire, MessageRoundTripFull) {
  Message m(1, 2, FullActionFixture());
  m.seq = 42;
  auto bytes = wire::EncodeMessage(m);
  auto decoded = wire::DecodeMessage(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->from, 1u);
  EXPECT_EQ(decoded->to, 2u);
  EXPECT_EQ(decoded->seq, 42u);
  ASSERT_EQ(decoded->actions.size(), 1u);
  ExpectActionsEqual(decoded->actions[0], m.actions[0]);
}

TEST(Wire, MessageRoundTripDefaults) {
  Action a;
  a.kind = ActionKind::kSearch;
  Message m(0, 0, a);
  auto decoded = wire::DecodeMessage(wire::EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->actions[0].kind, ActionKind::kSearch);
  EXPECT_EQ(decoded->actions[0].level, -1);
  EXPECT_EQ(decoded->actions[0].origin, kInvalidProcessor);
  EXPECT_FALSE(decoded->actions[0].snapshot().valid());
}

TEST(Wire, MultiActionMessage) {
  Message m;
  m.from = 3;
  m.to = 1;
  for (int i = 0; i < 5; ++i) {
    Action a;
    a.kind = ActionKind::kRelayedInsert;
    a.key = static_cast<Key>(i * 100);
    m.actions.push_back(a);
  }
  auto decoded = wire::DecodeMessage(wire::EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->actions.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(decoded->actions[i].key, static_cast<Key>(i * 100));
  }
}

TEST(Wire, RejectsUnknownKindAndTrailingBytes) {
  Message m(0, 1, Action{});
  m.actions[0].kind = ActionKind::kSearch;
  auto bytes = wire::EncodeMessage(m);
  // Find and corrupt the kind byte (first fixed8 after 4 varints).
  // Rather than byte surgery, decode-with-append: trailing garbage.
  auto with_garbage = bytes;
  with_garbage.push_back(0x01);
  EXPECT_FALSE(wire::DecodeMessage(with_garbage).ok());

  // Truncation at every prefix must fail, never crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(wire::DecodeMessage(prefix).ok()) << "cut=" << cut;
  }
}

// A corrupt element count must fail decoding, not throw from a giant
// resize or reserve: every element takes at least one byte, so a count
// above the bytes left is rejected.
TEST(Wire, CorruptCountsFailInsteadOfThrowing) {
  // Envelope whose action count is 2^62.
  const std::vector<uint8_t> huge_actions = {1,    2,    0,    0,    0,
                                             0x80, 0x80, 0x80, 0x80, 0x80,
                                             0x80, 0x80, 0x80, 0x40};
  EXPECT_FALSE(wire::DecodeMessage(huge_actions).ok());

  // One action whose `members` count is 2^40.
  wire::Writer w;
  for (uint64_t v : {1, 2, 0, 0}) w.PutVarint(v);  // from, to, seq, ack
  w.PutFixed8(0);                                   // flags
  w.PutVarint(1);                                   // one action
  w.PutFixed8(static_cast<uint8_t>(ActionKind::kSearch));
  for (int i = 0; i < 5; ++i) w.PutVarint(0);  // target .. value
  w.PutBool(false);                            // found
  w.PutFixed8(0);                              // rc
  for (int i = 0; i < 6; ++i) w.PutVarint(0);  // version .. sep
  w.PutFixed8(0);                              // link
  w.PutVarint(1ull << 40);                     // members
  EXPECT_FALSE(wire::DecodeMessage(w.Take()).ok());

  // A snapshot whose `entries` count is 2^40.
  wire::Writer snap;
  snap.PutBool(true);
  for (int i = 0; i < 9 + 3; ++i) snap.PutVarint(1);  // id .. link_versions
  snap.PutVarint(1ull << 40);                          // entries
  const std::vector<uint8_t> bytes = snap.Take();
  wire::Reader r(bytes);
  NodeSnapshot decoded;
  wire::DecodeSnapshot(r, decoded);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(decoded.entries.empty());
}

Action RandomAction(Rng& rng) {
  Action a;
  a.kind = static_cast<ActionKind>(
      1 + rng.Below(static_cast<uint64_t>(ActionKind::kMaxKind) - 1));
  a.target = NodeId{rng.Next()};
  a.op = rng.Next();
  a.update = rng.Next();
  a.key = rng.Below(kKeyInfinity);
  a.value = rng.Next();
  a.found = rng.Chance(0.5);
  a.rc = static_cast<Action::Rc>(rng.Below(4));
  a.version = rng.Next();
  if (rng.Chance(0.5)) a.origin = static_cast<ProcessorId>(rng.Below(64));
  a.level = static_cast<int32_t>(rng.Below(10)) - 1;
  a.hops = static_cast<uint32_t>(rng.Below(100));
  a.new_node = rng.Chance(0.5) ? NodeId{rng.Next()} : kInvalidNode;
  a.sep = rng.Next();
  a.link = static_cast<LinkKind>(rng.Below(3));
  for (uint64_t i = rng.Below(6); i > 0; --i) {
    a.mutable_members().push_back(static_cast<ProcessorId>(rng.Below(64)));
  }
  if (rng.Chance(0.2)) {
    Key k = 0;
    for (uint64_t i = rng.Below(30); i > 0; --i) {
      k += 1 + rng.Below(1000);
      a.mutable_range_results().push_back({k, rng.Next()});
    }
  }
  if (rng.Chance(0.3)) {
    NodeSnapshot& snap = a.mutable_snapshot();
    snap.id = NodeId{rng.Next() | 1};
    snap.level = static_cast<int32_t>(rng.Below(5));
    snap.range = {rng.Below(1000), 1000 + rng.Below(1000)};
    snap.version = rng.Next();
    snap.right = NodeId{rng.Next()};
    snap.right_low = rng.Next();
    snap.left = NodeId{rng.Next()};
    snap.parent = NodeId{rng.Next()};
    for (Version& v : snap.link_versions) v = rng.Below(1000);
    size_t entries = rng.Below(20);
    Key k = snap.range.low;
    for (size_t i = 0; i < entries; ++i) {
      k += 1 + rng.Below(50);
      snap.entries.push_back({k, rng.Next()});
    }
    for (uint64_t i = rng.Below(5); i > 0; --i) {
      snap.copies.push_back(static_cast<ProcessorId>(rng.Below(64)));
    }
    if (rng.Chance(0.7)) {
      snap.pc = static_cast<ProcessorId>(rng.Below(64));
    }
    for (uint64_t i = rng.Below(8); i > 0; --i) {
      snap.applied_updates.push_back(rng.Next());
    }
  }
  return a;
}

// The round-trip property the zero-copy transport relies on: the wire
// format is a *bijection* on the reachable message space, so the counting
// EncodedSize cannot drift from the codec. encode -> decode -> re-encode
// must be byte-identical, and
// EncodedSize must equal the materialized size, for arbitrary messages.
TEST(Wire, FuzzRoundTripReencodesByteIdentical) {
  Rng rng(2024);
  int payload_free = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    Message m;
    m.from = rng.Chance(0.9) ? static_cast<ProcessorId>(rng.Below(16))
                             : kInvalidProcessor;
    m.to = rng.Chance(0.9) ? static_cast<ProcessorId>(rng.Below(16))
                           : kInvalidProcessor;
    m.seq = rng.Next();
    for (uint64_t i = 1 + rng.Below(4); i > 0; --i) {
      m.actions.push_back(RandomAction(rng));
    }

    const std::vector<uint8_t> bytes = wire::EncodeMessage(m);
    EXPECT_EQ(wire::EncodedSize(m), bytes.size()) << "iter " << iter;

    auto decoded = wire::DecodeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->actions.size(), m.actions.size());
    for (size_t i = 0; i < m.actions.size(); ++i) {
      ExpectActionsEqual(decoded->actions[i], m.actions[i]);
      // A payload-free action decodes without allocating a payload.
      const Action& sent = m.actions[i];
      const bool carries = !sent.members().empty() ||
                           !sent.range_results().empty() ||
                           sent.snapshot().valid();
      EXPECT_EQ(decoded->actions[i].has_payload(), carries) << "iter " << iter;
      payload_free += carries ? 0 : 1;
    }

    const std::vector<uint8_t> reencoded = wire::EncodeMessage(*decoded);
    ASSERT_EQ(reencoded, bytes) << "re-encode not byte-identical, iter "
                                << iter;
  }
  EXPECT_GT(payload_free, 100);
}

// Payload setters: the golden set touches the out-of-line fields only here.
void SetMembers(Action& a, std::vector<ProcessorId> v) {
  a.mutable_members() = std::move(v);
}
NodeSnapshot& MutableSnapshot(Action& a) { return a.mutable_snapshot(); }
void SetRangeResults(Action& a, std::vector<Entry> v) {
  a.mutable_range_results() = std::move(v);
}

// The golden message set. Field values derive from the loop index so no two
// messages share bytes; payload fields are set only through the three
// helpers above it.
std::vector<Message> GoldenMessages() {
  std::vector<Message> out;
  const int kinds = static_cast<int>(ActionKind::kMaxKind);
  // Every kind once, with every scalar field set and no payload.
  for (int k = 1; k < kinds; ++k) {
    Action a;
    a.kind = static_cast<ActionKind>(k);
    a.target = NodeId::Make(static_cast<ProcessorId>(k % 4),
                            static_cast<uint32_t>(10 + k));
    a.op = MakeOpId(static_cast<ProcessorId>(k % 3), static_cast<uint32_t>(k));
    a.update = 1000 + static_cast<UpdateId>(k);
    a.key = static_cast<Key>(k) * 1000003ull;
    a.value = ~0ull - static_cast<Value>(k);
    a.found = k % 2 == 1;
    a.rc = static_cast<Action::Rc>(k % 4);
    a.version = static_cast<Version>(k) * 7;
    a.origin = k % 3 == 0 ? kInvalidProcessor : static_cast<ProcessorId>(k % 5);
    a.level = k % 4 - 1;
    a.hops = static_cast<uint32_t>(k * 3);
    a.new_node = k % 2 == 0 ? kInvalidNode
                            : NodeId::Make(static_cast<ProcessorId>(k % 4),
                                           static_cast<uint32_t>(500 + k));
    a.sep = static_cast<Key>(k) * 333;
    a.link = static_cast<LinkKind>(k % 3);
    out.push_back(Message(static_cast<ProcessorId>(k % 4),
                          static_cast<ProcessorId>((k + 1) % 4), a));
  }

  // Each payload field alone, then all three, on the kinds that use them.
  NodeSnapshot snap;
  snap.id = NodeId::Make(2, 41);
  snap.level = 1;
  snap.range = {100, 90000};
  snap.version = 12;
  snap.right = NodeId::Make(3, 42);
  snap.right_low = 90000;
  snap.left = NodeId::Make(1, 40);
  snap.parent = NodeId::Make(0, 1);
  snap.link_versions[0] = 4;
  snap.link_versions[1] = 0;
  snap.link_versions[2] = 300;
  snap.entries = {{100, 7}, {250, 1ull << 40}, {89999, 3}};
  snap.copies = {0, 2, 3};
  snap.pc = 2;
  snap.applied_updates = {5, 77, 1ull << 33};

  Action join;
  join.kind = ActionKind::kRelayedJoin;
  join.target = snap.id;
  join.version = 13;
  join.origin = 1;
  SetMembers(join, {1});
  out.push_back(Message(2, 0, join));

  Action scan_return;
  scan_return.kind = ActionKind::kReturnValue;
  scan_return.op = MakeOpId(3, 9);
  scan_return.key = 120;
  scan_return.rc = Action::Rc::kOk;
  scan_return.hops = 4;
  SetRangeResults(scan_return, {{120, 1}, {121, 2}, {4000, 1ull << 50}});
  out.push_back(Message(1, 3, scan_return));

  Action create;
  create.kind = ActionKind::kCreateNode;
  create.target = snap.id;
  create.level = snap.level;
  MutableSnapshot(create) = snap;
  out.push_back(Message(2, 3, create));

  Action all = create;
  all.kind = ActionKind::kMigrateNode;
  all.update = 88;
  SetMembers(all, {3, 0});
  SetRangeResults(all, {{1, 1}});
  out.push_back(Message(2, 1, all));

  // A snapshot with empty vectors and no primary copy, and a snapshot
  // that is set but invalid (it encodes as absent).
  Action bare = create;
  MutableSnapshot(bare).entries.clear();
  MutableSnapshot(bare).copies.clear();
  MutableSnapshot(bare).applied_updates.clear();
  MutableSnapshot(bare).pc = kInvalidProcessor;
  out.push_back(Message(0, 2, bare));
  Action invalid;
  invalid.kind = ActionKind::kJoinGrant;
  MutableSnapshot(invalid).level = 3;
  out.push_back(Message(1, 0, invalid));

  // Multi-action messages: a relay batch, and payload-free actions mixed
  // with payload-carrying ones.
  Message batch;
  batch.from = 1;
  batch.to = 2;
  for (int i = 0; i < 4; ++i) {
    Action r;
    r.kind = ActionKind::kRelayedInsert;
    r.target = NodeId::Make(1, 7);
    r.update = 200 + static_cast<UpdateId>(i);
    r.key = 1000 * static_cast<Key>(i + 1);
    r.value = static_cast<Value>(i);
    r.origin = 1;
    batch.actions.push_back(r);
  }
  out.push_back(batch);
  Message mixed;
  mixed.from = 3;
  mixed.to = 0;
  mixed.actions.push_back(out[0].actions[0]);
  mixed.actions.push_back(join);
  mixed.actions.push_back(all);
  mixed.actions.push_back(out[5].actions[0]);
  out.push_back(mixed);

  // The reliable header: a data frame carrying an ack, a retransmitted
  // frame, a pure ack, and a message with no actions and no header.
  Message acked = batch;
  acked.seq = 17;
  acked.ack = 300;
  acked.flags = Message::kHasAck;
  out.push_back(acked);
  Message resent(2, 1, scan_return);
  resent.seq = 1ull << 35;
  resent.flags = Message::kRetransmit;
  out.push_back(resent);
  Message pure_ack;
  pure_ack.from = 0;
  pure_ack.to = 3;
  pure_ack.seq = 0;
  pure_ack.ack = 129;
  pure_ack.flags = Message::kHasAck | Message::kAckOnly;
  out.push_back(pure_ack);
  out.push_back(Message{});
  return out;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char digits[3];
  for (uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    out += digits;
  }
  return out;
}

// The wire format is pinned: tests/data/wire_golden.hex holds the golden
// set's bytes as recorded before the payload moved out of line, so an
// encoder change that moves one byte fails here. Each recorded message
// must also encode the same into a recycled buffer, and decode and
// re-encode to the same bytes.
TEST(Wire, GoldenBytes) {
  std::ifstream in(LAZYTREE_TEST_DATA_DIR "/wire_golden.hex");
  ASSERT_TRUE(in) << "missing tests/data/wire_golden.hex";
  std::vector<std::string> recorded;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') recorded.push_back(line);
  }
  const std::vector<Message> messages = GoldenMessages();
  ASSERT_EQ(recorded.size(), messages.size());
  std::vector<uint8_t> recycled;
  for (size_t i = 0; i < messages.size(); ++i) {
    const std::vector<uint8_t> bytes = wire::EncodeMessage(messages[i]);
    EXPECT_EQ(Hex(bytes), recorded[i]) << "message " << i << ": "
                                       << messages[i].ToString();
    recycled = wire::EncodeMessage(messages[i], std::move(recycled));
    EXPECT_EQ(recycled, bytes) << "message " << i;
    auto decoded = wire::DecodeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << "message " << i;
    EXPECT_EQ(Hex(wire::EncodeMessage(*decoded)), recorded[i])
        << "message " << i;
  }
}

TEST(Wire, CopyingAnActionCopiesItsPayload) {
  Action a = FullActionFixture();
  Action b = a;
  b.mutable_members().push_back(9);
  b.mutable_snapshot().entries.clear();
  EXPECT_EQ(a.members().size(), 3u);
  EXPECT_EQ(a.snapshot().entries.size(), 3u);
  Action c;
  c = a;
  ExpectActionsEqual(c, a);
  Action moved = std::move(c);
  EXPECT_TRUE(moved.has_payload());
  ExpectActionsEqual(moved, a);
  Action plain;
  plain.kind = ActionKind::kSearch;
  Action plain_copy = plain;
  EXPECT_FALSE(plain_copy.has_payload());
  EXPECT_TRUE(plain_copy.members().empty());
  EXPECT_TRUE(plain_copy.take_range_results().empty());
  EXPECT_FALSE(plain_copy.has_payload());
}

TEST(Wire, EncodedSizeMatches) {
  Message m(1, 2, FullActionFixture());
  EXPECT_EQ(wire::EncodedSize(m), wire::EncodeMessage(m).size());
  EXPECT_EQ(wire::EncodedSize(Message{}), wire::EncodeMessage(Message{}).size());
}

}  // namespace
}  // namespace lazytree
