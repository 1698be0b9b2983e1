#include "src/msg/wire.h"

namespace lazytree {
namespace wire {

void Writer::PutVarintSlow(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

uint64_t Reader::VarintSlow() {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (pos_ >= size_) return Fail("truncated varint");
    uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return result;
  }
  return Fail("varint too long");
}

namespace {

// Byte-counting stand-in for Writer. The encoders below are templated
// over the sink, so EncodedSize runs the exact same field walk as
// EncodeMessage and the two can never disagree.
class SizeCounter {
 public:
  void PutVarint(uint64_t v) {
    // Branchless varint length: ceil(bits/7) via count-leading-zeros.
    // This keeps the fast-path stats walk well under the cost of the
    // encode it replaced (the shift loop costs ~1 iteration per byte).
#if defined(__GNUC__) || defined(__clang__)
    n_ += static_cast<size_t>(70 - __builtin_clzll(v | 1)) / 7;
#else
    do {
      ++n_;
      v >>= 7;
    } while (v != 0);
#endif
  }
  void PutFixed8(uint8_t) { ++n_; }
  void PutBool(bool) { ++n_; }
  void Reserve(size_t) {}
  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

// Cheap upper-bound-ish reserve hints (most varints here are 1-5 bytes);
// a slightly-generous guess that avoids reallocation beats an exact
// second pass.
size_t SnapshotReserveHint(const NodeSnapshot& s) {
  if (!s.valid()) return 1;
  return 64 + 10 * s.entries.size() + 5 * s.copies.size() +
         5 * s.applied_updates.size();
}

size_t MessageReserveHint(const Message& m) {
  size_t n = 16;
  for (const Action& a : m.actions) {
    n += 72;
    if (!a.has_payload()) continue;
    const ActionPayload& p = a.payload();
    n += 5 * p.members.size() + 10 * p.range_results.size() +
         SnapshotReserveHint(p.snapshot);
  }
  return n;
}

template <typename Sink>
void EncodeSnapshotTo(Sink& w, const NodeSnapshot& s) {
  w.PutBool(s.valid());
  if (!s.valid()) return;
  w.PutVarint(s.id.v);
  w.PutVarint(static_cast<uint64_t>(s.level));
  w.PutVarint(s.range.low);
  w.PutVarint(s.range.high);
  w.PutVarint(s.version);
  w.PutVarint(s.right.v);
  w.PutVarint(s.right_low);
  w.PutVarint(s.left.v);
  w.PutVarint(s.parent.v);
  for (Version v : s.link_versions) w.PutVarint(v);
  w.PutVarint(s.entries.size());
  // Delta-encode keys: entries are kept sorted, so deltas stay small.
  Key prev = 0;
  for (const Entry& e : s.entries) {
    w.PutVarint(e.key - prev);
    prev = e.key;
    w.PutVarint(e.payload);
  }
  w.PutVarint(s.copies.size());
  for (ProcessorId p : s.copies) w.PutVarint(p);
  w.PutVarint(s.pc == kInvalidProcessor ? 0 : s.pc + 1);
  w.PutVarint(s.applied_updates.size());
  for (UpdateId u : s.applied_updates) w.PutVarint(u);
}

template <typename Sink>
void EncodePayloadTo(Sink& w, const ActionPayload& p) {
  w.PutVarint(p.members.size());
  for (ProcessorId m : p.members) w.PutVarint(m);
  w.PutVarint(p.range_results.size());
  Key prev = 0;
  for (const Entry& e : p.range_results) {
    w.PutVarint(e.key - prev);
    prev = e.key;
    w.PutVarint(e.payload);
  }
  EncodeSnapshotTo(w, p.snapshot);
}

template <typename Sink>
void EncodeActionTo(Sink& w, const Action& a) {
  w.PutFixed8(static_cast<uint8_t>(a.kind));
  w.PutVarint(a.target.v);
  w.PutVarint(a.op);
  w.PutVarint(a.update);
  w.PutVarint(a.key);
  w.PutVarint(a.value);
  w.PutBool(a.found);
  w.PutFixed8(static_cast<uint8_t>(a.rc));
  w.PutVarint(a.version);
  w.PutVarint(a.origin == kInvalidProcessor ? 0 : a.origin + 1);
  w.PutVarint(static_cast<uint64_t>(a.level + 1));  // -1 encodes as 0
  w.PutVarint(a.hops);
  w.PutVarint(a.new_node.v);
  w.PutVarint(a.sep);
  w.PutFixed8(static_cast<uint8_t>(a.link));
  EncodePayloadTo(w, a.payload());  // an absent payload encodes as empty
}

template <typename Sink>
void EncodeMessageTo(Sink& w, const Message& m) {
  w.PutVarint(m.from == kInvalidProcessor ? 0 : m.from + 1);
  w.PutVarint(m.to == kInvalidProcessor ? 0 : m.to + 1);
  w.PutVarint(m.seq);
  w.PutVarint(m.ack);
  w.PutFixed8(m.flags);
  w.PutVarint(m.actions.size());
  for (const Action& a : m.actions) EncodeActionTo(w, a);
}

}  // namespace

void EncodeSnapshot(Writer& w, const NodeSnapshot& s) {
  w.Reserve(SnapshotReserveHint(s));
  EncodeSnapshotTo(w, s);
}

void EncodeAction(Writer& w, const Action& a) { EncodeActionTo(w, a); }

std::vector<uint8_t> EncodeMessage(const Message& m) {
  return EncodeMessage(m, {});
}

std::vector<uint8_t> EncodeMessage(const Message& m,
                                   std::vector<uint8_t> buf) {
  Writer w(std::move(buf));
  w.Reserve(MessageReserveHint(m));
  EncodeMessageTo(w, m);
  return w.Take();
}

size_t EncodedSize(const Message& m) {
  SizeCounter c;
  EncodeMessageTo(c, m);
  return c.size();
}

namespace {

// The decoders below fill their target in place and latch every failure
// in the Reader, so a message costs no Status or StatusOr per action:
// DecodeMessage checks the reader once per action and once at the end.

// The snapshot's fields after its presence flag.
void DecodeSnapshotBody(Reader& r, NodeSnapshot& s) {
  s.id.v = r.Varint();
  s.level = static_cast<int32_t>(r.Varint());
  s.range.low = r.Varint();
  s.range.high = r.Varint();
  s.version = r.Varint();
  s.right.v = r.Varint();
  s.right_low = r.Varint();
  s.left.v = r.Varint();
  s.parent.v = r.Varint();
  for (Version& v : s.link_versions) v = r.Varint();
  s.entries.resize(r.Count());
  Key prev = 0;
  for (Entry& e : s.entries) {
    prev += r.Varint();
    e.key = prev;
    e.payload = r.Varint();
  }
  s.copies.resize(r.Count());
  for (ProcessorId& p : s.copies) p = static_cast<ProcessorId>(r.Varint());
  const uint64_t pc = r.Varint();
  s.pc = pc == 0 ? kInvalidProcessor : static_cast<ProcessorId>(pc - 1);
  s.applied_updates.resize(r.Count());
  for (UpdateId& u : s.applied_updates) u = r.Varint();
}

// The payload fields, allocating the payload only when one is present:
// the hot kinds carry none and decode without touching the heap.
void DecodePayload(Reader& r, Action& a) {
  if (const uint64_t n = r.Count(); n != 0) {
    ActionPayload& p = a.mutable_payload();
    p.members.resize(n);
    for (ProcessorId& m : p.members) m = static_cast<ProcessorId>(r.Varint());
  }
  if (const uint64_t n = r.Count(); n != 0) {
    ActionPayload& p = a.mutable_payload();
    p.range_results.resize(n);
    Key prev = 0;
    for (Entry& e : p.range_results) {
      prev += r.Varint();
      e.key = prev;
      e.payload = r.Varint();
    }
  }
  if (r.Bool()) {
    ActionPayload& p = a.mutable_payload();
    DecodeSnapshotBody(r, p.snapshot);
  }
}

}  // namespace

void DecodeSnapshot(Reader& r, NodeSnapshot& s) {
  if (r.Bool()) DecodeSnapshotBody(r, s);
}

void DecodeAction(Reader& r, Action& a) {
  const uint8_t kind = r.Fixed8();
  if (kind == 0 || kind >= static_cast<uint8_t>(ActionKind::kMaxKind)) {
    r.Fail("unknown action kind");
    return;
  }
  a.kind = static_cast<ActionKind>(kind);
  a.target.v = r.Varint();
  a.op = r.Varint();
  a.update = r.Varint();
  a.key = r.Varint();
  a.value = r.Varint();
  a.found = r.Bool();
  const uint8_t rc = r.Fixed8();
  if (rc > static_cast<uint8_t>(Action::Rc::kExists)) {
    r.Fail("bad rc");
    return;
  }
  a.rc = static_cast<Action::Rc>(rc);
  a.version = r.Varint();
  const uint64_t origin = r.Varint();
  a.origin =
      origin == 0 ? kInvalidProcessor : static_cast<ProcessorId>(origin - 1);
  a.level = static_cast<int32_t>(r.Varint()) - 1;
  a.hops = static_cast<uint32_t>(r.Varint());
  a.new_node.v = r.Varint();
  a.sep = r.Varint();
  const uint8_t link = r.Fixed8();
  if (link > static_cast<uint8_t>(LinkKind::kParent)) {
    r.Fail("bad link kind");
    return;
  }
  a.link = static_cast<LinkKind>(link);
  DecodePayload(r, a);
}

StatusOr<Message> DecodeMessage(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  Message m;
  const uint64_t from = r.Varint();
  m.from = from == 0 ? kInvalidProcessor : static_cast<ProcessorId>(from - 1);
  const uint64_t to = r.Varint();
  m.to = to == 0 ? kInvalidProcessor : static_cast<ProcessorId>(to - 1);
  m.seq = r.Varint();
  m.ack = r.Varint();
  m.flags = r.Fixed8();
  m.actions.resize(r.Count());
  for (Action& a : m.actions) {
    DecodeAction(r, a);
    if (!r.ok()) break;
  }
  if (!r.ok()) return r.status();
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes");
  return m;
}

}  // namespace wire
}  // namespace lazytree
