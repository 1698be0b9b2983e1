// Fixture for lazytree_lint --self-test: the in-place decoder fills the
// out-of-line payload but never reads ActionPayload::range_results. Every
// other field round-trips. Never compiled into the project.

template <typename Sink>
void EncodeSnapshotTo(Sink& w, const NodeSnapshot& s) {
  w.PutVarint(s.id);
  w.PutVarint(s.level);
  w.PutVarint(s.parent);
}

template <typename Sink>
void EncodePayloadTo(Sink& w, const ActionPayload& p) {
  w.PutVarint(p.members.size());
  w.PutVarint(p.range_results.size());
  EncodeSnapshotTo(w, p.snapshot);
}

template <typename Sink>
void EncodeActionTo(Sink& w, const Action& a) {
  w.PutFixed8(static_cast<uint8_t>(a.kind));
  w.PutVarint(a.target);
  w.PutVarint(a.hops);
  EncodePayloadTo(w, a.payload());
}

template <typename Sink>
void EncodeMessageTo(Sink& w, const Message& m) {
  w.PutVarint(m.from);
  w.PutVarint(m.to);
  w.PutVarint(m.seq);
  for (const Action& a : m.actions) EncodeActionTo(w, a);
}

void DecodeSnapshotBody(Reader& r, NodeSnapshot& s) {
  s.id = r.Varint();
  s.level = r.Varint();
  s.parent = r.Varint();
}

void DecodePayload(Reader& r, Action& a) {
  ActionPayload& p = a.mutable_payload();
  p.members.resize(r.Count());
  // BUG (planted): p.range_results is never read; its count is skipped.
  r.Count();
  if (r.Bool()) DecodeSnapshotBody(r, p.snapshot);
}

void DecodeAction(Reader& r, Action& a) {
  a.kind = static_cast<ActionKind>(r.Fixed8());
  a.target = r.Varint();
  a.hops = r.Varint();
  DecodePayload(r, a);
}

StatusOr<Message> DecodeMessage(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  Message m;
  m.from = r.Varint();
  m.to = r.Varint();
  m.seq = r.Varint();
  m.actions.resize(r.Count());
  for (Action& a : m.actions) DecodeAction(r, a);
  return m;
}

size_t EncodedSize(const Message& m) {
  SizeCounter c;
  EncodeMessageTo(c, m);
  return c.size();
}
