// Wire format: compact binary encoding of messages.
//
// The in-process transports could pass Message objects directly, but the
// library encodes every message to bytes and decodes it at the receiver so
// that (a) byte counts reported by the benches reflect a real RPC cost
// model and (b) nothing accidentally shares mutable state across
// "processors". Varint-based, little-endian, no alignment requirements.

#ifndef LAZYTREE_MSG_WIRE_H_
#define LAZYTREE_MSG_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/msg/message.h"
#include "src/util/statusor.h"

namespace lazytree {
namespace wire {

/// Append-only byte sink.
class Writer {
 public:
  Writer() = default;
  /// Writes into `buf`'s storage: its contents are cleared, its capacity
  /// is kept, so a recycled buffer encodes without allocating.
  explicit Writer(std::vector<uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  void PutVarint(uint64_t v) {
    if (v < 0x80) {  // most fields: ids of small clusters, zeros, flags
      buf_.push_back(static_cast<uint8_t>(v));
      return;
    }
    PutVarintSlow(v);
  }
  void PutFixed8(uint8_t v) { buf_.push_back(v); }
  void PutBool(bool v) { PutFixed8(v ? 1 : 0); }
  /// Pre-grows the buffer for `n` more bytes so a burst of small appends
  /// (every field here is a 1-10 byte varint) lands in one allocation.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutVarintSlow(uint64_t v);

  std::vector<uint8_t> buf_;
};

/// Bounds-checked byte source. A read past the end or a malformed varint
/// returns 0 and latches a sticky failure (ok() turns false, every later
/// read returns 0), so decoders read a run of fields and check once.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  uint64_t Varint() {
    if (pos_ < size_ && data_[pos_] < 0x80) return data_[pos_++];
    return VarintSlow();
  }
  uint8_t Fixed8() {
    if (pos_ < size_) return data_[pos_++];
    return Fail("truncated byte");
  }
  bool Bool() { return Fixed8() != 0; }
  /// An element count. Every element takes at least one byte, so a count
  /// above the bytes left fails instead of driving a huge allocation.
  uint64_t Count() {
    const uint64_t n = Varint();
    return n <= size_ - pos_ ? n : Fail("count exceeds remaining bytes");
  }

  bool ok() const { return error_ == nullptr; }
  /// InvalidArgument naming the first failure (OK while ok()).
  Status status() const {
    return ok() ? Status::OK() : Status::InvalidArgument(error_);
  }
  bool AtEnd() const { return pos_ == size_; }

  /// Latches a failure found by a decoder (a bad enum value, say) with
  /// the same sticky effect as a truncated read; returns 0.
  uint8_t Fail(const char* why) {
    if (error_ == nullptr) error_ = why;
    pos_ = size_;
    return 0;
  }

 private:
  uint64_t VarintSlow();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* error_ = nullptr;
};

/// Encodes a full message (envelope + all actions).
std::vector<uint8_t> EncodeMessage(const Message& m);
/// Same bytes, written into `buf` (contents replaced, capacity reused).
std::vector<uint8_t> EncodeMessage(const Message& m, std::vector<uint8_t> buf);

/// Decodes a message; fails on truncation or unknown kinds. Actions are
/// decoded in place into one pre-sized vector, and an action's payload is
/// allocated only when the bytes carry one of its fields.
StatusOr<Message> DecodeMessage(const std::vector<uint8_t>& bytes);

/// Encoded size without materializing the buffer (for stats): runs the
/// encoder against a byte-counting sink, so it is exact by construction
/// and cannot drift from EncodeMessage (wire_test asserts this over
/// random messages).
size_t EncodedSize(const Message& m);

// Exposed for unit tests and fingerprints. The decoders fill a
// default-constructed argument in place and latch any failure in the
// reader (check r.ok()).
void EncodeAction(Writer& w, const Action& a);
void DecodeAction(Reader& r, Action& a);
void EncodeSnapshot(Writer& w, const NodeSnapshot& s);
void DecodeSnapshot(Reader& r, NodeSnapshot& s);

}  // namespace wire
}  // namespace lazytree

#endif  // LAZYTREE_MSG_WIRE_H_
