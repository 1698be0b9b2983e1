// Fixture for lazytree_lint --self-test: a miniature action.h/message.h
// whose wire walks (bad_wire.cc, bad_payload_wire.cc) and dispatch
// (bad_base.cc) contain deliberate violations. Never compiled into the
// project.

#include <cstdint>
#include <vector>

enum class ActionKind : uint8_t {
  kInvalid = 0,
  kSearch,
  kInsertOp,
  kScanOp,
  kMaxKind,
};

struct NodeSnapshot {
  uint64_t id = 0;
  int32_t level = 0;
  uint64_t parent = 0;  // bad_wire.cc's decoder forgets this field
};

struct ActionPayload {
  std::vector<uint32_t> members;
  NodeSnapshot snapshot;
  std::vector<uint64_t> range_results;  // bad_payload_wire.cc never reads it
};

struct Action {
  ActionKind kind = ActionKind::kInvalid;
  uint64_t target = 0;
  uint32_t hops = 0;  // bad_wire.cc's encoder forgets this field

  const ActionPayload& payload() const;
  ActionPayload& mutable_payload();

 private:
  PayloadBox payload_;
};

struct Message {
  uint32_t from = 0;
  uint32_t to = 0;
  uint64_t seq = 0;
  std::vector<Action> actions;
};
