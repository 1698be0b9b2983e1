// NodeStore: all node copies hosted by one processor, plus the local
// routing aids the paper's recovery mechanisms need (root hint, forwarding
// addresses, closest-node lookup).

#ifndef LAZYTREE_NODE_NODE_STORE_H_
#define LAZYTREE_NODE_NODE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/msg/fingerprint.h"
#include "src/node/node.h"

namespace lazytree {

class NodeStore {
 public:
  /// `creators` bounds the creator half of every id this store can hold
  /// (the cluster size: ids are minted by Processor::NewNodeId).
  explicit NodeStore(uint32_t creators) : rows_(creators) {}

  /// Installs a copy. Replaces any dead tombstone with the same id.
  /// CHECK-fails on a creator outside the bound.
  Node* Install(std::unique_ptr<Node> node);

  /// Removes a copy (unjoin / migration away). Optionally records a
  /// forwarding address (§4.2) pointing at the node's new host.
  void Remove(NodeId id, ProcessorId forward_to = kInvalidProcessor);

  /// Local copy, or nullptr.
  Node* Get(NodeId id) { return Find(id); }
  const Node* Get(NodeId id) const { return Find(id); }

  /// Forwarding address left by a migrated node, if still retained.
  ProcessorId Forwarding(NodeId id) const;

  /// Garbage-collects every forwarding address (§4.2: they are an
  /// optimization, safe to drop at any time).
  void DropForwardingAddresses() { forwarding_.clear(); }
  size_t ForwardingCount() const { return forwarding_.size(); }

  /// The locally known root (highest-level local anchor for starting
  /// operations and for missing-node recovery). Updated lazily.
  NodeId root_hint() const { return root_hint_; }
  int32_t root_level() const { return root_level_; }
  void SetRootHint(NodeId id, int32_t level) {
    // Ordered by level: only ever move the hint upward.
    if (level > root_level_ || !root_hint_.valid()) {
      root_hint_ = id;
      root_level_ = level;
    }
  }

  /// "Find a node that is 'close' to the destination" (§4.2 missing-node
  /// recovery): the lowest-level local node at level >= `level` whose
  /// range contains `key`; falls back to the local root copy; returns
  /// nullptr when this processor stores nothing at all.
  Node* Closest(Key key, int32_t level);

  size_t size() const { return live_; }

  /// Drops every copy, forwarding address, and the root hint — a crashed
  /// processor's volatile state. The caller is responsible for recording
  /// the copy deaths with the history log first (Processor::Crash does).
  void Reset() {
    for (auto& row : rows_) row.clear();
    live_ = 0;
    forwarding_.clear();
    root_hint_ = kInvalidNode;
    root_level_ = -1;
  }

  /// Visits every local copy in (creator, seq) order, i.e. ascending id.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& row : rows_) {
      for (const auto& node : row) {
        if (node != nullptr) fn(*node);
      }
    }
  }

  /// Folds every local copy (in id order, encoded via its snapshot so all
  /// node fields are covered), forwarding address, and the root hint into
  /// a verifier state fingerprint.
  void MixState(Fingerprint& fp) const {
    fp.Mix(live_);
    ForEach([&](const Node& n) { MixSnapshot(fp, n.ToSnapshot()); });
    std::vector<std::pair<NodeId, ProcessorId>> fwd(forwarding_.begin(),
                                                    forwarding_.end());
    std::sort(fwd.begin(), fwd.end());
    fp.Mix(fwd.size());
    for (const auto& [id, host] : fwd) {
      fp.Mix(id.v);
      fp.Mix(host);
    }
    fp.Mix(root_hint_.v);
    fp.Mix(static_cast<uint64_t>(static_cast<int64_t>(root_level_)));
  }

 private:
  Node* Find(NodeId id) const {
    const uint32_t c = id.creator();
    const uint32_t s = id.seq();
    if (c >= rows_.size() || s >= rows_[c].size()) return nullptr;
    return rows_[c][s].get();
  }

  // Copies indexed [creator][seq]: seq is a dense per-creator counter, so
  // a row costs one pointer per node its creator has minted (up to the
  // highest seq installed here), and a lookup is two bounds checks.
  std::vector<std::vector<std::unique_ptr<Node>>> rows_;
  size_t live_ = 0;
  std::unordered_map<NodeId, ProcessorId> forwarding_;
  NodeId root_hint_ = kInvalidNode;
  int32_t root_level_ = -1;
};

}  // namespace lazytree

#endif  // LAZYTREE_NODE_NODE_STORE_H_
