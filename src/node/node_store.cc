#include "src/node/node_store.h"

#include "src/util/logging.h"

namespace lazytree {

Node* NodeStore::Install(std::unique_ptr<Node> node) {
  const NodeId id = node->id();
  LAZYTREE_CHECK(id.creator() < rows_.size())
      << "install of " << id.ToString() << ": creator out of range";
  forwarding_.erase(id);  // the node is back; any forward is stale
  auto& row = rows_[id.creator()];
  if (row.size() <= id.seq()) row.resize(id.seq() + 1);
  std::unique_ptr<Node>& slot = row[id.seq()];
  if (slot == nullptr) ++live_;
  slot = std::move(node);
  return slot.get();
}

void NodeStore::Remove(NodeId id, ProcessorId forward_to) {
  LAZYTREE_CHECK(Find(id) != nullptr)
      << "remove of unknown node " << id.ToString();
  rows_[id.creator()][id.seq()].reset();
  --live_;
  if (forward_to != kInvalidProcessor) forwarding_[id] = forward_to;
  // The root hint survives: it names a logical node, not a local copy.
}

ProcessorId NodeStore::Forwarding(NodeId id) const {
  auto it = forwarding_.find(id);
  return it == forwarding_.end() ? kInvalidProcessor : it->second;
}

Node* NodeStore::Closest(Key key, int32_t level) {
  // B-link navigation only moves right and down, so a usable start node
  // must sit at or above the target level with range.low <= key. Prefer
  // nodes whose range contains the key (no right-chasing needed), then
  // the lowest level, then the tightest low bound.
  Node* best = nullptr;
  auto better = [&](const Node& n) {
    if (best == nullptr) return true;
    const bool n_contains = n.Contains(key);
    const bool b_contains = best->Contains(key);
    if (n_contains != b_contains) return n_contains;
    if (n.level() != best->level()) return n.level() < best->level();
    return n.range().low > best->range().low;
  };
  for (auto& row : rows_) {
    for (auto& node : row) {
      if (node == nullptr || node->level() < level) continue;
      if (node->range().low > key) continue;
      if (better(*node)) best = node.get();
    }
  }
  if (best != nullptr) return best;
  return root_hint_.valid() ? Get(root_hint_) : nullptr;
}

}  // namespace lazytree
