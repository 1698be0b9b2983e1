#include "src/server/queue_manager.h"

#include "src/server/links.h"

namespace lazytree {

void QueueManager::Flush() {
  if (flush_order_.empty()) return;
  size_t actions = 0;
  for (ProcessorId dest : flush_order_) {
    Outbox& box = boxes_[dest];
    const size_t added = box.msg.actions.size() - box.held;
    actions += added;
    if (!box.direct) {
      network_->stats().OnPiggyback(added);
      box.held += added;
      held_ += added;
      if (box.held < window_) continue;
    }
    SendBuffer(box);
  }
  const size_t messages = flush_order_.size();
  flush_order_.clear();
  if (actions > messages) {
    network_->stats().OnCombined(actions - messages);
  }
}

void QueueManager::FlushHeld() {
  if (held_ == 0) return;
  LAZYTREE_CHECK(combine_depth_ == 0) << "FlushHeld inside a scope";
  for (Outbox& box : boxes_) {
    if (box.held > 0) SendBuffer(box);
  }
}

void QueueManager::DropBuffers() {
  LAZYTREE_CHECK(combine_depth_ == 0) << "DropBuffers inside a scope";
  boxes_.clear();
  flush_order_.clear();
  held_ = 0;
}

void QueueManager::SendBuffer(Outbox& box) {
  held_ -= box.held;
  box.held = 0;
  box.direct = false;
  Transmit(std::move(box.msg));
  box.msg = Message();
}

void QueueManager::SendLinked(Message m) { links_->Send(std::move(m)); }

}  // namespace lazytree
