#include "src/core/cluster.h"

#include <algorithm>
#include <future>
#include <set>
#include <sstream>

#include "src/protocol/mobile.h"
#include "src/protocol/naive.h"
#include "src/protocol/varcopies.h"
#include "src/protocol/semisync_split.h"
#include "src/protocol/sync_split.h"
#include "src/protocol/vigorous.h"
#include "src/util/logging.h"

namespace lazytree {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kSyncSplit: return "sync";
    case ProtocolKind::kSemiSyncSplit: return "semisync";
    case ProtocolKind::kNaive: return "naive";
    case ProtocolKind::kVigorous: return "vigorous";
    case ProtocolKind::kMobile: return "mobile";
    case ProtocolKind::kVarCopies: return "varcopies";
  }
  return "?";
}

namespace {

std::unique_ptr<ProtocolHandler> MakeHandler(ProtocolKind kind,
                                             Processor& p) {
  switch (kind) {
    case ProtocolKind::kSyncSplit:
      return std::make_unique<SyncSplitProtocol>(p);
    case ProtocolKind::kSemiSyncSplit:
      return std::make_unique<SemiSyncSplitProtocol>(p);
    case ProtocolKind::kNaive:
      return std::make_unique<NaiveProtocol>(p);
    case ProtocolKind::kVigorous:
      return std::make_unique<VigorousProtocol>(p);
    case ProtocolKind::kMobile:
      return std::make_unique<MobileProtocol>(p);
    case ProtocolKind::kVarCopies:
      return std::make_unique<VarCopiesProtocol>(p);
    default:
      LAZYTREE_CHECK(false) << "protocol not yet wired into Cluster";
      return nullptr;
  }
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      history_(options_.tree.track_history),
      link_clock_(/*real=*/options_.transport == TransportKind::kThreads),
      on_link_down_([this](ProcessorId from, ProcessorId to) {
        OnLinkDown(from, to);
      }) {
  LAZYTREE_CHECK(options_.processors >= 1) << "need at least one processor";
  const bool threads = options_.transport == TransportKind::kThreads;
  // combine_ops auto (-1) turns op combining on only for the threads
  // transport, so seeded sim schedules stay byte-stable.
  options_.tree.combine_ops =
      options_.combine_ops < 0 ? threads : options_.combine_ops > 0;
  options_.tree.local_fastpath = options_.local_read_fastpath;
  if (options_.transport == TransportKind::kSim) {
    auto sim = std::make_unique<net::SimNetwork>(options_.seed);
    if (options_.sim_latency_us > 0) {
      sim->EnableLatency(options_.sim_latency_us, options_.sim_jitter_us);
    }
    sim_ = sim.get();
    base_network_ = std::move(sim);
  } else {
    net::ThreadNetwork::Options topt;
    topt.pin_threads = options_.pin_threads;
    if (options_.max_batch > 0) topt.max_batch = options_.max_batch;
    auto threads_network = std::make_unique<net::ThreadNetwork>(topt);
    threads_ = threads_network.get();
    base_network_ = std::move(threads_network);
  }
  network_ = base_network_.get();
  if (options_.faults.active()) {
    faulty_ = std::make_unique<net::FaultyNetwork>(network_, options_.faults);
    network_ = faulty_.get();
  }
  const bool reliable_on = options_.reliable < 0
                               ? options_.faults.active()
                               : options_.reliable > 0;
  processors_.reserve(options_.processors);
  for (ProcessorId id = 0; id < options_.processors; ++id) {
    processors_.push_back(std::make_unique<Processor>(
        id, options_.processors, network_, &history_, options_.tree,
        options_.piggyback_window));
    Processor& p = *processors_.back();
    p.SetHandler(MakeHandler(options_.protocol, p));
    if (reliable_on) {
      p.EnableLinks(options_.reliability, &link_clock_, on_link_down_);
      links_.push_back(p.links());
    }
  }
}

Cluster::~Cluster() { Stop(); }

net::Network& Cluster::base_network() { return *base_network_; }

size_t Cluster::HeldRelays() {
  size_t held = 0;
  for (auto& p : processors_) held += p->out().held();
  return held;
}

void Cluster::Bootstrap() {
  // The initial tree: an interior root over a single empty leaf, placed
  // exactly where the protocol's deterministic placement expects them.
  Processor& p0 = *processors_[0];
  const NodeId root_id = p0.NewNodeId();
  const NodeId leaf_id = p0.NewNodeId();
  const uint32_t r = options_.tree.interior_replication;

  std::vector<ProcessorId> root_copies;
  std::vector<ProcessorId> leaf_copies;
  switch (options_.protocol) {
    case ProtocolKind::kMobile:
      root_copies = {0};
      leaf_copies = {0};
      break;
    case ProtocolKind::kVarCopies: {
      // Root everywhere (Fig. 2 policy); the single leaf and its path
      // start on processor 0.
      for (ProcessorId id = 0; id < options_.processors; ++id) {
        root_copies.push_back(id);
      }
      leaf_copies = {0};
      break;
    }
    default:
      root_copies = FixedCopySet(root_id, 1, options_.processors, r,
                                 options_.tree.leaf_replication);
      leaf_copies = FixedCopySet(leaf_id, 0, options_.processors, r,
                                 options_.tree.leaf_replication);
  }

  NodeSnapshot leaf;
  leaf.id = leaf_id;
  leaf.level = 0;
  leaf.range = KeyRange{0, kKeyInfinity};
  leaf.parent = root_id;
  leaf.copies = leaf_copies;
  leaf.pc = leaf_copies.front();

  NodeSnapshot root;
  root.id = root_id;
  root.level = 1;
  root.range = KeyRange{0, kKeyInfinity};
  root.entries = {Entry{0, leaf_id.v}};
  root.copies = root_copies;
  root.pc = root_copies.front();

  for (ProcessorId holder : root_copies) {
    processors_[holder]->InstallNode(
        std::make_unique<Node>(root, options_.tree.track_history));
  }
  for (ProcessorId holder : leaf_copies) {
    processors_[holder]->InstallNode(
        std::make_unique<Node>(leaf, options_.tree.track_history));
  }
  for (auto& p : processors_) p->store().SetRootHint(root_id, 1);
}

void Cluster::Start() {
  LAZYTREE_CHECK(!started_) << "Start called twice";
  started_ = true;
  Bootstrap();
  network_->Start();
}

void Cluster::Stop() {
  if (!started_) return;
  network_->Stop();
}

OpId Cluster::InsertAsync(ProcessorId home, Key key, Value value,
                          OpCallback cb) {
  return processors_[home]->SubmitInsert(key, value, std::move(cb));
}

OpId Cluster::SearchAsync(ProcessorId home, Key key, OpCallback cb) {
  return processors_[home]->SubmitSearch(key, std::move(cb));
}

OpId Cluster::DeleteAsync(ProcessorId home, Key key, OpCallback cb) {
  return processors_[home]->SubmitDelete(key, std::move(cb));
}

OpId Cluster::ScanAsync(ProcessorId home, Key start, uint64_t limit,
                        OpCallback cb) {
  return processors_[home]->SubmitScan(start, limit, std::move(cb));
}

void Cluster::MigrateNode(NodeId node, ProcessorId host_hint,
                          ProcessorId dest) {
  Action cmd;
  cmd.kind = ActionKind::kMigrateNode;
  cmd.target = node;
  cmd.mutable_members().push_back(dest);
  if (sim_ != nullptr) {
    // Sent as if by `dest`: relays it holds for `host_hint` ride ahead.
    processors_[dest]->out().SendAction(host_hint, std::move(cmd));
  } else {
    // A client thread must not touch a worker's outbound buffer or links:
    // `dest`'s own worker sends it, stamped and logged like any send.
    threads_->Post(dest, Message(dest, host_hint, std::move(cmd)));
  }
}

Status Cluster::Insert(ProcessorId home, Key key, Value value) {
  if (sim_ != nullptr) {
    OpResult result;
    bool done = false;
    InsertAsync(home, key, value, [&](const OpResult& r) {
      result = r;
      done = true;
    });
    if (!Settle() || !done) return Status::TimedOut("insert did not settle");
    return result.status;
  }
  std::promise<OpResult> promise;
  auto future = promise.get_future();
  InsertAsync(home, key, value,
              [&promise](const OpResult& r) { promise.set_value(r); });
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    return Status::TimedOut("insert stalled");
  }
  return future.get().status;
}

StatusOr<Value> Cluster::Search(ProcessorId home, Key key) {
  if (sim_ != nullptr) {
    OpResult result;
    bool done = false;
    SearchAsync(home, key, [&](const OpResult& r) {
      result = r;
      done = true;
    });
    if (!Settle() || !done) return Status::TimedOut("search did not settle");
    if (!result.status.ok()) return result.status;
    return result.value;
  }
  std::promise<OpResult> promise;
  auto future = promise.get_future();
  SearchAsync(home, key,
              [&promise](const OpResult& r) { promise.set_value(r); });
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    return Status::TimedOut("search stalled");
  }
  OpResult result = future.get();
  if (!result.status.ok()) return result.status;
  return result.value;
}

Status Cluster::Delete(ProcessorId home, Key key) {
  if (sim_ != nullptr) {
    OpResult result;
    bool done = false;
    DeleteAsync(home, key, [&](const OpResult& r) {
      result = r;
      done = true;
    });
    if (!Settle() || !done) return Status::TimedOut("delete did not settle");
    return result.status;
  }
  std::promise<OpResult> promise;
  auto future = promise.get_future();
  DeleteAsync(home, key,
              [&promise](const OpResult& r) { promise.set_value(r); });
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    return Status::TimedOut("delete stalled");
  }
  return future.get().status;
}

StatusOr<std::vector<Entry>> Cluster::Scan(ProcessorId home, Key start,
                                           uint64_t limit) {
  if (sim_ != nullptr) {
    OpResult result;
    bool done = false;
    ScanAsync(home, start, limit, [&](const OpResult& r) {
      result = r;
      done = true;
    });
    if (!Settle() || !done) return Status::TimedOut("scan did not settle");
    if (!result.status.ok()) return result.status;
    return result.entries;
  }
  std::promise<OpResult> promise;
  auto future = promise.get_future();
  ScanAsync(home, start, limit,
            [&promise](const OpResult& r) { promise.set_value(r); });
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    return Status::TimedOut("scan stalled");
  }
  OpResult result = future.get();
  if (!result.status.ok()) return result.status;
  return result.entries;
}

bool Cluster::Settle(std::chrono::milliseconds timeout) {
  // Held relays count as outstanding work. On threads every worker
  // flushes its own when its inbox drains; the sim has no workers, so
  // flush here, drain, and repeat (a delivery can hold new relays).
  for (int round = 0; round < 1000; ++round) {
    if (sim_ != nullptr) {
      for (auto& p : processors_) p->out().FlushHeld();
    }
    // On threads an armed link timer counts as in-flight work; the sim
    // fires link timers on its virtual clock whenever it runs dry.
    const bool drained =
        sim_ != nullptr && !links_.empty()
            ? DrainLinks(*network_, links_, link_clock_, on_link_down_,
                         timeout)
            : network_->WaitQuiescent(timeout);
    if (!drained) return false;
    if (sim_ == nullptr || HeldRelays() == 0) {
      MaybeCheckHistories();
      return true;
    }
  }
  return false;
}

bool Cluster::PumpNetworkTimers() {
  if (faulty_ != nullptr && faulty_->FlushHeld() > 0) return true;
  return sim_ != nullptr && !links_.empty() &&
         PumpLinks(links_, link_clock_, on_link_down_);
}

bool Cluster::AnyLinkDown() const {
  for (const Links* l : links_) {
    if (l->AnyDown()) return true;
  }
  return false;
}

void Cluster::OnLinkDown(ProcessorId from, ProcessorId to) {
  LAZYTREE_WARN << "link p" << from << "->p" << to
                << " declared down (no ack progress within budget); "
                << "failing pending ops";
  // Lost messages may strand an op homed on *any* processor (relays and
  // returns route through third parties), so degrade the whole cluster's
  // outstanding ops to a retriable failure instead of guessing.
  for (auto& p : processors_) {
    p->ops().FailAllPending(
        Status::Unavailable("network link down (messages lost)"));
  }
}

void Cluster::MaybeCheckHistories() {
  if (!options_.check_histories || !options_.tree.track_history ||
      !started_) {
    return;
  }
  if (AnyLinkDown()) {
    // A dead link means updates were genuinely lost in transit; §3.1
    // completeness cannot hold and the violation is expected, not a bug.
    return;
  }
  if (sim_ != nullptr) {
    // §3.1 is a property of quiescent points of the *recovered* system;
    // while a processor is down its copies' updates are legitimately
    // missing. The next post-recovery Settle() checks the full log.
    for (ProcessorId p = 0; p < options_.processors; ++p) {
      if (sim_->IsCrashed(p)) return;
    }
  }
  const size_t records = history_.RecordCount();
  if (records == checked_history_records_) return;
  checked_history_records_ = records;
  history::CheckReport report = VerifyHistories();
  LAZYTREE_CHECK(report.ok())
      << "§3.1 invariant violated at quiescence ("
      << report.violations.size() << " violation(s)):\n"
      << report.ToString();
}

void Cluster::CrashProcessor(ProcessorId p) {
  LAZYTREE_CHECK(sim_ != nullptr) << "crash injection needs the sim transport";
  LAZYTREE_CHECK(p < options_.processors) << "crash of unknown p" << p;
  if (sim_->IsCrashed(p)) return;
  sim_->Crash(p);  // drop inbound first, then lose the volatile state
  processors_[p]->Crash();
}

void Cluster::RestartProcessor(ProcessorId p) {
  LAZYTREE_CHECK(sim_ != nullptr) << "crash injection needs the sim transport";
  LAZYTREE_CHECK(p < options_.processors) << "restart of unknown p" << p;
  if (!sim_->IsCrashed(p)) return;
  // Learn the highest root any live peer knows — the restarted processor
  // rejoins the tree by asking a neighbor, like a fresh client would.
  NodeId hint = kInvalidNode;
  int32_t hint_level = -1;
  for (auto& peer : processors_) {
    if (peer->crashed() || peer->id() == p) continue;
    if (peer->store().root_level() > hint_level &&
        peer->store().root_hint().valid()) {
      hint = peer->store().root_hint();
      hint_level = peer->store().root_level();
    }
  }
  processors_[p]->Restart(MakeHandler(options_.protocol, *processors_[p]),
                          hint, hint_level);
  sim_->Restart(p);
}

std::map<history::CopyKey, NodeSnapshot> Cluster::CollectCopies() {
  std::map<history::CopyKey, NodeSnapshot> copies;
  for (auto& p : processors_) {
    const ProcessorId id = p->id();
    p->store().ForEach([&](const Node& node) {
      copies[history::CopyKey{node.id(), id}] = node.ToSnapshot();
    });
  }
  return copies;
}

history::CheckReport Cluster::VerifyHistories() {
  return history::CheckAll(history_, CollectCopies(), options_.history_check);
}

std::vector<Entry> Cluster::DumpLeaves() {
  // One representative copy per logical leaf (compatibility is checked
  // separately); leaves are disjoint so concatenation sorted by range low
  // yields the dictionary.
  std::map<NodeId, NodeSnapshot> leaves;
  for (auto& p : processors_) {
    p->store().ForEach([&](const Node& node) {
      if (node.level() != 0) return;
      auto [it, fresh] = leaves.try_emplace(node.id(), node.ToSnapshot());
      // Prefer the PC's copy as representative.
      if (!fresh && node.pc() == p->id()) it->second = node.ToSnapshot();
    });
  }
  std::vector<Entry> all;
  for (auto& [id, snap] : leaves) {
    all.insert(all.end(), snap.entries.begin(), snap.entries.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<std::string> Cluster::CheckTreeStructure() {
  std::vector<std::string> violations;
  // Representative snapshot per logical node.
  std::map<NodeId, NodeSnapshot> nodes;
  int32_t max_level = 0;
  for (auto& p : processors_) {
    p->store().ForEach([&](const Node& node) {
      nodes.try_emplace(node.id(), node.ToSnapshot());
      max_level = std::max(max_level, node.level());
    });
  }
  // Per level: ranges must chain [0 .. inf) along right links.
  for (int32_t level = 0; level <= max_level; ++level) {
    const NodeSnapshot* cur = nullptr;
    for (auto& [id, snap] : nodes) {
      if (snap.level == level && snap.range.low == 0) {
        if (cur != nullptr) {
          violations.push_back("level " + std::to_string(level) +
                               ": two leftmost nodes");
        }
        cur = &snap;
      }
    }
    if (cur == nullptr) {
      violations.push_back("level " + std::to_string(level) +
                           ": no leftmost node");
      continue;
    }
    std::set<NodeId> seen;
    while (true) {
      if (!seen.insert(cur->id).second) {
        violations.push_back("level " + std::to_string(level) +
                             ": right-link cycle at " + cur->id.ToString());
        break;
      }
      if (cur->range.high == kKeyInfinity) break;
      if (cur->right_low != cur->range.high) {
        violations.push_back(cur->id.ToString() +
                             ": right_low != range.high");
      }
      auto it = nodes.find(cur->right);
      if (it == nodes.end()) {
        violations.push_back(cur->id.ToString() + ": dangling right link");
        break;
      }
      if (it->second.range.low != cur->range.high) {
        violations.push_back(cur->id.ToString() + " -> " +
                             it->second.id.ToString() +
                             ": range gap/overlap");
        break;
      }
      cur = &it->second;
    }
  }
  // Interior entries must point at existing nodes one level down.
  for (auto& [id, snap] : nodes) {
    if (snap.level == 0) continue;
    for (const Entry& e : snap.entries) {
      auto it = nodes.find(NodeId{e.payload});
      if (it == nodes.end()) {
        violations.push_back(id.ToString() + ": child " +
                             NodeId{e.payload}.ToString() + " missing");
      } else if (it->second.level != snap.level - 1) {
        violations.push_back(id.ToString() + ": child level mismatch");
      }
    }
  }
  return violations;
}

}  // namespace lazytree
