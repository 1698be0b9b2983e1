#include "src/server/links.h"

#include <algorithm>

#include "src/util/rng.h"

namespace lazytree {
namespace {

// RFC 6298's G on the steady clock: the time slice a runnable worker may
// wait for a core, so RTO = SRTT + max(G, 4·RTTVAR) outlasts a peer's
// preemption. On a 4-core host, bench_faults' 0%-loss threads row next to
// the rest of the suite (`ctest -j4`) resent 1.3% of its frames with 1 ms;
// with 5 ms it resent none in 7 runs at 4x CPU oversubscription.
constexpr uint64_t kRealClockGranularityUs = 5000;

bool LinksSettled(const std::vector<Links*>& links) {
  for (const Links* l : links) {
    if (!l->Settled()) return false;
  }
  return true;
}

}  // namespace

Links::Links(ProcessorId self, uint32_t processors, net::Network* network,
             const ReliabilityOptions& options, const LinkClock* clock)
    : self_(self),
      network_(network),
      options_(options),
      clock_(clock),
      peers_(processors) {
  for (Peer& p : peers_) {
    p.next_seq = options_.initial_seq;
    p.expected = options_.initial_seq;
    p.rto_us = RtoFor(p);
  }
}

uint64_t Links::RtoFor(const Peer& p) const {
  const uint64_t g = clock_->real() ? kRealClockGranularityUs : 0;
  return std::max(options_.rto_us,
                  p.srtt_us + std::max(g, 4 * p.rttvar_us));
}

uint64_t Links::BackoffUs(ProcessorId peer, const Peer& p) const {
  const uint64_t base = p.rto_us << std::min<uint32_t>(p.retries, 16);
  // Deterministic jitter: a pure hash of (seed, link, attempt), so replays
  // and the exhaustive verifier see identical timer schedules.
  uint64_t state = options_.seed;
  state ^= 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(self_) + 1);
  state ^= 0xC2B2AE3D27D4EB4Full * (static_cast<uint64_t>(peer) + 1);
  state ^= 0x165667B19E3779F9ull * (p.retries + 1);
  const uint64_t jitter =
      options_.jitter_us == 0 ? 0
                              : SplitMix64(state) % (options_.jitter_us + 1);
  return base + jitter;
}

void Links::AttachAck(Message& m, Peer& p) {
  m.ack = p.expected - 1;  // cumulative: everything below expected
  m.flags |= Message::kHasAck;
  if (p.ack_pending) {
    p.ack_pending = false;
    p.ack_deadline = net::kNoTimer;
    network_->stats().OnAckPiggybacked();
  }
}

bool Links::Send(Message m) {
  Peer& p = peers_[m.to];
  if (p.dead) return false;  // link declared down; ops already failed
  const uint64_t now = clock_->Now();
  m.seq = p.next_seq++;
  m.flags = 0;
  AttachAck(m, p);
  if (p.log.empty()) {
    p.rto_deadline = now + BackoffUs(m.to, p);
    p.stalled_since = now;
  }
  if (!p.timing && clock_->real()) {
    p.timing = true;
    p.timed_seq = m.seq;
    p.timed_at = now;
  }
  p.log.push_back(std::move(m));
  network_->SendCopy(p.log.back());
  return true;
}

void Links::SampleRtt(Peer& p, uint64_t rtt_us) {
  // Jacobson/Karels with RFC 6298's gains (1/8, 1/4), in whole µs.
  if (!p.has_rtt) {
    p.has_rtt = true;
    p.srtt_us = rtt_us;
    p.rttvar_us = rtt_us / 2;
  } else {
    const uint64_t err =
        p.srtt_us > rtt_us ? p.srtt_us - rtt_us : rtt_us - p.srtt_us;
    p.rttvar_us = (3 * p.rttvar_us + err) / 4;
    p.srtt_us = (7 * p.srtt_us + rtt_us) / 8;
  }
  p.rto_us = RtoFor(p);
}

void Links::RetireAcked(ProcessorId peer, Peer& p, uint64_t ack,
                        uint64_t now) {
  bool progress = false;
  while (!p.log.empty() &&
         static_cast<int64_t>(p.log.front().seq - ack) <= 0) {
    p.log.pop_front();
    progress = true;
  }
  if (!progress) return;
  if (p.timing && static_cast<int64_t>(p.timed_seq - ack) <= 0) {
    p.timing = false;
    SampleRtt(p, now - p.timed_at);
  }
  p.retries = 0;
  if (p.log.empty()) {
    p.rto_deadline = net::kNoTimer;
  } else {
    p.rto_deadline = now + BackoffUs(peer, p);
    p.stalled_since = now;
  }
}

bool Links::Accept(Message& m) {
  released_.clear();
  Peer& p = peers_[m.from];
  const uint64_t now = clock_->Now();
  if (m.flags & Message::kHasAck) RetireAcked(m.from, p, m.ack, now);
  if (m.flags & Message::kAckOnly) return false;  // never handled upward

  const int64_t diff = static_cast<int64_t>(m.seq - p.expected);
  if (diff == 0) {
    ++p.expected;
    while (!p.reorder.empty() && p.reorder.begin()->first == p.expected) {
      released_.push_back(std::move(p.reorder.begin()->second));
      p.reorder.erase(p.reorder.begin());
      ++p.expected;
    }
    if (!p.ack_pending) {
      p.ack_pending = true;
      p.ack_deadline = now + options_.ack_delay_us;
    }
    return true;
  }
  if (diff < 0 || p.reorder.count(m.seq) != 0) {
    // Stale or duplicate frame: the peer is (re)sending something we
    // already have, so re-ack eagerly to shut its timer down.
    network_->stats().OnDuplicateDropped();
    p.ack_pending = true;
    p.ack_deadline = now;
  } else if (p.reorder.size() < options_.reorder_window) {
    p.reorder.emplace(m.seq, std::move(m));
  }
  // else: reorder window overflow — drop; go-back-N recovers it.
  return false;
}

uint64_t Links::NextDeadline() const {
  uint64_t next = net::kNoTimer;
  for (const Peer& p : peers_) {
    if (!p.dead && !p.log.empty()) next = std::min(next, p.rto_deadline);
    if (p.ack_pending) next = std::min(next, p.ack_deadline);
  }
  return next;
}

Links::Fired Links::FireRetransmit(ProcessorId peer, uint64_t now) {
  Peer& p = peers_[peer];
  if (p.dead || p.log.empty() || p.rto_deadline > now) {
    return Fired::kNothing;
  }
  if (now - p.stalled_since >= options_.link_down_after_us) {
    // Budget spent: declare the link down instead of hanging Settle().
    p.dead = true;
    p.log.clear();
    p.rto_deadline = net::kNoTimer;
    p.timing = false;
    any_down_ = true;
    network_->stats().OnLinkDown();
    return Fired::kDown;
  }
  ++p.retries;
  p.timing = false;  // Karn: an ack may now answer either copy
  network_->stats().OnRetransmit(p.log.size());
  for (const Message& frame : p.log) {
    Message copy = frame;
    copy.flags |= Message::kRetransmit;
    AttachAck(copy, p);
    network_->Send(std::move(copy));
  }
  p.rto_deadline = now + BackoffUs(peer, p);
  return Fired::kResent;
}

bool Links::FireAck(ProcessorId peer, uint64_t now) {
  Peer& p = peers_[peer];
  if (!p.ack_pending || p.ack_deadline > now) return false;
  Message ack;
  ack.from = self_;
  ack.to = peer;
  ack.flags = Message::kHasAck | Message::kAckOnly;
  ack.ack = p.expected - 1;
  p.ack_pending = false;
  p.ack_deadline = net::kNoTimer;
  network_->Send(std::move(ack));
  return true;
}

void Links::FireDue(uint64_t now, std::vector<ProcessorId>* downs) {
  const auto n = static_cast<ProcessorId>(peers_.size());
  for (ProcessorId peer = 0; peer < n; ++peer) {
    if (FireRetransmit(peer, now) == Fired::kDown) downs->push_back(peer);
  }
  for (ProcessorId peer = 0; peer < n; ++peer) FireAck(peer, now);
}

bool Links::Settled() const {
  for (const Peer& p : peers_) {
    if ((!p.dead && !p.log.empty()) || p.ack_pending) return false;
  }
  return true;
}

size_t Links::Unacked() const {
  size_t total = 0;
  for (const Peer& p : peers_) total += p.log.size();
  return total;
}

void Links::MixState(Fingerprint& fp) const {
  const uint64_t now = clock_->Now();
  // Deadlines mix relative to the clock: absolute times grow
  // monotonically and would make every state unique.
  auto relative = [now](uint64_t deadline) {
    return deadline == net::kNoTimer ? 0 : deadline - now + 1;
  };
  fp.Mix(0x4C494E4B53544D58ull);  // "LINKSTMX"
  for (const Peer& p : peers_) {
    fp.Mix(p.next_seq);
    fp.Mix(p.log.size());
    for (const Message& frame : p.log) fp.Mix(frame.seq);
    fp.Mix(p.retries);
    fp.Mix(p.dead ? 1 : 0);
    fp.Mix(relative(p.rto_deadline));
    fp.Mix(p.expected);
    fp.Mix(p.reorder.size());
    for (const auto& [seq, m] : p.reorder) fp.Mix(seq);
    fp.Mix(p.ack_pending ? 1 : 0);
    fp.Mix(relative(p.ack_deadline));
  }
}

bool PumpLinks(const std::vector<Links*>& links, LinkClock& clock,
               const LinkDownFn& on_down) {
  uint64_t next = net::kNoTimer;
  for (const Links* l : links) next = std::min(next, l->NextDeadline());
  if (next == net::kNoTimer) return false;
  clock.AdvanceTo(next);
  const uint64_t now = clock.Now();
  const auto n = static_cast<ProcessorId>(links.size());
  bool fired = false;
  std::vector<std::pair<ProcessorId, ProcessorId>> downs;
  for (ProcessorId from = 0; from < n; ++from) {
    for (ProcessorId to = 0; to < n; ++to) {
      switch (links[from]->FireRetransmit(to, now)) {
        case Links::Fired::kNothing: break;
        case Links::Fired::kResent: fired = true; break;
        case Links::Fired::kDown: downs.emplace_back(from, to); break;
      }
    }
  }
  for (ProcessorId from = 0; from < n; ++from) {
    for (ProcessorId to = 0; to < n; ++to) {
      fired |= links[to]->FireAck(from, now);
    }
  }
  for (const auto& [from, to] : downs) on_down(from, to);
  return fired || !downs.empty();
}

bool DrainLinks(net::Network& network, const std::vector<Links*>& links,
                LinkClock& clock, const LinkDownFn& on_down,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (!network.WaitQuiescent(std::max(remaining,
                                        std::chrono::milliseconds(0)))) {
      return false;
    }
    if (LinksSettled(links)) return true;
    // A live unacked log or a pending ack always carries a deadline, so
    // a pump that fires nothing means there is nothing left to wait for.
    if (!PumpLinks(links, clock, on_down)) return LinksSettled(links);
  }
}

}  // namespace lazytree
