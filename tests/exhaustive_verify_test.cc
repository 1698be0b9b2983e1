// Exhaustive bounded verification tests (src/sim/exhaustive.h).
//
// These pin the acceptance surface of lazytree_verify: every shipped
// protocol's bounded configuration exhausts clean within tier-1 time, under
// both per-hop navigation and inline local descent, the
// commutativity-guided POR + state dedup reduce the explored executions by
// well over the required factor versus the naive DFS, the POR runtime
// cross-check and prefix-replay determinism check stay silent on healthy
// code, and both planted protocol mutations are detected with a minimized
// trace that replays to the same failure under plain ReplayEpisode.

#include <gtest/gtest.h>

#include <string>

#include "src/sim/exhaustive.h"

namespace lazytree {
namespace {

using sim::EpisodeResult;
using sim::ReplayEpisode;
using sim::VerifyConfig;
using sim::VerifyExhaustive;
using sim::VerifyResult;

// Mirrors the battery configs in verify_main.cc: small on purpose, but
// still splitting (fanout 3, more inserts than one leaf holds) with
// replicated leaves relaying lazy updates between two processors.
VerifyConfig BoundedConfig(ProtocolKind protocol) {
  VerifyConfig config;
  config.episode.protocol = protocol;
  config.episode.processors = 2;
  config.episode.seed = 1;
  config.episode.rounds = 1;
  config.episode.ops_per_round = 4;
  config.episode.key_space = 16;
  config.episode.fanout = 3;
  config.episode.leaf_replication = 2;
  config.episode.step_budget = 100000;
  if (protocol == ProtocolKind::kMobile ||
      protocol == ProtocolKind::kVarCopies) {
    config.episode.leaf_replication = 1;
    config.episode.shed_threshold = 1;
  }
  return config;
}

// The 4-processor membership-churn configuration whose starved schedules
// give the swap-ordered mutation a qualifying same-kind registration pair
// (two relayed joins/unjoins of different members queued on one channel).
VerifyConfig SwapMutationConfig() {
  VerifyConfig config = BoundedConfig(ProtocolKind::kVarCopies);
  config.episode.processors = 4;
  config.episode.rounds = 2;
  config.episode.ops_per_round = 6;
  config.episode.key_space = 32;
  config.episode.mutation = net::ScheduleMutation::kSwapOrdered;
  config.starve_victim = 1;
  config.max_executions = 20000;
  return config;
}

// Every protocol's bounded schedule space must exhaust with zero
// violations, zero cross-check failures, and zero determinism failures,
// under per-hop navigation and under inline local descent (the path a
// Cluster ships with: each op walks its processor's copies in one
// delivery).
TEST(ExhaustiveVerify, BoundedConfigsExhaustCleanOnAllProtocols) {
  for (bool inline_descent : {false, true}) {
    for (ProtocolKind protocol :
         {ProtocolKind::kSyncSplit, ProtocolKind::kSemiSyncSplit,
          ProtocolKind::kMobile, ProtocolKind::kVarCopies}) {
      SCOPED_TRACE(std::string(ProtocolKindName(protocol)) +
                   (inline_descent ? "-inline" : ""));
      VerifyConfig config = BoundedConfig(protocol);
      config.episode.local_fastpath = inline_descent;
      VerifyResult result = VerifyExhaustive(config);
      EXPECT_TRUE(result.ok) << result.Summary();
      EXPECT_TRUE(result.exhausted) << result.Summary();
      EXPECT_TRUE(result.violations.empty());
      EXPECT_GT(result.stats.schedules, 0u);
      EXPECT_GT(result.stats.pruned_sleep, 0u);  // POR actually engaged
      EXPECT_GT(result.stats.cross_checks, 0u);
      EXPECT_EQ(result.stats.cross_check_failures, 0u);
      EXPECT_EQ(result.stats.determinism_failures, 0u);
    }
  }
}

// The reductions must buy at least the required 5x over naive DFS on the
// semisync config. The naive run is capped at 32x the reduced execution
// count: either it exhausts below the cap (exact ratio, still >= 5x) or it
// hits the cap (ratio >= 32x, proven without running the full space).
TEST(ExhaustiveVerify, ReductionsBeatNaiveDfsByRequiredFactor) {
  VerifyConfig reduced = BoundedConfig(ProtocolKind::kSemiSyncSplit);
  VerifyResult fast = VerifyExhaustive(reduced);
  ASSERT_TRUE(fast.ok && fast.exhausted) << fast.Summary();

  VerifyConfig naive = reduced;
  naive.por = false;
  naive.dedup = false;
  naive.cross_check_samples = 0;
  naive.max_executions = fast.stats.executions * 32;
  VerifyResult slow = VerifyExhaustive(naive);
  EXPECT_TRUE(slow.ok) << slow.Summary();
  EXPECT_GE(slow.stats.executions, fast.stats.executions * 5)
      << "naive: " << slow.Summary() << "\nreduced: " << fast.Summary();
  // Naive exhaustion (when it fits the cap) must agree: no violations.
  if (slow.exhausted) {
    EXPECT_TRUE(slow.violations.empty());
  }
}

// Planted mutation 1: a dropped relayed lazy update must be flagged by the
// S3.1 compatible-histories check, and the minimized trace must replay to
// the same failure through the ordinary replay path.
TEST(ExhaustiveVerify, DetectsDroppedRelayWithReplayableTrace) {
  VerifyConfig config = BoundedConfig(ProtocolKind::kSemiSyncSplit);
  config.episode.mutation = net::ScheduleMutation::kDropRelay;
  VerifyResult result = VerifyExhaustive(config);
  ASSERT_FALSE(result.ok) << "planted mutation not detected";
  EXPECT_GT(result.stats.mutation_fired, 0u);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations[0].find("compatible"), std::string::npos)
      << result.violations[0];

  EpisodeResult replayed = ReplayEpisode(config.episode, result.trace);
  EXPECT_FALSE(replayed.ok) << "minimized trace must replay to failure";
}

// Planted mutation 2: swapping two version-ordered same-kind membership
// registrations past each other on one channel must diverge the receiving
// copy's history (the version gate drops the older registration), and the
// starvation-directed search must find it within budget.
TEST(ExhaustiveVerify, DetectsSwappedMembershipPairWithReplayableTrace) {
  VerifyConfig config = SwapMutationConfig();
  VerifyResult result = VerifyExhaustive(config);
  ASSERT_FALSE(result.ok) << "planted mutation not detected: "
                          << result.Summary();
  EXPECT_GT(result.stats.mutation_fired, 0u);
  ASSERT_FALSE(result.violations.empty());

  EpisodeResult replayed = ReplayEpisode(config.episode, result.trace);
  EXPECT_FALSE(replayed.ok) << "minimized trace must replay to failure";
  EXPECT_EQ(replayed.Signature(), result.violations[0]);
}

// A mutation planted in a config whose schedules never produce a
// qualifying pair must simply not fire — the verifier reports a clean
// exhaustion rather than a false positive (2 processors never relay
// membership, so swap-ordered has nothing to swap).
TEST(ExhaustiveVerify, UnfirableMutationYieldsCleanExhaustion) {
  VerifyConfig config = BoundedConfig(ProtocolKind::kVarCopies);
  config.episode.mutation = net::ScheduleMutation::kSwapOrdered;
  VerifyResult result = VerifyExhaustive(config);
  EXPECT_TRUE(result.ok) << result.Summary();
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.stats.mutation_fired, 0u);
}

}  // namespace
}  // namespace lazytree
