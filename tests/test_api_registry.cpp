// Tests of the drrg::api runner facade and algorithm registry: the
// registry (not a hand-written table) is the source of truth for which
// algorithm implements which aggregate, and every supported pair must
// produce a consensus value within the family's error bound at delta = 0.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/registry.hpp"

namespace drrg::api {
namespace {


/// Builds a spec without designated initializers (keeps -Wextra quiet).
RunSpec make_spec(std::uint32_t n, Aggregate agg = Aggregate::kAve,
                  std::uint64_t seed = 42) {
  RunSpec spec;
  spec.n = n;
  spec.aggregate = agg;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// Registry contents.

TEST(Registry, BuiltinAlgorithmsAreRegistered) {
  const std::vector<std::string> expected{"drr",     "uniform",   "efficient",
                                          "pairwise", "extrema",  "chord-drr",
                                          "chord-uniform"};
  const auto names = Registry::instance().names();
  for (const auto& name : expected)
    EXPECT_NE(Registry::instance().find(name), nullptr) << name;
  EXPECT_GE(names.size(), expected.size());
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(Registry::instance().find("no-such-algorithm"), nullptr);
}

TEST(Registry, DeclaredAggregateSets) {
  const auto* drr = Registry::instance().find("drr");
  ASSERT_NE(drr, nullptr);
  for (Aggregate agg : kAllAggregates) EXPECT_TRUE(drr->supports(agg));

  const auto* pairwise = Registry::instance().find("pairwise");
  ASSERT_NE(pairwise, nullptr);
  EXPECT_TRUE(pairwise->supports(Aggregate::kAve));
  EXPECT_FALSE(pairwise->supports(Aggregate::kMax));

  const auto* extrema = Registry::instance().find("extrema");
  ASSERT_NE(extrema, nullptr);
  EXPECT_TRUE(extrema->supports(Aggregate::kCount));
  EXPECT_TRUE(extrema->supports(Aggregate::kSum));
  EXPECT_FALSE(extrema->supports(Aggregate::kAve));
}

TEST(Registry, DuplicateRegistrationThrows) {
  AlgorithmInfo dup;
  dup.name = "drr";
  dup.invoke = [](const RunSpec&) { return RunReport{}; };
  EXPECT_THROW(Registry::instance().add(std::move(dup)), std::invalid_argument);
}

TEST(Registry, AggregateNamesRoundTrip) {
  for (Aggregate agg : kAllAggregates) {
    const auto back = aggregate_from_name(to_string(agg));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, agg);
  }
  EXPECT_FALSE(aggregate_from_name("no-such-aggregate").has_value());
}

// ---------------------------------------------------------------------------
// Error reporting through run().

TEST(Run, UnknownAlgorithmIsReported) {
  const RunReport r = run("no-such-algorithm", make_spec(64));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.supported);
  EXPECT_NE(r.error.find("unknown algorithm"), std::string::npos);
}

TEST(Run, UnsupportedPairIsReported) {
  const RunReport r = run("pairwise", make_spec(64, Aggregate::kMax));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.supported);
  EXPECT_NE(r.error.find("not supported"), std::string::npos);
}

TEST(Run, ConfigTypeMismatchIsReported) {
  RunSpec spec = make_spec(64);
  spec.config = PairwiseConfig{};  // wrong type for "drr"
  const RunReport r = run("drr", spec);
  EXPECT_TRUE(r.supported);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
}

TEST(Run, ExplicitValuesAreUsed) {
  RunSpec spec = make_spec(8, Aggregate::kMax, 3);
  spec.values = {1, 2, 3, 4, 5, 6, 7, 99};
  const RunReport r = run("drr", spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 99.0);
  EXPECT_EQ(r.truth, 99.0);
}

// ---------------------------------------------------------------------------
// run_trials determinism.

TEST(RunTrials, DistinctSeedsDeterministicReports) {
  const RunSpec spec = make_spec(128, Aggregate::kAve, 9);
  const auto a = run_trials("drr", spec, 3);
  const auto b = run_trials("drr", spec, 3);
  ASSERT_EQ(a.size(), 3u);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(a[t].seed, trial_seed(spec.seed, t));  // derived, order-independent
    EXPECT_EQ(a[t].value, b[t].value);
    EXPECT_EQ(a[t].cost.sent, b[t].cost.sent);
  }
  EXPECT_EQ(a[0].seed, spec.seed);  // trial 0 runs the spec's own seed
}

// ---------------------------------------------------------------------------
// The full matrix at delta = 0, and again with a mid-run join: every pair
// is enumerated from the registry; unsupported pairs are reported (not
// skipped); supported pairs produce a value.  The joiners arrive at round
// 40, after every DRR family has fixed its forest, so they are alive but
// outside the overlay and every Phase III protocol must drop calls that
// land on them.

TEST(RunMatrix, EnumeratesEveryAlgorithmAggregatePair) {
  RunSpec late_join = make_spec(256, Aggregate::kAve, 17);
  late_join.faults.joins = {{40, 0.1}};
  for (const RunSpec& base : {make_spec(256, Aggregate::kAve, 17), late_join}) {
    const std::string pass = base.faults.joins.empty() ? "clean" : "join 40:0.1";
    const auto reports = run_matrix(base);

    const auto algos = Registry::instance().algorithms();
    ASSERT_EQ(reports.size(), algos.size() * std::size(kAllAggregates)) << pass;

    std::size_t supported_pairs = 0;
    for (const RunReport& r : reports) {
      const auto* algo = Registry::instance().find(r.algorithm);
      ASSERT_NE(algo, nullptr) << r.algorithm;
      const std::string label =
          pass + ": " + r.algorithm + "/" + std::string{to_string(r.aggregate)};
      if (!algo->supports(r.aggregate)) {
        EXPECT_FALSE(r.supported) << label;
        EXPECT_FALSE(r.error.empty()) << label;
        continue;
      }
      ++supported_pairs;
      ASSERT_TRUE(r.ok()) << label << ": " << r.error;
      EXPECT_GT(r.cost.sent, 0u) << label;
    }
    // The seven built-ins implement 8 + 2 + 2 + 1 + 2 + 2 + 2 pairs.
    EXPECT_GE(supported_pairs, 19u) << pass;
  }
}

// ---------------------------------------------------------------------------
// Consensus and truth-error bounds for every supported pair, with each
// family given the configuration its accuracy analysis assumes (the
// epsilon-averagers need more push rounds at small n, exactly as the
// failure benches configure them).

/// Per-algorithm config for the convergence matrix.
AlgorithmConfig convergence_config(const std::string& algo) {
  if (algo == "drr") {
    DrrGossipConfig cfg;
    cfg.push_sum.rounds_multiplier = 8.0;
    return cfg;
  }
  if (algo == "chord-drr") {
    SparseGossipConfig cfg;
    cfg.push_sum.rounds_multiplier = 8.0;
    return cfg;
  }
  if (algo == "pairwise") {
    PairwiseConfig cfg;
    cfg.round_multiplier = 12.0;
    cfg.extra_rounds = 16;
    return cfg;
  }
  if (algo == "chord-uniform") {
    ChordUniformConfig cfg;
    cfg.round_multiplier = 16.0;
    cfg.extra_rounds = 8;
    return cfg;
  }
  if (algo == "extrema") {
    ExtremaConfig cfg;
    cfg.k = 256;  // rse ~ 6.3%
    return cfg;
  }
  return {};
}

/// Relative-error bound (RunReport::rel_error) per pair at delta = 0.
/// Idempotent aggregates are exact; push-sum-based ones carry the
/// epsilon of their round budget; extrema Count/Sum is an estimator with
/// rse 1/sqrt(k-2) ~ 6.3% at k = 256 (bound ~4 sigma).
double error_bound(const std::string& algo, Aggregate agg) {
  if (algo == "extrema") return 0.25;
  if (agg == Aggregate::kMax || agg == Aggregate::kMin || agg == Aggregate::kLeader)
    return 0.0;
  if (agg == Aggregate::kMedian) return 0.05;  // bisection resolution
  return 1e-3;  // the push-sum / pairwise averaging family
}

TEST(RunMatrix, SupportedPairsReachConsensusWithinErrorBounds) {
  for (const AlgorithmInfo* algo : Registry::instance().algorithms()) {
    for (Aggregate agg : kAllAggregates) {
      if (!algo->supports(agg)) continue;
      RunSpec spec = make_spec(256, agg, 17);
      spec.rank_threshold = 25.0;
      spec.config = convergence_config(algo->name);
      const RunReport r = run(algo->name, spec);
      const std::string label = algo->name + "/" + std::string{to_string(agg)};
      ASSERT_TRUE(r.ok()) << label << ": " << r.error;
      EXPECT_TRUE(r.consensus) << label;
      EXPECT_LE(r.rel_error(), error_bound(algo->name, agg))
          << label << ": value " << r.value << " vs truth " << r.truth;
    }
  }
}

}  // namespace
}  // namespace drrg::api
