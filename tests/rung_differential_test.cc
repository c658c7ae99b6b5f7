// Differential test: the heap-indexed Rung against a naive reference
// implementation, under long random interleavings of Record /
// MarkPromoted / FirstPromotable. The incremental two-heap candidate index
// and its lazily pruned candidate heap in core/rung.cc are the subtlest
// code in the scheduler hot path; this suite pins them to the
// obviously-correct version.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/rung.h"

namespace hypertune {
namespace {

/// The obviously-correct rung: a sorted vector, full prefix scan on every
/// query.
class ReferenceRung {
 public:
  /// Inserts in sorted position. `eta` is only used to count promoted
  /// entries re-entering the best floor(n/eta) after being pushed out.
  void Record(TrialId id, double loss, double eta) {
    const std::pair<double, TrialId> entry{loss, id};
    const std::size_t k_before = Prefix(eta);
    const auto pos = static_cast<std::size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), entry) -
        sorted_.begin());
    sorted_.insert(sorted_.begin() + static_cast<long>(pos), entry);
    const std::size_t k_after = Prefix(eta);
    if (pos < k_before && k_after == k_before) {
      // sorted_[k_after] was pushed out of the prefix by the new entry.
      const TrialId out = sorted_[k_after].second;
      if (promoted_.contains(out)) pushed_out_.insert(out);
    } else if (k_after > k_before) {
      const TrialId in = sorted_[k_after - 1].second;
      if (pushed_out_.erase(in) > 0) ++promoted_reentries_;
    }
  }

  void MarkPromoted(TrialId id) { promoted_.insert(id); }

  std::optional<TrialId> FirstPromotable(double eta) const {
    for (std::size_t i = 0; i < Prefix(eta); ++i) {
      if (!promoted_.contains(sorted_[i].second)) return sorted_[i].second;
    }
    return std::nullopt;
  }

  std::vector<TrialId> Promotable(double eta) const {
    std::vector<TrialId> out;
    for (std::size_t i = 0; i < Prefix(eta); ++i) {
      if (!promoted_.contains(sorted_[i].second)) {
        out.push_back(sorted_[i].second);
      }
    }
    return out;
  }

  /// Promoted entries that left the prefix and later re-entered it.
  int promoted_reentries() const { return promoted_reentries_; }

 private:
  std::size_t Prefix(double eta) const {
    return static_cast<std::size_t>(static_cast<double>(sorted_.size()) /
                                    eta);
  }

  std::vector<std::pair<double, TrialId>> sorted_;
  std::unordered_set<TrialId> promoted_;
  std::unordered_set<TrialId> pushed_out_;
  int promoted_reentries_ = 0;
};

struct FuzzParams {
  double eta;
  std::uint64_t seed;
  int steps;
  /// Probability a step promotes (via the real rung's answer) vs records.
  double promote_probability;
  /// Losses drawn from a small discrete set to force ties when true.
  bool heavy_ties;
};

/// A fuzz run with a scripted twist on top of the random interleaving.
struct ScenarioParams {
  FuzzParams fuzz;
  /// Nonzero: eta switches to this value halfway through (the real rung
  /// rebuilds its candidate heaps).
  double eta_after;
  /// Distinct loss levels when heavy_ties (few levels make promoted
  /// entries leave the prefix and re-enter it as it grows).
  int tie_levels;
  /// The run must see at least this many such promoted re-entries.
  int min_reentries;
};

/// Drives the real and the reference rung through the same random
/// operations and asserts they agree throughout.
void RunDifferential(const ScenarioParams& scenario) {
  const FuzzParams& params = scenario.fuzz;
  Rng rng(params.seed);
  Rung rung;
  ReferenceRung reference;
  TrialId next_id = 0;
  double eta = params.eta;
  // Full-set comparisons sort the whole rung; space them out on long runs.
  const int check_every = std::max(64, params.steps / 64);

  for (int step = 0; step < params.steps; ++step) {
    if (scenario.eta_after != 0 && step == params.steps / 2) {
      eta = scenario.eta_after;
    }
    const bool try_promote = rng.Bernoulli(params.promote_probability);
    if (try_promote) {
      const auto real = rung.FirstPromotable(eta);
      const auto expected = reference.FirstPromotable(eta);
      // The O(1) existence check must agree with the full query at every
      // interleaving point (it backs Scheduler::Finished).
      ASSERT_EQ(rung.HasPromotable(eta), expected.has_value())
          << "step " << step;
      // Ties in the reference are broken by (loss, id) just like the real
      // heaps' ordering, so answers must agree exactly.
      ASSERT_EQ(real.has_value(), expected.has_value()) << "step " << step;
      if (real) {
        ASSERT_EQ(*real, *expected) << "step " << step;
        rung.MarkPromoted(*real);
        reference.MarkPromoted(*expected);
      }
    } else {
      const double loss =
          params.heavy_ties
              ? 0.1 * static_cast<double>(
                          rng.UniformInt(0, scenario.tie_levels - 1))
              : rng.Uniform();
      rung.Record(next_id, loss);
      reference.Record(next_id, loss, eta);
      ++next_id;
    }
    if (step % check_every == 0) {
      // Periodically compare the full promotable sets too.
      ASSERT_EQ(rung.PromotableTrials(eta), reference.Promotable(eta))
          << "step " << step;
    }
  }
  // Final full-state agreement.
  EXPECT_EQ(rung.PromotableTrials(eta), reference.Promotable(eta));
  EXPECT_EQ(rung.FirstPromotable(eta).has_value(),
            reference.FirstPromotable(eta).has_value());
  EXPECT_EQ(rung.HasPromotable(eta),
            reference.FirstPromotable(eta).has_value());
  EXPECT_GE(reference.promoted_reentries(), scenario.min_reentries);
}

std::string FuzzName(const FuzzParams& p) {
  return "eta" + std::to_string(static_cast<int>(p.eta)) + "_seed" +
         std::to_string(p.seed) + (p.heavy_ties ? "_ties" : "_uniform");
}

class RungDifferential : public testing::TestWithParam<FuzzParams> {};

TEST_P(RungDifferential, MatchesReferenceUnderRandomOps) {
  RunDifferential(ScenarioParams{GetParam(), 0, 6, 0});
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RungDifferential,
    testing::Values(FuzzParams{2.0, 1, 4000, 0.3, false},
                    FuzzParams{2.0, 2, 4000, 0.6, true},
                    FuzzParams{3.0, 3, 4000, 0.4, false},
                    FuzzParams{3.0, 4, 2000, 0.5, true},
                    FuzzParams{4.0, 5, 4000, 0.2, false},
                    FuzzParams{4.0, 6, 4000, 0.45, true},
                    FuzzParams{8.0, 7, 4000, 0.3, false},
                    FuzzParams{2.0, 8, 500, 0.05, true},
                    FuzzParams{4.0, 9, 500, 0.9, false}),
    [](const testing::TestParamInfo<FuzzParams>& info) {
      return FuzzName(info.param);
    });

class RungDifferentialScenario
    : public testing::TestWithParam<ScenarioParams> {};

TEST_P(RungDifferentialScenario, MatchesReferenceUnderRandomOps) {
  RunDifferential(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RungDifferentialScenario,
    testing::Values(
        // eta switches mid-stream: the rebuild path.
        ScenarioParams{{4.0, 10, 4000, 0.3, true}, 2.0, 6, 0},
        // ASHA's bottom rung at sweep scale.
        ScenarioParams{{4.0, 11, 60000, 0.25, false}, 0, 0, 0},
        // Two loss levels: promoted entries are pushed out of the prefix by
        // better arrivals and re-enter it as it grows.
        ScenarioParams{{2.0, 12, 4000, 0.5, true}, 0, 2, 1}),
    [](const testing::TestParamInfo<ScenarioParams>& info) {
      const auto& p = info.param;
      std::string name = FuzzName(p.fuzz);
      if (p.eta_after != 0) {
        name += "_to_eta" + std::to_string(static_cast<int>(p.eta_after));
      }
      return name;
    });

}  // namespace
}  // namespace hypertune
