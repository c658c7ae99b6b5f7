// A rung: the set of configurations evaluated at one resource level of a
// successive-halving bracket, with promotion bookkeeping.
//
// Implementation notes: results are appended to a flat vector, and one
// id -> promoted hash index answers Contains / IsPromoted / MarkPromoted.
// The index is sparse because trial ids are global to the bank and every
// synchronous-SHA bracket instance owns its own rungs; a dense vector
// indexed by id made small rungs pay for the whole id range. Nothing keeps
// the results sorted: large-scale simulations push tens of thousands of
// results into the bottom rung, and a node-based ordered set made every one
// of them pay for a tree insert.
//
// The promotion candidates — the best floor(n/eta) entries — are tracked
// incrementally by a pair of heaps over (loss, id), a total order:
//   - `top_`, a max-heap holding exactly the best floor(n/eta) entries;
//   - `rest_`, a min-heap holding the others.
// Each Record keeps the two balanced in O(log n). Unpromoted entries that
// enter `top_` are pushed onto `candidates_`, a min-heap pruned lazily: an
// entry there is live iff it is unpromoted and <= top_'s max (i.e. still in
// the best floor(n/eta)). FirstPromotable pops dead entries off the front
// and answers with the first live one, so worker storms that call it on
// every request pay O(1) amortized when nothing is promotable.
//
// The heaps are built lazily on the first promotion query (or when eta
// changes), so synchronous SHA — which only records and asks for TopK —
// never maintains them.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"

namespace hypertune {

class Rung {
 public:
  /// (loss, trial); ordered by loss, ties by trial id.
  using Entry = std::pair<double, TrialId>;

  /// Records a completed evaluation. A trial may appear at most once.
  void Record(TrialId id, double loss);

  bool Contains(TrialId id) const { return promoted_.contains(id); }

  /// Number of recorded results ("|rung k|" in Algorithm 2).
  std::size_t NumRecorded() const { return entries_.size(); }

  /// Marks a trial as promoted out of this rung. Requires it was recorded
  /// here and not already promoted.
  void MarkPromoted(TrialId id);

  bool IsPromoted(TrialId id) const;

  std::size_t NumPromoted() const { return num_promoted_; }

  /// Algorithm 2 lines 14-17: the best not-yet-promoted trial among the top
  /// floor(NumRecorded()/eta), if any. `eta` must be >= 2; changing it
  /// between calls rebuilds the candidate heaps.
  std::optional<TrialId> FirstPromotable(double eta) const;

  /// FirstPromotable(eta).has_value() without building the optional: O(1)
  /// amortized against the incremental index, allocation-free. Schedulers'
  /// Finished() checks run this on every worker-loop iteration.
  bool HasPromotable(double eta) const;

  /// All promotable trials (best first); used by tests as the oracle the
  /// incremental index is differential-tested against.
  std::vector<TrialId> PromotableTrials(double eta) const;

  /// The best `k` recorded trials (fewer if the rung is smaller), best
  /// first, regardless of promotion state — synchronous SHA's rung-
  /// completion elimination (Algorithm 1 line 10).
  std::vector<TrialId> TopK(std::size_t k) const;

  /// Lowest recorded loss; +inf when empty.
  double BestLoss() const { return best_.first; }

  /// Trial id achieving BestLoss(); -1 when empty.
  TrialId BestTrial() const { return best_.second; }

  /// (loss, trial) pairs in ascending order: a sorted copy, built for
  /// snapshots and tests only.
  std::vector<Entry> results() const;

 private:
  /// (Re)builds the candidate heaps for the given eta.
  void RebuildIndex(double eta) const;
  /// Pops dead entries off the candidate heap; returns the live front.
  const Entry* FrontCandidate() const;

  std::vector<Entry> entries_;  // append-only, in Record order
  std::unordered_map<TrialId, bool> promoted_;  // every recorded id
  std::size_t num_promoted_ = 0;
  Entry best_{std::numeric_limits<double>::infinity(), TrialId{-1}};

  // Candidate index (mutable: built lazily on the first query).
  mutable bool index_valid_ = false;
  mutable double eta_ = 0;
  mutable std::vector<Entry> top_;         // max-heap, best floor(n/eta)
  mutable std::vector<Entry> rest_;        // min-heap, everything else
  mutable std::vector<Entry> candidates_;  // min-heap, pruned lazily
};

}  // namespace hypertune
