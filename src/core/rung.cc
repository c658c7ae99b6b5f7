#include "core/rung.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace hypertune {

namespace {

// `top_` is a max-heap (std::less); `rest_` and `candidates_` are
// min-heaps (std::greater).
using MaxFirst = std::less<Rung::Entry>;
using MinFirst = std::greater<Rung::Entry>;

template <typename Compare>
void HeapPush(std::vector<Rung::Entry>& heap, const Rung::Entry& entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), Compare{});
}

template <typename Compare>
Rung::Entry HeapPop(std::vector<Rung::Entry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), Compare{});
  const Rung::Entry front = heap.back();
  heap.pop_back();
  return front;
}

std::size_t CandidateCount(std::size_t recorded, double eta) {
  return static_cast<std::size_t>(static_cast<double>(recorded) / eta);
}

}  // namespace

void Rung::RebuildIndex(double eta) const {
  eta_ = eta;
  const std::size_t k = CandidateCount(entries_.size(), eta);
  top_.assign(entries_.begin(), entries_.end());
  if (k < top_.size()) {
    std::nth_element(top_.begin(), top_.begin() + static_cast<long>(k),
                     top_.end());
  }
  rest_.assign(top_.begin() + static_cast<long>(k), top_.end());
  top_.resize(k);
  std::make_heap(top_.begin(), top_.end(), MaxFirst{});
  std::make_heap(rest_.begin(), rest_.end(), MinFirst{});
  candidates_.clear();
  for (const Entry& entry : top_) {
    if (!promoted_.at(entry.second)) candidates_.push_back(entry);
  }
  std::make_heap(candidates_.begin(), candidates_.end(), MinFirst{});
  index_valid_ = true;
}

void Rung::Record(TrialId id, double loss) {
  const bool inserted = promoted_.try_emplace(id, false).second;
  HT_CHECK_MSG(inserted, "trial " << id << " already recorded in rung");
  const Entry entry{loss, id};
  entries_.push_back(entry);
  if (entries_.size() == 1 || entry < best_) best_ = entry;
  if (!index_valid_) return;

  // k = floor(n / eta) grows by at most one per record (eta >= 2).
  const bool grows = CandidateCount(entries_.size(), eta_) > top_.size();
  if (!top_.empty() && entry < top_.front()) {
    // The new (unpromoted) entry joins the best k; unless k grew, top's
    // old max leaves it, and its copy in candidates_ is pruned lazily.
    HeapPush<MaxFirst>(top_, entry);
    HeapPush<MinFirst>(candidates_, entry);
    if (!grows) HeapPush<MinFirst>(rest_, HeapPop<MaxFirst>(top_));
  } else {
    HeapPush<MinFirst>(rest_, entry);
    if (grows) {
      const Entry joined = HeapPop<MinFirst>(rest_);
      HeapPush<MaxFirst>(top_, joined);
      if (!promoted_.at(joined.second)) {
        HeapPush<MinFirst>(candidates_, joined);
      }
    }
  }
}

void Rung::MarkPromoted(TrialId id) {
  const auto it = promoted_.find(id);
  HT_CHECK_MSG(it != promoted_.end(), "promoting trial " << id
                                                          << " not in rung");
  HT_CHECK_MSG(!it->second, "trial " << id << " promoted twice");
  it->second = true;
  ++num_promoted_;
  // candidates_ drops the entry lazily (FrontCandidate).
}

bool Rung::IsPromoted(TrialId id) const {
  const auto it = promoted_.find(id);
  return it != promoted_.end() && it->second;
}

const Rung::Entry* Rung::FrontCandidate() const {
  // A candidate is live iff it is still among the best k (<= top's max;
  // (loss, id) is a total order, so this is exact) and unpromoted.
  while (!candidates_.empty()) {
    const Entry& front = candidates_.front();
    if (!(top_.front() < front) && !promoted_.at(front.second)) {
      return &front;
    }
    HeapPop<MinFirst>(candidates_);
  }
  return nullptr;
}

std::optional<TrialId> Rung::FirstPromotable(double eta) const {
  HT_CHECK(eta >= 2.0);
  if (!index_valid_ || eta_ != eta) RebuildIndex(eta);
  const Entry* front = FrontCandidate();
  if (front == nullptr) return std::nullopt;
  return front->second;
}

bool Rung::HasPromotable(double eta) const {
  HT_CHECK(eta >= 2.0);
  if (!index_valid_ || eta_ != eta) RebuildIndex(eta);
  return FrontCandidate() != nullptr;
}

std::vector<TrialId> Rung::PromotableTrials(double eta) const {
  HT_CHECK(eta >= 2.0);
  const std::vector<Entry> sorted = results();
  const std::size_t k = CandidateCount(sorted.size(), eta);
  std::vector<TrialId> out;
  for (std::size_t i = 0; i < k; ++i) {
    if (!promoted_.at(sorted[i].second)) out.push_back(sorted[i].second);
  }
  return out;
}

std::vector<TrialId> Rung::TopK(std::size_t k) const {
  std::vector<Entry> best = entries_;
  k = std::min(k, best.size());
  std::partial_sort(best.begin(), best.begin() + static_cast<long>(k),
                    best.end());
  std::vector<TrialId> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) out.push_back(best[i].second);
  return out;
}

std::vector<Rung::Entry> Rung::results() const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace hypertune
