#ifndef STREAMAGG_DSMS_HFTA_H_
#define STREAMAGG_DSMS_HFTA_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/aggregate.h"
#include "stream/record.h"

namespace streamagg {

/// Per-epoch aggregation result of one query: group -> partial-free final
/// state (count plus the query's declared metrics).
using EpochAggregate =
    std::unordered_map<GroupKey, AggregateState, GroupKeyHash>;

/// The high-level query node (paper Section 2.1): receives partial
/// {group, state} entries evicted from the LFTA and combines entries for the
/// same group and epoch into the final query answers. The HFTA runs in
/// abundant host memory, so a hash map per (query, epoch) suffices.
class Hfta {
 public:
  /// Count-only queries (the paper's setting).
  explicit Hfta(int num_queries)
      : Hfta(std::vector<std::vector<MetricSpec>>(
            static_cast<size_t>(num_queries))) {}

  /// One metric list per query; incoming states must follow it.
  explicit Hfta(std::vector<std::vector<MetricSpec>> per_query_metrics)
      : metrics_(std::move(per_query_metrics)),
        per_query_(metrics_.size()) {}

  // Whole-history copies are never implicit: a runtime hands its results
  // on by moving them (MergeFrom(Hfta&&)), and a caller that must keep its
  // source folds it in by name with MergeFrom(const Hfta&).
  Hfta(const Hfta&) = delete;
  Hfta& operator=(const Hfta&) = delete;
  // A move hands the results over and leaves the source empty but with its
  // query slots and metric lists, so it keeps taking Adds. Neither side
  // keeps the Add cache: it points into maps the destination now owns, and
  // an Add through it on the source would write into the destination.
  Hfta(Hfta&& o)
      : metrics_(o.metrics_),
        per_query_(std::exchange(o.per_query_, Slots(o.per_query_.size()))),
        transfers_(std::exchange(o.transfers_, 0)) {
    o.ForgetAddTarget();
  }
  Hfta& operator=(Hfta&& o) {
    if (this == &o) return *this;
    metrics_ = o.metrics_;
    per_query_ = std::exchange(o.per_query_, Slots(o.per_query_.size()));
    transfers_ = std::exchange(o.transfers_, 0);
    ForgetAddTarget();
    o.ForgetAddTarget();
    return *this;
  }

  /// Accepts one evicted entry for `query_index` in `epoch`, merging it
  /// with any partial state already held for the group. Each call models
  /// one LFTA-to-HFTA transfer (cost c2 in the paper's model). Consecutive
  /// transfers overwhelmingly target the same (query, epoch) — evictions
  /// arrive from one runtime epoch at a time — so the per-(query, epoch)
  /// aggregate is cached and the std::map lookup skipped while the target
  /// stays the same. Safe because std::map mapped references are stable
  /// under insertion, and every operation that reshapes per_query_ or
  /// moves its maps to another owner (Remap, MergeFrom(Hfta&&), TakeQuery,
  /// TakeEpoch, moves) nulls the cache.
  void Add(int query_index, uint64_t epoch, const GroupKey& key,
           const AggregateState& state) {
    if (cached_agg_ == nullptr || query_index != cached_query_ ||
        epoch != cached_epoch_) {
      cached_agg_ = &per_query_[query_index][epoch];
      cached_query_ = query_index;
      cached_epoch_ = epoch;
    }
    auto [it, inserted] = cached_agg_->try_emplace(key, state);
    if (!inserted) it->second.Merge(state, metrics_[query_index]);
    ++transfers_;
  }

  int num_queries() const { return static_cast<int>(per_query_.size()); }
  const std::vector<MetricSpec>& query_metrics(int query_index) const {
    return metrics_[query_index];
  }

  /// Total number of LFTA-to-HFTA transfers observed (c2 operations).
  uint64_t transfers() const { return transfers_; }

  /// Telemetry gauge: distinct (group, epoch) result rows currently held
  /// for `query_index` — the HFTA's memory pressure for that query.
  uint64_t TotalGroups(int query_index) const {
    uint64_t total = 0;
    for (const auto& [epoch, agg] : per_query_[query_index]) {
      total += agg.size();
    }
    return total;
  }
  /// Telemetry gauge: epochs with any data held for `query_index`.
  uint64_t EpochsHeld(int query_index) const {
    return per_query_[query_index].size();
  }

  /// Epochs for which `query_index` received any data, in increasing order.
  std::vector<uint64_t> Epochs(int query_index) const;

  /// Final aggregate of `query_index` for `epoch` (empty if none).
  const EpochAggregate& Result(int query_index, uint64_t epoch) const;

  /// Sums counts over all groups for a query/epoch (equals the number of
  /// records in that epoch when the pipeline is lossless).
  uint64_t TotalCount(int query_index, uint64_t epoch) const;

  /// Folds all of `other`'s results into this HFTA (same query set and
  /// metric lists required), row by row, leaving `other` untouched. Costs
  /// O(rows of `other`); only for callers that must keep their source. A
  /// retiring runtime hands its results over with the move overload below.
  /// Transfer counts are accumulated as well.
  void MergeFrom(const Hfta& other);

  /// Takes over all of `other`'s results by ownership. Each (query, epoch)
  /// aggregate that this HFTA does not hold yet is spliced in as a map node
  /// (no row is copied or allocated); only a (query, epoch) both sides hold
  /// is merged row by row, folding the smaller aggregate into the larger.
  /// The cost is O(epochs of `other` + rows of the overlapping epochs), not
  /// O(rows held). Adds `other`'s transfer count and leaves `other` empty
  /// with its query slots and metric lists intact, ready for new Adds.
  void MergeFrom(Hfta&& other);

  /// Moves every epoch of `query_index` out, leaving the slot empty (a
  /// dropped query's results handed to its archive without a copy).
  std::map<uint64_t, EpochAggregate> TakeQuery(int query_index);

  /// Moves `epoch`'s aggregate of every query out into an HFTA with the
  /// same query slots and metric lists (O(queries) node moves; no transfer
  /// count moves with them). A plan change hands the epoch in flight on to
  /// the incoming runtime this way, so the retiring and the incoming
  /// runtime never hold the same epoch.
  Hfta TakeEpoch(uint64_t epoch);

  /// Rewires the query slots after churn: slot `i` of the remapped HFTA
  /// adopts the results and metric list of old slot `source[i]`, or starts
  /// empty with metrics `new_metrics[i]` when `source[i]` is -1 (a freshly
  /// added query). Old slots not named by `source` are discarded (dropped
  /// queries). Invalidates the Add target cache: the cache points into
  /// per_query_, which this call reshapes, so a stale pointer would write a
  /// dropped query's groups into freed storage (ISSUE 10 satellite fix).
  void Remap(std::vector<std::vector<MetricSpec>> new_metrics,
             const std::vector<int>& source);

 private:
  using Slots = std::vector<std::map<uint64_t, EpochAggregate>>;

  /// Drops the Add target cache; required whenever per_query_ changes
  /// owner or shape.
  void ForgetAddTarget() {
    cached_agg_ = nullptr;
    cached_query_ = -1;
  }

  std::vector<std::vector<MetricSpec>> metrics_;
  Slots per_query_;
  uint64_t transfers_ = 0;
  /// Last Add target; see Add. Never moved between instances.
  EpochAggregate* cached_agg_ = nullptr;
  int cached_query_ = -1;
  uint64_t cached_epoch_ = 0;
  EpochAggregate empty_;
};

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_HFTA_H_
