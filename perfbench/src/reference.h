#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "workloads.h"

namespace perfbench {

/// Operations a run attempted and how many failed. A failed engine call or
/// a failed output check counts once; any wrong output also clears
/// `correct`. The first few failures are printed to stderr.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// Counts one operation; `ok` false counts it failed and prints `what`.
  void Op(bool ok, const std::string& what = "");
  /// Counts one output check; a miss also clears `correct`.
  void Check(bool ok, const std::string& what);
  /// Marks one already-counted operation failed.
  void Fail(const std::string& what);
};

/// The exact answer the engine must give, computed with plain hash maps
/// over the generated records: per query id and epoch, count(*) per group
/// of the records that pass the where clause and arrive inside the id's
/// live interval (from its AddQuery call to its DropQuery call; initial
/// queries from the first record, docs/query_frontend.md §4).
class Reference {
 public:
  using Key = std::array<uint32_t, 3>;
  struct EpochGroups {
    uint64_t epoch = 0;
    std::vector<std::pair<Key, uint64_t>> groups;
  };
  struct QueryId {
    streamagg::AttributeSet group_by;
    size_t begin = 0;  ///< First record index of the live interval.
    size_t end = 0;    ///< One past the last.
    std::vector<EpochGroups> epochs;
  };

  static Reference Compute(const Workload& w);

  const std::vector<QueryId>& ids() const { return ids_; }
  /// Query id the engine must hand out for churn op `op` (adds only).
  int IdOfOp(size_t op) const { return op_ids_[op]; }
  uint64_t passing_records() const { return passing_; }

  /// Compares every id's every epoch against the engine (after Finish),
  /// plus the records counter and the whole-epoch sums.
  void CheckEngine(const streamagg::StreamAggEngine& engine,
                   Tally* tally) const;

 private:
  std::vector<QueryId> ids_;
  std::vector<int> op_ids_;
  uint64_t passing_ = 0;
  /// Per epoch: passing records and the first/last passing record index.
  struct EpochSpan {
    uint64_t records = 0;
    size_t first = 0;
    size_t last = 0;
  };
  std::map<uint64_t, EpochSpan> epoch_spans_;
};

/// Checks that the live plan fits the LFTA budget split across shards:
/// the sum over relations of buckets x entry words (attrs + 1 for count).
void CheckPlanBudget(const Workload& w,
                     const streamagg::StreamAggEngine& engine, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
