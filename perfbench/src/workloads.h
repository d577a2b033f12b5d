#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query_language.h"
#include "stream/record.h"
#include "stream/schema.h"

namespace perfbench {

/// One AddQuery/DropQuery call of a workload's churn schedule. It runs
/// just before record `at` is offered (always after planning, and on a
/// batch boundary for batched workloads).
struct ChurnOp {
  size_t at = 0;
  bool add = true;
  /// Adds: the query text and its grouping.
  std::string text;
  streamagg::AttributeSet group_by;
  /// Drops: index into the schedule of the add whose id is dropped.
  int target = -1;
};

/// A workload's whole input, generated from the seed before any timing:
/// the records, the initial query texts, the engine options, the ingest
/// granularity and the churn schedule. The engine sees nothing else.
struct Workload {
  std::string name;
  streamagg::Schema schema = streamagg::Schema::Default(4).value();
  std::vector<std::string> queries;
  streamagg::StreamAggEngine::Options options;
  /// Records per ingest call; 1 means one Process call per record.
  size_t batch = 1;
  std::vector<streamagg::Record> records;
  std::vector<ChurnOp> churn;  ///< Ascending `at`.
  /// The queries' shared where clause (empty: every record passes).
  std::vector<streamagg::AttributePredicate> filter;
  double epoch_seconds = 1.0;
  /// The ingest call [plan_call_begin, plan_call_end) is the one during
  /// which the sample fills and the engine plans; later calls are
  /// post-planning.
  size_t plan_call_begin = 0;
  size_t plan_call_end = 0;
  /// boundaries_before[i]: filtered records before index i that open a new
  /// epoch (the first filtered record excluded). An ingest call closes an
  /// epoch when it holds one of them.
  std::vector<uint32_t> boundaries_before;

  bool Passes(const streamagg::Record& r) const {
    for (const auto& p : filter) {
      if (!p.Matches(r)) return false;
    }
    return true;
  }
  uint64_t EpochOf(const streamagg::Record& r) const;
  /// End (exclusive) of the ingest call that starts at record `i`.
  size_t CallEnd(size_t i) const {
    return std::min(records.size(), i + batch);
  }
  bool CallCloses(size_t begin, size_t end) const {
    return boundaries_before[end] != boundaries_before[begin];
  }
};

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`; the same seed gives the same input.
streamagg::Result<Workload> MakeWorkload(const std::string& name,
                                         uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
