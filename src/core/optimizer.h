#ifndef STREAMAGG_CORE_OPTIMIZER_H_
#define STREAMAGG_CORE_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "core/peak_load.h"
#include "core/phantom_chooser.h"

namespace streamagg {

/// Phantom-choosing strategy for the top-level optimizer.
enum class OptimizeStrategy {
  kGreedyCollisionRate,  ///< GC — the paper's recommended strategy.
  kGreedySpace,          ///< GS — the VM-style baseline (needs phi).
  kExhaustive,           ///< EPES — exponential oracle, small query sets only.
  kNoPhantoms,           ///< Baseline: queries only, allocated by `scheme`.
};

/// Options of the one-call optimizer facade.
struct OptimizerOptions {
  CostParams cost;  ///< c1/c2; the paper uses c2/c1 = 50.
  CollisionModelKind collision_model = CollisionModelKind::kPrecise;
  OptimizeStrategy strategy = OptimizeStrategy::kGreedyCollisionRate;
  AllocationScheme scheme = AllocationScheme::kSL;  ///< GCSL by default.
  double phi = 1.0;  ///< GS sizing parameter (buckets per group).
  SpaceAllocatorOptions allocator;
  /// Optional peak-load constraint on the end-of-epoch cost E_u (paper
  /// Section 6.3.4); <= 0 disables it.
  double peak_load_limit = 0.0;
  PeakLoadMethod peak_load_method = PeakLoadMethod::kShift;
};

/// The optimizer's output: a configuration, its space allocation, and the
/// model-estimated costs. Ready to instantiate in the DSMS runtime.
struct OptimizedPlan {
  Configuration config;
  std::vector<double> buckets;
  double per_record_cost = 0.0;
  double end_of_epoch_cost = 0.0;
  bool peak_load_satisfied = true;
  double optimize_millis = 0.0;
  std::vector<PhantomStep> steps;

  /// Runtime specs for ConfigurationRuntime::Make.
  Result<std::vector<RuntimeRelationSpec>> ToRuntimeSpecs() const {
    return config.ToRuntimeSpecs(buckets);
  }
};

/// One-call facade over the feeding graph, collision model, cost model,
/// space allocator, phantom chooser and peak-load adjustment: given the
/// query set, data statistics and the LFTA memory budget, produce the
/// configuration to instantiate. Sub-millisecond for the paper's workloads
/// (Section 6.3.4), enabling adaptive re-optimization.
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {});
  ~Optimizer();

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  const OptimizerOptions& options() const { return options_; }

  /// Chooses a configuration and allocation for `queries` within
  /// `memory_words` of LFTA memory, using statistics from `catalog`.
  Result<OptimizedPlan> Optimize(const RelationCatalog& catalog,
                                 const std::vector<QueryDef>& queries,
                                 double memory_words) const;

  /// Count-only convenience (the paper's setting).
  Result<OptimizedPlan> Optimize(const RelationCatalog& catalog,
                                 const std::vector<AttributeSet>& queries,
                                 double memory_words) const;

  /// Re-plans `plan`'s queries from scratch: checks that `drifted_nodes` is
  /// non-empty and indexes `plan.config` and that `plan.buckets` matches
  /// it, then returns Optimize(catalog, plan.config.QueryDefs(),
  /// memory_words). No feeding tree is pinned; the drifted nodes only
  /// validate. Kept for callers of the former subtree-pinned re-plan.
  Result<OptimizedPlan> ReplanSubtrees(const RelationCatalog& catalog,
                                       const OptimizedPlan& plan,
                                       const std::vector<int>& drifted_nodes,
                                       double memory_words) const;

 private:
  OptimizerOptions options_;
  std::unique_ptr<CollisionModel> collision_model_;
};

}  // namespace streamagg

#endif  // STREAMAGG_CORE_OPTIMIZER_H_
