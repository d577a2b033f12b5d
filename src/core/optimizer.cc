#include "core/optimizer.h"

#include <utility>

#include "util/timer.h"

namespace streamagg {

Optimizer::Optimizer(OptimizerOptions options)
    : options_(options),
      collision_model_(MakeCollisionModel(options.collision_model)) {}

Optimizer::~Optimizer() = default;

Result<OptimizedPlan> Optimizer::Optimize(
    const RelationCatalog& catalog, const std::vector<AttributeSet>& queries,
    double memory_words) const {
  return Optimize(catalog,
                  std::vector<QueryDef>(queries.begin(), queries.end()),
                  memory_words);
}

Result<OptimizedPlan> Optimizer::Optimize(const RelationCatalog& catalog,
                                          const std::vector<QueryDef>& queries,
                                          double memory_words) const {
  Timer timer;
  const CostModel cost_model(&catalog, collision_model_.get(), options_.cost);
  const SpaceAllocator allocator(&cost_model, options_.allocator);
  const PhantomChooser chooser(&cost_model, &allocator);
  const Schema& schema = catalog.schema();

  Result<ChooseResult> chosen = [&]() -> Result<ChooseResult> {
    switch (options_.strategy) {
      case OptimizeStrategy::kGreedyCollisionRate:
        return chooser.GreedyByCollisionRate(schema, queries, memory_words,
                                             options_.scheme);
      case OptimizeStrategy::kGreedySpace:
        return chooser.GreedyBySpace(schema, queries, memory_words,
                                     options_.phi);
      case OptimizeStrategy::kExhaustive:
        return chooser.ExhaustiveOptimal(schema, queries, memory_words,
                                         options_.scheme);
      case OptimizeStrategy::kNoPhantoms: {
        STREAMAGG_ASSIGN_OR_RETURN(Configuration config,
                                   Configuration::MakeFlat(schema, queries));
        STREAMAGG_ASSIGN_OR_RETURN(
            std::vector<double> buckets,
            allocator.Allocate(config, memory_words, options_.scheme));
        const double cost = cost_model.PerRecordCost(config, buckets);
        return ChooseResult{std::move(config), std::move(buckets), cost, {}};
      }
    }
    return Status::InvalidArgument("unknown strategy");
  }();
  STREAMAGG_RETURN_NOT_OK(chosen.status());

  OptimizedPlan plan{std::move(chosen->config), std::move(chosen->buckets),
                     chosen->est_cost, 0.0, true, 0.0,
                     std::move(chosen->steps)};
  plan.end_of_epoch_cost = cost_model.EndOfEpochCost(plan.config, plan.buckets);

  if (options_.peak_load_limit > 0.0 &&
      plan.end_of_epoch_cost > options_.peak_load_limit) {
    PeakLoadResult adjusted =
        EnforcePeakLoad(cost_model, plan.config, plan.buckets,
                        options_.peak_load_limit, options_.peak_load_method);
    plan.buckets = std::move(adjusted.buckets);
    plan.per_record_cost = adjusted.per_record_cost;
    plan.end_of_epoch_cost = adjusted.end_of_epoch_cost;
    plan.peak_load_satisfied = adjusted.satisfied;
  }
  plan.optimize_millis = timer.ElapsedMillis();
  return plan;
}

Result<OptimizedPlan> Optimizer::ReplanSubtrees(
    const RelationCatalog& catalog, const OptimizedPlan& plan,
    const std::vector<int>& drifted_nodes, double memory_words) const {
  if (drifted_nodes.empty()) {
    return Status::InvalidArgument("ReplanSubtrees needs drifted nodes");
  }
  if (static_cast<int>(plan.buckets.size()) != plan.config.num_nodes()) {
    return Status::InvalidArgument("plan buckets do not match configuration");
  }
  for (int d : drifted_nodes) {
    if (d < 0 || d >= plan.config.num_nodes()) {
      return Status::InvalidArgument("drifted node index out of range");
    }
  }
  return Optimize(catalog, plan.config.QueryDefs(), memory_words);
}

}  // namespace streamagg
