#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "dsms/reference_aggregator.h"
#include "stream/flow_generator.h"
#include "stream/uniform_generator.h"

namespace streamagg {
namespace {

std::vector<AttributeSet> Queries(const Schema& schema,
                                  std::initializer_list<const char*> specs) {
  std::vector<AttributeSet> out;
  for (const char* s : specs) out.push_back(*schema.ParseAttributeSet(s));
  return out;
}

TEST(OptimizerTest, EndToEndOnUniformData) {
  auto gen = UniformGenerator::Make(*Schema::Default(4), 2000, 31);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 100000, 10.0);
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);

  Optimizer optimizer;
  auto plan = optimizer.Optimize(
      catalog, Queries(trace.schema(), {"A", "B", "C", "D"}), 40000.0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan->config.num_phantoms(), 1);
  EXPECT_GT(plan->per_record_cost, 0.0);
  EXPECT_GT(plan->end_of_epoch_cost, 0.0);
  EXPECT_GT(plan->optimize_millis, 0.0);
}

TEST(OptimizerTest, PlanExecutesCorrectlyInRuntime) {
  auto gen = UniformGenerator::Make(*Schema::Default(4), 1500, 37);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 80000, 8.0);
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);

  const auto queries = Queries(trace.schema(), {"AB", "BC", "CD"});
  Optimizer optimizer;
  auto plan = optimizer.Optimize(catalog, queries, 30000.0);
  ASSERT_TRUE(plan.ok());

  auto specs = plan->ToRuntimeSpecs();
  ASSERT_TRUE(specs.ok());
  auto runtime =
      ConfigurationRuntime::Make(trace.schema(), *specs, /*epoch=*/2.0);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->ProcessTrace(trace);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = ComputeReferenceAggregate(trace, queries[qi], 2.0);
    std::string diagnostic;
    EXPECT_TRUE(AggregatesEqual(expected, (*runtime)->hfta(),
                                static_cast<int>(qi), &diagnostic))
        << diagnostic;
  }
  // The plan respects the memory budget.
  EXPECT_LE((*runtime)->TotalMemoryWords(), 30000u + 100u);
}

TEST(OptimizerTest, StrategiesAreOrderedByQuality) {
  auto gen = UniformGenerator::Make(*Schema::Default(4), 2000, 41);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 100000, 10.0);
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);
  const auto queries = Queries(trace.schema(), {"AB", "BC", "BD", "CD"});

  auto run = [&](OptimizeStrategy strategy) {
    OptimizerOptions options;
    options.strategy = strategy;
    Optimizer optimizer(options);
    auto plan = optimizer.Optimize(catalog, queries, 40000.0);
    EXPECT_TRUE(plan.ok());
    return plan->per_record_cost;
  };

  const double exhaustive = run(OptimizeStrategy::kExhaustive);
  const double greedy = run(OptimizeStrategy::kGreedyCollisionRate);
  const double none = run(OptimizeStrategy::kNoPhantoms);
  EXPECT_LE(exhaustive, greedy * (1.0 + 1e-9));
  EXPECT_LE(greedy, none * (1.0 + 1e-9));
}

TEST(OptimizerTest, PeakLoadConstraintIsApplied) {
  auto gen = FlowGenerator::MakePaperTrace({});
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 200000, 62.0);
  TraceStats stats(&trace);
  const RelationCatalog catalog = RelationCatalog::FromTrace(&stats);
  const auto queries = Queries(trace.schema(), {"AB", "BC", "BD", "CD"});

  // First learn the unconstrained E_u, then demand 10% less.
  Optimizer unconstrained;
  auto base = unconstrained.Optimize(catalog, queries, 40000.0);
  ASSERT_TRUE(base.ok());

  OptimizerOptions options;
  options.peak_load_limit = base->end_of_epoch_cost * 0.9;
  options.peak_load_method = PeakLoadMethod::kShift;
  Optimizer constrained(options);
  auto plan = constrained.Optimize(catalog, queries, 40000.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->peak_load_satisfied);
  EXPECT_LE(plan->end_of_epoch_cost, options.peak_load_limit * (1.0 + 1e-6));
}

TEST(OptimizerTest, OptimizationIsFast) {
  // Paper Section 6.3.4: choosing a configuration takes milliseconds,
  // enabling adaptive reconfiguration. Allow generous slack for CI noise.
  auto schema = Schema::Default(4);
  ASSERT_TRUE(schema.ok());
  auto catalog = RelationCatalog::Synthetic(
      *schema, {{AttributeSet::Single(0).mask(), 552},
                {AttributeSet::Single(1).mask(), 600},
                {AttributeSet::Single(2).mask(), 700},
                {AttributeSet::Single(3).mask(), 800}});
  ASSERT_TRUE(catalog.ok());
  Optimizer optimizer;
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(AttributeSet::Single(i));
  auto plan = optimizer.Optimize(*catalog, queries, 40000.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_LT(plan->optimize_millis, 100.0);
}

TEST(OptimizerTest, GreedySpaceStrategyWorks) {
  auto schema = Schema::Default(4);
  ASSERT_TRUE(schema.ok());
  auto catalog = RelationCatalog::Synthetic(
      *schema, {{AttributeSet::Single(0).mask(), 500},
                {AttributeSet::Single(1).mask(), 500},
                {AttributeSet::Single(2).mask(), 500},
                {AttributeSet::Single(3).mask(), 500}});
  ASSERT_TRUE(catalog.ok());
  OptimizerOptions options;
  options.strategy = OptimizeStrategy::kGreedySpace;
  options.phi = 1.0;
  Optimizer optimizer(options);
  std::vector<AttributeSet> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(AttributeSet::Single(i));
  auto plan = optimizer.Optimize(*catalog, queries, 40000.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->per_record_cost, 0.0);
}

TEST(OptimizerTest, ReplanSubtreesIsAFullOptimize) {
  auto gen = UniformGenerator::Make(*Schema::Default(4), 2000, 61);
  ASSERT_TRUE(gen.ok());
  const Trace trace = Trace::Generate(**gen, 100000, 10.0);
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);

  Optimizer optimizer;
  auto base = optimizer.Optimize(
      catalog, Queries(trace.schema(), {"AB", "BC", "CD"}), 40000.0);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto fresh = optimizer.Optimize(catalog, base->config.QueryDefs(), 30000.0);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Whichever node drifted, no tree is pinned: the result is the plan a
  // from-scratch Optimize of the same queries gives.
  for (int node = 0; node < base->config.num_nodes(); ++node) {
    auto replanned = optimizer.ReplanSubtrees(catalog, *base, {node}, 30000.0);
    ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
    EXPECT_EQ(replanned->config.ToString(), fresh->config.ToString());
    EXPECT_EQ(replanned->buckets, fresh->buckets);
    EXPECT_EQ(replanned->per_record_cost, fresh->per_record_cost);
  }

  // Argument checks: empty or out-of-range drifted nodes are rejected.
  EXPECT_FALSE(optimizer.ReplanSubtrees(catalog, *base, {}, 30000.0).ok());
  EXPECT_FALSE(optimizer.ReplanSubtrees(catalog, *base, {-1}, 30000.0).ok());
  EXPECT_FALSE(optimizer
                   .ReplanSubtrees(catalog, *base,
                                   {base->config.num_nodes()}, 30000.0)
                   .ok());
}

TEST(OptimizerTest, FailsWithoutQueries) {
  auto schema = Schema::Default(2);
  ASSERT_TRUE(schema.ok());
  auto catalog = RelationCatalog::Synthetic(
      *schema, {{AttributeSet::Single(0).mask(), 10},
                {AttributeSet::Single(1).mask(), 10}});
  ASSERT_TRUE(catalog.ok());
  Optimizer optimizer;
  EXPECT_FALSE(
      optimizer.Optimize(*catalog, std::vector<AttributeSet>{}, 1000.0).ok());
}

}  // namespace
}  // namespace streamagg
