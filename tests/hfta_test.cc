#include "dsms/hfta.h"

#include <gtest/gtest.h>

namespace streamagg {
namespace {

GroupKey Key1(uint32_t v) {
  GroupKey k;
  k.size = 1;
  k.values[0] = v;
  return k;
}

TEST(HftaTest, CombinesPartialCountsForSameGroup) {
  Hfta hfta(1);
  // Multiple tuples for the same group in the same epoch arrive because of
  // evictions; the HFTA combines them (paper Section 2.2).
  hfta.Add(0, 3, Key1(7), AggregateState::FromCount(2));
  hfta.Add(0, 3, Key1(7), AggregateState::FromCount(5));
  hfta.Add(0, 3, Key1(8), AggregateState::FromCount(1));
  const EpochAggregate& result = hfta.Result(0, 3);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.at(Key1(7)).count, 7u);
  EXPECT_EQ(result.at(Key1(8)).count, 1u);
  EXPECT_EQ(hfta.TotalCount(0, 3), 8u);
}

TEST(HftaTest, SeparatesEpochs) {
  Hfta hfta(1);
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 1, Key1(1), AggregateState::FromCount(4));
  EXPECT_EQ(hfta.Result(0, 0).at(Key1(1)).count, 1u);
  EXPECT_EQ(hfta.Result(0, 1).at(Key1(1)).count, 4u);
  const std::vector<uint64_t> epochs = hfta.Epochs(0);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], 0u);
  EXPECT_EQ(epochs[1], 1u);
}

TEST(HftaTest, SeparatesQueries) {
  Hfta hfta(2);
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(1, 0, Key1(1), AggregateState::FromCount(9));
  EXPECT_EQ(hfta.Result(0, 0).at(Key1(1)).count, 1u);
  EXPECT_EQ(hfta.Result(1, 0).at(Key1(1)).count, 9u);
}

TEST(HftaTest, CountsTransfers) {
  Hfta hfta(1);
  EXPECT_EQ(hfta.transfers(), 0u);
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  hfta.Add(0, 1, Key1(2), AggregateState::FromCount(1));
  EXPECT_EQ(hfta.transfers(), 3u);
}

TEST(HftaTest, MissingEpochIsEmpty) {
  Hfta hfta(1);
  EXPECT_TRUE(hfta.Result(0, 42).empty());
  EXPECT_EQ(hfta.TotalCount(0, 42), 0u);
}

TEST(HftaTest, MergesMetricStates) {
  // One query with sum(attr 2) and min(attr 2): partial states merge per
  // op — sums add, mins fold.
  const std::vector<MetricSpec> metrics = {
      MetricSpec{AggregateOp::kSum, 2}, MetricSpec{AggregateOp::kMin, 2}};
  Hfta hfta(std::vector<std::vector<MetricSpec>>{metrics});
  AggregateState a = AggregateState::FromCount(3);
  a.num_metrics = 2;
  a.metrics[0] = 100;  // partial sum
  a.metrics[1] = 40;   // partial min
  AggregateState b = AggregateState::FromCount(2);
  b.num_metrics = 2;
  b.metrics[0] = 50;
  b.metrics[1] = 7;
  hfta.Add(0, 0, Key1(5), a);
  hfta.Add(0, 0, Key1(5), b);
  const AggregateState& merged = hfta.Result(0, 0).at(Key1(5));
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.metrics[0], 150u);  // sum
  EXPECT_EQ(merged.metrics[1], 7u);    // min
  EXPECT_EQ(hfta.query_metrics(0).size(), 2u);
}

TEST(HftaTest, RemapDropsSlotAndCarriesSurvivors) {
  // Two queries; drop slot 0, keep slot 1 (renumbered to 0), append a
  // fresh empty slot with its own metric list.
  Hfta hfta(2);
  hfta.Add(0, 3, Key1(1), AggregateState::FromCount(5));
  hfta.Add(1, 3, Key1(2), AggregateState::FromCount(7));

  const std::vector<MetricSpec> fresh = {MetricSpec{AggregateOp::kMax, 1}};
  hfta.Remap({{}, fresh}, {1, -1});

  ASSERT_EQ(hfta.num_queries(), 2);
  EXPECT_EQ(hfta.Result(0, 3).at(Key1(2)).count, 7u);  // Old slot 1.
  EXPECT_TRUE(hfta.Result(1, 3).empty());              // Fresh slot.
  EXPECT_EQ(hfta.query_metrics(1), fresh);
}

TEST(HftaTest, RemapInvalidatesAddTargetCache) {
  // The ISSUE 10 satellite regression: Add caches its (query, epoch)
  // target aggregate between calls, and Remap reshapes the storage that
  // cache points into. Without explicit invalidation the next Add for the
  // same (query, epoch) would write through the stale pointer — a dropped
  // query's groups would keep accumulating into freed storage (asan sees
  // heap-use-after-free; unsanitized builds silently corrupt results).
  Hfta hfta(2);
  hfta.Add(0, 5, Key1(1), AggregateState::FromCount(1));  // Prime the cache.
  hfta.Add(1, 5, Key1(9), AggregateState::FromCount(4));

  hfta.Remap({{}}, {1});  // Drop slot 0; old slot 1 becomes slot 0.

  // Same (query_index, epoch) as the primed cache — must target the NEW
  // slot 0 (old slot 1), not the dropped slot's freed aggregate.
  hfta.Add(0, 5, Key1(9), AggregateState::FromCount(2));
  ASSERT_EQ(hfta.num_queries(), 1);
  EXPECT_EQ(hfta.Result(0, 5).at(Key1(9)).count, 6u);
  EXPECT_EQ(hfta.Result(0, 5).count(Key1(1)), 0u);  // Dropped for good.
}

TEST(HftaTest, RemapIdentityPlusFreshSlotKeepsResults) {
  // The AddQuery shape: identity for existing slots, -1 for the newcomer.
  Hfta hfta(1);
  hfta.Add(0, 2, Key1(3), AggregateState::FromCount(11));
  hfta.Remap({{}, {}}, {0, -1});
  ASSERT_EQ(hfta.num_queries(), 2);
  EXPECT_EQ(hfta.Result(0, 2).at(Key1(3)).count, 11u);
  EXPECT_TRUE(hfta.Epochs(1).empty());
  // The fresh slot accumulates independently from here on.
  hfta.Add(1, 2, Key1(3), AggregateState::FromCount(1));
  EXPECT_EQ(hfta.Result(0, 2).at(Key1(3)).count, 11u);
  EXPECT_EQ(hfta.Result(1, 2).at(Key1(3)).count, 1u);
}

AggregateState MetricState(uint64_t count, uint64_t sum, uint64_t min,
                           uint64_t max) {
  AggregateState s = AggregateState::FromCount(count);
  s.num_metrics = 3;
  s.metrics[0] = sum;
  s.metrics[1] = min;
  s.metrics[2] = max;
  return s;
}

const std::vector<MetricSpec>& SumMinMax() {
  static const std::vector<MetricSpec> metrics = {
      MetricSpec{AggregateOp::kSum, 2}, MetricSpec{AggregateOp::kMin, 2},
      MetricSpec{AggregateOp::kMax, 2}};
  return metrics;
}

TEST(HftaTest, MovedFromHftaKeepsItsAddsToItself) {
  // Both move forms hand the maps over; an Add on the source through a
  // stale target cache would write into the destination's results.
  Hfta source(1);
  source.Add(0, 5, Key1(1), AggregateState::FromCount(3));  // Prime cache.
  Hfta constructed(std::move(source));
  source.Add(0, 5, Key1(1), AggregateState::FromCount(100));
  EXPECT_EQ(constructed.Result(0, 5).at(Key1(1)).count, 3u);
  EXPECT_EQ(constructed.transfers(), 1u);
  ASSERT_EQ(source.num_queries(), 1);
  EXPECT_EQ(source.Result(0, 5).at(Key1(1)).count, 100u);
  EXPECT_EQ(source.transfers(), 1u);

  Hfta assigned(1);
  assigned.Add(0, 5, Key1(2), AggregateState::FromCount(1));  // Prime cache.
  assigned = std::move(source);
  source.Add(0, 5, Key1(1), AggregateState::FromCount(7));
  assigned.Add(0, 5, Key1(1), AggregateState::FromCount(1));
  EXPECT_EQ(assigned.Result(0, 5).at(Key1(1)).count, 101u);
  EXPECT_EQ(assigned.Result(0, 5).count(Key1(2)), 0u);
  EXPECT_EQ(source.Result(0, 5).at(Key1(1)).count, 7u);
  EXPECT_EQ(source.Result(0, 5).size(), 1u);
}

TEST(HftaTest, MoveMergeSplicesDisjointEpochs) {
  Hfta into(2);
  into.Add(0, 0, Key1(1), AggregateState::FromCount(1));
  into.Add(1, 1, Key1(2), AggregateState::FromCount(2));
  Hfta from(2);
  from.Add(0, 2, Key1(3), AggregateState::FromCount(3));
  from.Add(0, 3, Key1(4), AggregateState::FromCount(4));
  from.Add(1, 0, Key1(5), AggregateState::FromCount(5));
  // Node moves keep element addresses: the spliced aggregates are the very
  // objects `from` held, not copies of them.
  const EpochAggregate* const epoch2 = &from.Result(0, 2);
  const EpochAggregate* const epoch0 = &from.Result(1, 0);

  into.MergeFrom(std::move(from));
  EXPECT_EQ(&into.Result(0, 2), epoch2);
  EXPECT_EQ(&into.Result(1, 0), epoch0);
  EXPECT_EQ(into.Epochs(0), (std::vector<uint64_t>{0, 2, 3}));
  EXPECT_EQ(into.Epochs(1), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(into.Result(0, 0).at(Key1(1)).count, 1u);
  EXPECT_EQ(into.Result(0, 3).at(Key1(4)).count, 4u);
  EXPECT_EQ(into.Result(1, 0).at(Key1(5)).count, 5u);
  EXPECT_EQ(into.Result(1, 1).at(Key1(2)).count, 2u);
  ASSERT_EQ(from.num_queries(), 2);
  EXPECT_TRUE(from.Epochs(0).empty());
  EXPECT_TRUE(from.Epochs(1).empty());
}

TEST(HftaTest, MoveMergeFoldsOverlappingEpochInBothSizeOrders) {
  // Epoch 4 is held by both sides; the fold must give the same rows as the
  // copying MergeFrom whichever side is larger. Epoch 9 is disjoint.
  const auto fill_small = [](Hfta& h) {
    h.Add(0, 4, Key1(1), MetricState(2, 10, 3, 7));
    h.Add(0, 4, Key1(2), MetricState(1, 5, 5, 5));
  };
  const auto fill_large = [](Hfta& h) {
    h.Add(0, 4, Key1(1), MetricState(3, 30, 1, 6));
    h.Add(0, 4, Key1(3), MetricState(1, 9, 9, 9));
    h.Add(0, 4, Key1(4), MetricState(4, 40, 2, 20));
    h.Add(0, 4, Key1(5), MetricState(1, 1, 1, 1));
    h.Add(0, 9, Key1(6), MetricState(1, 8, 8, 8));
  };
  for (const bool small_into_large : {true, false}) {
    SCOPED_TRACE(small_into_large ? "small into large" : "large into small");
    Hfta into(std::vector<std::vector<MetricSpec>>{SumMinMax()});
    Hfta from(std::vector<std::vector<MetricSpec>>{SumMinMax()});
    Hfta expected(std::vector<std::vector<MetricSpec>>{SumMinMax()});
    (small_into_large ? fill_large : fill_small)(into);
    (small_into_large ? fill_small : fill_large)(from);
    expected.MergeFrom(into);
    expected.MergeFrom(from);

    into.MergeFrom(std::move(from));
    EXPECT_EQ(into.Epochs(0), (std::vector<uint64_t>{4, 9}));
    EXPECT_TRUE(into.Result(0, 4) == expected.Result(0, 4));
    EXPECT_TRUE(into.Result(0, 9) == expected.Result(0, 9));
    ASSERT_EQ(into.Result(0, 4).size(), 5u);
    EXPECT_TRUE(into.Result(0, 4).at(Key1(1)) == MetricState(5, 40, 1, 7));
    EXPECT_TRUE(into.Result(0, 4).at(Key1(2)) == MetricState(1, 5, 5, 5));
    EXPECT_TRUE(into.Result(0, 4).at(Key1(4)) == MetricState(4, 40, 2, 20));
    EXPECT_TRUE(from.Epochs(0).empty());
  }
}

TEST(HftaTest, MoveMergeSumsTransfersAndLeavesSourceReusable) {
  Hfta into(1);
  into.Add(0, 1, Key1(1), AggregateState::FromCount(1));
  into.Add(0, 1, Key1(1), AggregateState::FromCount(1));
  into.Add(0, 2, Key1(1), AggregateState::FromCount(1));  // Cache: (0, 2).
  Hfta from(1);
  from.Add(0, 2, Key1(2), AggregateState::FromCount(4));
  from.Add(0, 3, Key1(3), AggregateState::FromCount(5));  // Cache: (0, 3).

  into.MergeFrom(std::move(from));
  EXPECT_EQ(into.transfers(), 5u);
  EXPECT_EQ(from.transfers(), 0u);
  EXPECT_TRUE(from.Epochs(0).empty());

  // The source's cached (0, 3) aggregate now belongs to `into`: a new Add
  // on the source must start its own epoch 3, not grow the moved one.
  from.Add(0, 3, Key1(3), AggregateState::FromCount(6));
  EXPECT_EQ(from.Result(0, 3).at(Key1(3)).count, 6u);
  EXPECT_EQ(from.transfers(), 1u);
  EXPECT_EQ(into.Result(0, 3).at(Key1(3)).count, 5u);

  // Adds on the destination land in the merged (query, epoch) aggregates.
  into.Add(0, 2, Key1(2), AggregateState::FromCount(10));
  into.Add(0, 3, Key1(3), AggregateState::FromCount(1));
  EXPECT_EQ(into.Result(0, 2).at(Key1(2)).count, 14u);
  EXPECT_EQ(into.Result(0, 2).at(Key1(1)).count, 1u);
  EXPECT_EQ(into.Result(0, 3).at(Key1(3)).count, 6u);
  EXPECT_EQ(into.TotalCount(0, 1), 2u);
  EXPECT_EQ(into.transfers(), 7u);
}

TEST(HftaTest, TakeQueryMovesOneSlotOut) {
  Hfta hfta(2);
  hfta.Add(0, 1, Key1(1), AggregateState::FromCount(2));
  hfta.Add(1, 1, Key1(1), AggregateState::FromCount(3));
  hfta.Add(0, 4, Key1(2), AggregateState::FromCount(5));  // Cache: (0, 4).
  std::map<uint64_t, EpochAggregate> taken = hfta.TakeQuery(0);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken.at(4).at(Key1(2)).count, 5u);
  EXPECT_TRUE(hfta.Epochs(0).empty());
  EXPECT_EQ(hfta.Result(1, 1).at(Key1(1)).count, 3u);
  hfta.Add(0, 4, Key1(2), AggregateState::FromCount(1));
  EXPECT_EQ(taken.at(4).at(Key1(2)).count, 5u);
  EXPECT_EQ(hfta.Result(0, 4).at(Key1(2)).count, 1u);
}

TEST(HftaTest, TakeEpochMovesOneEpochOfEveryQuery) {
  Hfta hfta(std::vector<std::vector<MetricSpec>>{{}, SumMinMax()});
  hfta.Add(0, 6, Key1(1), AggregateState::FromCount(2));
  hfta.Add(0, 7, Key1(1), AggregateState::FromCount(3));
  hfta.Add(1, 7, Key1(2), MetricState(1, 4, 4, 4));  // Cache: (1, 7).
  const EpochAggregate* const moved = &hfta.Result(1, 7);
  Hfta taken = hfta.TakeEpoch(7);
  EXPECT_EQ(taken.transfers(), 0u);
  EXPECT_EQ(taken.query_metrics(1), SumMinMax());
  EXPECT_EQ(&taken.Result(1, 7), moved);
  EXPECT_EQ(taken.Result(0, 7).at(Key1(1)).count, 3u);
  EXPECT_EQ(taken.Epochs(0), (std::vector<uint64_t>{7}));
  EXPECT_EQ(hfta.Epochs(0), (std::vector<uint64_t>{6}));
  EXPECT_TRUE(hfta.Epochs(1).empty());
  EXPECT_EQ(hfta.transfers(), 3u);
  hfta.Add(1, 7, Key1(2), MetricState(1, 9, 9, 9));
  EXPECT_TRUE(taken.Result(1, 7).at(Key1(2)) == MetricState(1, 4, 4, 4));
  EXPECT_TRUE(hfta.Result(1, 7).at(Key1(2)) == MetricState(1, 9, 9, 9));
}

}  // namespace
}  // namespace streamagg
