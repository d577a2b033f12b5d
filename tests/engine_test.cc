#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsms/reference_aggregator.h"
#include "stream/uniform_generator.h"

namespace streamagg {
namespace {

StreamAggEngine::Options BaseOptions() {
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 20000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  return options;
}

Trace UniformTrace(uint64_t groups, size_t n, uint64_t seed) {
  auto gen = std::move(UniformGenerator::Make(*Schema::Default(4), groups,
                                              seed))
                 .value();
  return Trace::Generate(*gen, n, 10.0);
}

TEST(StreamAggEngineTest, EndToEndResultsAreExact) {
  const Trace trace = UniformTrace(800, 100000, 5);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("BC")),
      QueryDef(*schema.ParseAttributeSet("CD")),
  };
  auto engine =
      StreamAggEngine::FromQueryDefs(schema, queries, BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE((*engine)->planned());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  EXPECT_TRUE((*engine)->planned());
  EXPECT_FALSE((*engine)->ConfigurationText().empty());
  ASSERT_TRUE((*engine)->Finish().ok());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected =
        ComputeReferenceAggregate(trace, queries[qi].group_by, 2.0);
    for (const auto& [epoch, groups] : expected) {
      const EpochAggregate& actual =
          (*engine)->EpochResult(static_cast<int>(qi), epoch);
      ASSERT_EQ(actual.size(), groups.size())
          << "query " << qi << " epoch " << epoch;
      for (const auto& [key, state] : groups) {
        auto it = actual.find(key);
        ASSERT_NE(it, actual.end());
        EXPECT_EQ(it->second.count, state.count);
      }
    }
  }
  // All records accounted for.
  EXPECT_EQ((*engine)->counters().records, trace.size());
}

TEST(StreamAggEngineTest, WorksFromQueryTexts) {
  const Trace trace = UniformTrace(500, 60000, 7);
  auto engine = StreamAggEngine::FromQueryTexts(
      trace.schema(),
      {"select A, count(*) from R group by A, time/2",
       "select B, count(*) from R group by B, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  ASSERT_EQ((*engine)->parsed_queries().size(), 2u);
  // Epochs come from the query text (time/2 over a 10-second trace).
  const std::vector<uint64_t> epochs = (*engine)->Epochs(0);
  EXPECT_EQ(epochs.size(), 5u);
  const auto expected = ComputeReferenceAggregate(
      trace, AttributeSet::Single(0), 2.0);
  for (uint64_t epoch : epochs) {
    EXPECT_EQ((*engine)->EpochResult(0, epoch).size(), expected.at(epoch).size());
  }
}

TEST(StreamAggEngineTest, ShortStreamPlansAtFinish) {
  const Trace trace = UniformTrace(300, 5000, 9);  // Below the sample size.
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema, {QueryDef(*schema.ParseAttributeSet("AB"))}, BaseOptions());
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  EXPECT_FALSE((*engine)->planned());  // Still sampling.
  ASSERT_TRUE((*engine)->Finish().ok());
  const auto expected =
      ComputeReferenceAggregate(trace, *schema.ParseAttributeSet("AB"), 2.0);
  uint64_t total = 0;
  for (uint64_t epoch : (*engine)->Epochs(0)) {
    for (const auto& [key, state] : (*engine)->EpochResult(0, epoch)) {
      total += state.count;
    }
  }
  EXPECT_EQ(total, trace.size());
  (void)expected;
}

TEST(StreamAggEngineTest, AdaptiveSwapPreservesResults) {
  // Calm traffic for 3 epochs, then a 10x group blow-up: with adaptivity on
  // the engine re-plans mid-stream; every epoch's counts must still be
  // exact across the runtime swap.
  const Schema schema = *Schema::Default(4);
  auto calm = std::move(UniformGenerator::Make(schema, 500, 11)).value();
  auto shifted = std::move(UniformGenerator::Make(schema, 5000, 13)).value();
  Trace trace(schema);
  const size_t kN = 120000;
  trace.set_duration_seconds(12.0);
  for (size_t i = 0; i < kN; ++i) {
    Record r = (i < kN / 2) ? calm->Next() : shifted->Next();
    r.timestamp = 12.0 * static_cast<double>(i) / kN;
    trace.Append(r);
  }

  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  options.sample_size = 10000;
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD")),
  };
  auto engine = StreamAggEngine::FromQueryDefs(schema, queries, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_GE((*engine)->reoptimizations(), 1);

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected =
        ComputeReferenceAggregate(trace, queries[qi].group_by, 2.0);
    for (const auto& [epoch, groups] : expected) {
      const EpochAggregate& actual =
          (*engine)->EpochResult(static_cast<int>(qi), epoch);
      ASSERT_EQ(actual.size(), groups.size())
          << "query " << qi << " epoch " << epoch;
      for (const auto& [key, state] : groups) {
        auto it = actual.find(key);
        ASSERT_NE(it, actual.end()) << key.ToString();
        EXPECT_EQ(it->second.count, state.count) << key.ToString();
      }
    }
  }
  EXPECT_EQ((*engine)->counters().records, trace.size());
}

TEST(StreamAggEngineTest, SharedWhereClauseFiltersRecords) {
  const Trace trace = UniformTrace(400, 60000, 21);
  const Schema& schema = trace.schema();
  // Keep only records with D < 4 (the universe draws D from a domain of
  // ~11 values, so this passes roughly a third of the stream).
  auto engine = StreamAggEngine::FromQueryTexts(
      schema,
      {"select A, count(*) from R where D < 4 group by A, time/2",
       "select B, count(*) from R where D < 4 group by B, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Reference: aggregate only the passing records.
  Trace filtered(schema);
  for (const Record& r : trace.records()) {
    if (r.values[3] < 4) filtered.Append(r);
  }
  ASSERT_GT(filtered.size(), 0u);
  ASSERT_LT(filtered.size(), trace.size());
  const auto expected =
      ComputeReferenceAggregate(filtered, AttributeSet::Single(0), 2.0);
  uint64_t total = 0;
  for (uint64_t epoch : (*engine)->Epochs(0)) {
    const EpochAggregate& actual = (*engine)->EpochResult(0, epoch);
    ASSERT_EQ(actual.size(), expected.at(epoch).size()) << "epoch " << epoch;
    for (const auto& [key, state] : actual) total += state.count;
  }
  EXPECT_EQ(total, filtered.size());
  EXPECT_EQ((*engine)->counters().records, filtered.size());
}

TEST(StreamAggEngineTest, PinnedPlanSkipsSampling) {
  const Trace trace = UniformTrace(500, 50000, 31);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  // Build a plan offline...
  TraceStats stats(&trace);
  const RelationCatalog catalog =
      RelationCatalog::FromTrace(&stats, /*clustered=*/false);
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(catalog, queries, 30000.0);
  const std::string config_text = plan.config.ToString();

  // ...and pin it: the engine is live from the first record.
  auto engine = StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {},
                                                BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->planned());
  EXPECT_EQ((*engine)->ConfigurationText(), config_text);
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  const auto expected =
      ComputeReferenceAggregate(trace, queries[0].group_by, 2.0);
  for (const auto& [epoch, groups] : expected) {
    EXPECT_EQ((*engine)->EpochResult(0, epoch).size(), groups.size());
  }
  EXPECT_EQ((*engine)->counters().records, trace.size());
}

TEST(StreamAggEngineTest, AdaptivePinnedPlanNeedsCounts) {
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB"))},
      20000.0);
  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  EXPECT_FALSE(
      StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {}, options)
          .ok());
}

TEST(StreamAggEngineTest, RejectsBadConstruction) {
  const Schema schema = *Schema::Default(3);
  EXPECT_FALSE(
      StreamAggEngine::FromQueryDefs(schema, {}, BaseOptions()).ok());
  EXPECT_FALSE(StreamAggEngine::FromQueryTexts(schema, {"select nope"},
                                               BaseOptions())
                   .ok());
  EXPECT_FALSE(StreamAggEngine::FromQueryTexts(
                   schema,
                   {"select A, count(*) from R group by A, time/60",
                    "select B, count(*) from R group by B, time/30"},
                   BaseOptions())
                   .ok());
}

TEST(StreamAggEngineTest, CountersIdempotentAcrossSwapsAndBatches) {
  // Regression: counters() and the internal accumulation across adaptive
  // runtime swaps must never double-count, no matter how often or when the
  // totals are read, and no matter how Process/ProcessBatch are mixed.
  const Schema schema = *Schema::Default(4);
  auto calm = std::move(UniformGenerator::Make(schema, 500, 21)).value();
  auto shifted = std::move(UniformGenerator::Make(schema, 5000, 23)).value();
  Trace trace(schema);
  const size_t kN = 120000;
  trace.set_duration_seconds(12.0);
  for (size_t i = 0; i < kN; ++i) {
    Record r = (i < kN / 2) ? calm->Next() : shifted->Next();
    r.timestamp = 12.0 * static_cast<double>(i) / kN;
    trace.Append(r);
  }

  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  options.sample_size = 10000;
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      options);
  ASSERT_TRUE(engine.ok());

  // Alternate odd-sized batches with single records so runtime swaps land
  // at every possible position relative to the reads below.
  const std::span<const Record> records(trace.records());
  size_t i = 0;
  uint64_t last_records = 0;
  while (i < records.size()) {
    if (i % 3 == 0) {
      ASSERT_TRUE((*engine)->Process(records[i]).ok());
      ++i;
    } else {
      const size_t n = std::min<size_t>(257, records.size() - i);
      ASSERT_TRUE((*engine)->ProcessBatch(records.subspan(i, n)).ok());
      i += n;
    }
    // Reading totals mid-stream must be side-effect free (idempotent) and
    // exact: records processed so far, monotonically. (While sampling,
    // records are buffered and the count is behind; it catches up at the
    // planning replay.)
    const RuntimeCounters first = (*engine)->counters();
    const RuntimeCounters second = (*engine)->counters();
    EXPECT_TRUE(first == second);
    if ((*engine)->planned()) {
      EXPECT_EQ(first.records, i);
    }
    EXPECT_GE(first.records, last_records);
    last_records = first.records;
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  // The traffic shift must actually have forced at least one swap for this
  // test to mean anything.
  EXPECT_GE((*engine)->reoptimizations(), 1);
  EXPECT_EQ((*engine)->counters().records, trace.size());
  // Reading after Finish is stable too.
  EXPECT_TRUE((*engine)->counters() == (*engine)->counters());
}

TEST(StreamAggEngineTest, TelemetryReportsModelPredictions) {
  const Trace trace = UniformTrace(800, 80000, 31);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("BC")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      BaseOptions());
  ASSERT_TRUE(engine.ok());
  // While sampling, telemetry is an empty snapshot.
  EXPECT_TRUE((*engine)->telemetry().tables.empty());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  const TelemetrySnapshot live = (*engine)->telemetry();
  ASSERT_FALSE(live.tables.empty());
  for (const TableTelemetry& t : live.tables) {
    // Engine-annotated snapshots pair every table's observed rate with the
    // cost model's prediction for the planned statistics.
    EXPECT_TRUE(t.has_prediction()) << t.relation;
    EXPECT_GE(t.predicted_collision_rate, 0.0) << t.relation;
    EXPECT_LT(t.predicted_collision_rate, 1.0) << t.relation;
    EXPECT_GE(t.observed_collision_rate, 0.0) << t.relation;
    EXPECT_EQ(t.drift(),
              t.observed_collision_rate - t.predicted_collision_rate);
  }
  EXPECT_TRUE(live.counters == (*engine)->counters());

  ASSERT_TRUE((*engine)->Finish().ok());
  // The final snapshot survives runtime teardown and keeps the totals.
  const TelemetrySnapshot final_snap = (*engine)->telemetry();
  ASSERT_FALSE(final_snap.tables.empty());
  EXPECT_EQ(final_snap.counters.records, trace.size());
  EXPECT_TRUE(final_snap.counters == (*engine)->counters());
}

TEST(StreamAggEngineTest, TelemetryEpochHistoryIsBoundedAndLabeled) {
  const Trace trace = UniformTrace(400, 60000, 37);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 1.0;  // 10 epochs over the 10-second trace.
  options.telemetry_epoch_snapshots = true;
  options.telemetry_history_cap = 4;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB"))}, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const std::vector<TelemetrySnapshot>& history =
      (*engine)->telemetry_history();
  ASSERT_FALSE(history.empty());
  EXPECT_LE(history.size(), 4u);  // Oldest snapshots dropped first.
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_LT(history[i - 1].epoch, history[i].epoch);
    // Cumulative counters only grow along the history.
    EXPECT_LE(history[i - 1].counters.records, history[i].counters.records);
  }
}

TEST(StreamAggEngineTest, TimestampContractRejectsWithoutStateChange) {
  // Non-finite, late and (with epochs on) negative timestamps return
  // InvalidArgument and change nothing: after every rejection the engine
  // takes the rest of the stream and ends bit-identical to a clean run —
  // results, record count and an epoch history labeled 0, 1, 2, ... with no
  // repeated label. Covered per record and batched (a bad record inside a
  // batch rejects the whole batch, its valid records included), before and
  // after planning, on the serial and the 2x2 engine.
  const Trace trace = UniformTrace(800, 40000, 9);  // Epochs 0..4.
  const std::vector<Record>& records = trace.records();
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  for (const auto& [producers, shards] : {std::pair{1, 1}, std::pair{2, 2}}) {
    StreamAggEngine::Options options = BaseOptions();
    options.sample_size = 5000;
    options.telemetry_epoch_snapshots = true;
    options.num_producers = producers;
    options.num_shards = shards;
    auto clean =
        std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
            .value();
    ASSERT_TRUE(clean->ProcessBatch(records).ok());
    ASSERT_TRUE(clean->Finish().ok());

    for (bool batched : {false, true}) {
      const std::string label = "P=" + std::to_string(producers) +
                                " S=" + std::to_string(shards) +
                                (batched ? " batched" : " per-record");
      auto engine =
          std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
              .value();
      // Feeds `bad` (a copy of record `at` with that timestamp), expecting a
      // rejection; batched, it sits between two valid records.
      const auto reject = [&](size_t at, double bad) {
        Record r = records[at];
        r.timestamp = bad;
        Status status;
        if (batched) {
          const std::vector<Record> batch = {records[at], r, records[at]};
          status = engine->ProcessBatch(batch);
        } else {
          status = engine->Process(r);
        }
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << label << " timestamp " << bad << " at " << at;
      };
      const auto feed = [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          ASSERT_TRUE(engine->Process(records[i]).ok()) << label;
        }
      };
      // Before the first record: the sampling phase must not move either.
      reject(0, -3.0);
      reject(0, nan);
      feed(0, 1000);
      reject(1000, records[999].timestamp - 1e-3);  // Late, while sampling.
      feed(1000, 25000);  // Planned; epoch 2 in flight.
      for (double bad : {nan, inf, -inf, -3.0, records[0].timestamp,
                         records[24999].timestamp - 1e-3}) {
        reject(25000, bad);
      }
      // A batch that goes backwards within itself is late too.
      if (batched) {
        const std::vector<Record> backwards = {records[25001],
                                               records[25000]};
        EXPECT_EQ(engine->ProcessBatch(backwards).code(),
                  StatusCode::kInvalidArgument)
            << label;
      }
      feed(25000, records.size());
      ASSERT_TRUE(engine->Finish().ok()) << label;

      EXPECT_EQ(engine->counters().records, records.size()) << label;
      for (int q = 0; q < 2; ++q) {
        ASSERT_EQ(engine->Epochs(q), clean->Epochs(q)) << label;
        for (uint64_t epoch : clean->Epochs(q)) {
          EXPECT_TRUE(engine->EpochResult(q, epoch) ==
                      clean->EpochResult(q, epoch))
              << label << " query " << q << " epoch " << epoch;
        }
      }
      const std::vector<TelemetrySnapshot>& history =
          engine->telemetry_history();
      ASSERT_EQ(history.size(), clean->telemetry_history().size()) << label;
      for (size_t i = 0; i < history.size(); ++i) {
        EXPECT_EQ(history[i].epoch, i) << label;
        EXPECT_EQ(history[i].counters.records,
                  clean->telemetry_history()[i].counters.records)
            << label;
      }
    }
  }
}

TEST(StreamAggEngineTest, EpochlessEngineAcceptsNegativeTimestamps) {
  // Without epochs the timestamp only orders the stream: negative values
  // are fine, non-finite and late ones are still rejected.
  const Trace trace = UniformTrace(100, 1000, 3);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 0.0;
  options.sample_size = 100;
  auto engine = std::move(StreamAggEngine::FromQueryDefs(
                              trace.schema(),
                              {QueryDef(*trace.schema().ParseAttributeSet("AB"))},
                              options))
                    .value();
  std::vector<Record> records = trace.records();
  for (Record& r : records) r.timestamp -= 100.0;
  ASSERT_TRUE(engine->ProcessBatch(records).ok());
  Record late = records.front();
  EXPECT_EQ(engine->Process(late).code(), StatusCode::kInvalidArgument);
  late.timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine->Process(late).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine->Finish().ok());
  EXPECT_EQ(engine->counters().records, records.size());
}

TEST(StreamAggEngineTest, TelemetryHistoryCapHoldsOnLongRuns) {
  // Regression (ISSUE 8 satellite): history must stay at the cap no matter
  // how many epochs the run spans — memory is O(cap), not O(stream length).
  const Trace trace = UniformTrace(400, 60000, 43);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 0.2;  // ~50 epochs over the 10-second trace.
  options.telemetry_epoch_snapshots = true;
  options.telemetry_history_cap = 3;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB"))}, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // The run really did span far more epochs than the cap.
  EXPECT_GT((*engine)->counters().epochs_flushed, 30u);
  EXPECT_EQ((*engine)->telemetry_history().size(), 3u);
}

TEST(StreamAggEngineTest, TelemetryHistoryCapWidensToAdaptiveTrendWindow) {
  // A cap below the adaptive trend window would starve AssessTrend, so the
  // engine keeps at least trend_epochs + 1 snapshots regardless of the cap.
  const Trace trace = UniformTrace(400, 60000, 47);
  StreamAggEngine::Options options = BaseOptions();
  options.epoch_seconds = 0.2;
  options.adaptive = true;  // Forces epoch snapshots on.
  options.adaptive_options.trend_epochs = 4;
  options.telemetry_history_cap = 1;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB"))}, options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  EXPECT_GT((*engine)->counters().epochs_flushed, 30u);
  EXPECT_EQ((*engine)->telemetry_history().size(), 5u);  // trend_epochs + 1.
}

TEST(StreamAggEngineTest, ShardedTelemetryMergesToEngineCounters) {
  const Trace trace = UniformTrace(600, 80000, 41);
  StreamAggEngine::Options options = BaseOptions();
  options.num_shards = 3;
  auto engine = StreamAggEngine::FromQueryDefs(
      trace.schema(),
      {QueryDef(*trace.schema().ParseAttributeSet("AB")),
       QueryDef(*trace.schema().ParseAttributeSet("CD"))},
      options);
  ASSERT_TRUE(engine.ok());
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const TelemetrySnapshot snap = (*engine)->telemetry();
  EXPECT_EQ(snap.num_shards, 3);
  // Merged totals are bit-identical to the engine's accumulated counters.
  EXPECT_TRUE(snap.counters == (*engine)->counters());
  EXPECT_EQ(snap.counters.records, trace.size());
  ASSERT_EQ(snap.shards.size(), 3u);
  uint64_t routed = 0;
  for (const ShardTelemetry& s : snap.shards) routed += s.records;
  EXPECT_EQ(routed, trace.size());
}

// --- Online query churn (docs/query_frontend.md §4) ----------------------

TEST(StreamAggEngineChurnTest, AddQueryFromTextMidStream) {
  const Trace trace = UniformTrace(500, 60000, 71);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryTexts(
      schema, {"select A, B, count(*) from R group by A, B, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  int added = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 30000) {
      // The text parses against the live relation name and engine epoch.
      auto id = (*engine)->AddQuery(
          "select C, D, sum(A) from R group by C, D epoch 2");
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      added = *id;
      EXPECT_EQ(added, 1);
      EXPECT_TRUE((*engine)->IsLive(added));
      EXPECT_EQ((*engine)->num_query_ids(), 2);
      EXPECT_EQ((*engine)->parsed_queries().size(), 2u);
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ASSERT_EQ((*engine)->churn_events().size(), 1u);
  const QueryChurnEvent& event = (*engine)->churn_events().front();
  EXPECT_TRUE(event.add);
  EXPECT_EQ(event.query_id, added);
  EXPECT_FALSE(event.aliased);
  EXPECT_GE(event.optimize_millis, 0.0);
  EXPECT_FALSE((*engine)->Epochs(added).empty());
}

TEST(StreamAggEngineChurnTest, AddQueryTextRejections) {
  const Trace trace = UniformTrace(400, 40000, 73);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryTexts(
      schema,
      {"select A, count(*) from R where D < 4 group by A, time/2"},
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (size_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }

  // Epoch disagreement names both lengths.
  auto bad = (*engine)->AddQuery(
      "select B, count(*) from R where D < 4 group by B, time/60");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("60"), std::string::npos);
  EXPECT_NE(bad.status().ToString().find("2"), std::string::npos);

  // A different where clause breaks phantom sharing.
  bad = (*engine)->AddQuery("select B, count(*) from R group by B, time/2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("where clause"), std::string::npos);

  // A typo'd relation fails at parse time with the known relation listed.
  bad = (*engine)->AddQuery(
      "select B, count(*) from S where D < 4 group by B, time/2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("R"), std::string::npos);

  // Same group-by as a live query but different metrics: rejected, not
  // aliased (the slot cannot serve both result shapes).
  bad = (*engine)->AddQuery(
      "select A, sum(B) from R where D < 4 group by A, time/2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("different metrics"),
            std::string::npos);

  // Nothing above disturbed the engine.
  EXPECT_EQ((*engine)->num_query_ids(), 1);
  EXPECT_TRUE((*engine)->churn_events().empty());
  for (size_t i = 30000; i < trace.size(); ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
}

TEST(StreamAggEngineChurnTest, DropQueryGuards) {
  const Trace trace = UniformTrace(400, 50000, 79);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      BaseOptions());
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }

  EXPECT_FALSE((*engine)->DropQuery(-1).ok());
  EXPECT_FALSE((*engine)->DropQuery(7).ok());
  ASSERT_TRUE((*engine)->DropQuery(1).ok());
  // Already dropped.
  const Status twice = (*engine)->DropQuery(1);
  ASSERT_FALSE(twice.ok());
  EXPECT_NE(twice.ToString().find("already dropped"), std::string::npos);
  // Never below one live query.
  const Status last = (*engine)->DropQuery(0);
  ASSERT_FALSE(last.ok());
  EXPECT_NE(last.ToString().find("last live query"), std::string::npos);

  for (size_t i = 30000; i < trace.size(); ++i) {
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->IsLive(0));
  EXPECT_FALSE((*engine)->IsLive(1));
}

TEST(StreamAggEngineChurnTest, ChurnEventsExportedThroughTelemetry) {
  const Trace trace = UniformTrace(500, 60000, 83);
  const Schema& schema = trace.schema();
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      BaseOptions());
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 30000) {
      ASSERT_TRUE(
          (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("BC"))).ok());
    }
    if (i == 45000) {
      ASSERT_TRUE((*engine)->DropQuery(0).ok());
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ASSERT_EQ((*engine)->churn_events().size(), 2u);
  const TelemetrySnapshot snap = (*engine)->telemetry();
  ASSERT_EQ(snap.query_churn.size(), 2u);
  EXPECT_TRUE(snap.query_churn[0] == (*engine)->churn_events()[0]);
  EXPECT_TRUE(snap.query_churn[1] == (*engine)->churn_events()[1]);
  EXPECT_TRUE(snap.query_churn[0].add);
  EXPECT_FALSE(snap.query_churn[1].add);

  // The section survives the JSON line round trip bit-exactly and renders
  // in the human table.
  const std::string line = snap.ToJsonLine();
  EXPECT_NE(line.find("\"query_churn\""), std::string::npos);
  EXPECT_NE(line.find("\"action\":\"add\""), std::string::npos);
  EXPECT_NE(line.find("\"action\":\"drop\""), std::string::npos);
  auto restored = TelemetrySnapshot::FromJsonLine(line);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->query_churn.size(), 2u);
  EXPECT_TRUE(restored->query_churn[0] == snap.query_churn[0]);
  EXPECT_TRUE(restored->query_churn[1] == snap.query_churn[1]);
  EXPECT_NE(snap.ToTable().find("query churn:"), std::string::npos);
}

TEST(StreamAggEngineChurnTest, ChurnReserveKeepsGraftHeadroom) {
  // With a reserve the initial plan leaves budget a later graft may spend;
  // the engine runs exactly as without one (results are checked by the
  // differential suite — here the lifecycle and the budget accounting).
  const Trace trace = UniformTrace(500, 60000, 89);
  const Schema& schema = trace.schema();
  StreamAggEngine::Options options = BaseOptions();
  options.churn_reserve_fraction = 0.25;
  auto engine = StreamAggEngine::FromQueryDefs(
      schema,
      {QueryDef(*schema.ParseAttributeSet("AB")),
       QueryDef(*schema.ParseAttributeSet("CD"))},
      options);
  ASSERT_TRUE(engine.ok());
  int added = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 30000) {
      auto id =
          (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("BD")));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      added = *id;
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->IsLive(added));
  EXPECT_FALSE((*engine)->Epochs(added).empty());
}

TEST(StreamAggEngineChurnTest, PinnedPlanWithoutCountsRejectsLiveChurn) {
  // A pinned-plan engine with no catalog counts cannot re-plan: live
  // AddQuery/DropQuery fail cleanly and leave the engine running.
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  ASSERT_TRUE(catalog.ok());
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB")),
                            QueryDef(*schema.ParseAttributeSet("CD"))},
      20000.0);
  auto engine = StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {},
                                                BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto added = (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("BC")));
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.status().ToString().find("statistics"), std::string::npos);
  const Status dropped = (*engine)->DropQuery(0);
  ASSERT_FALSE(dropped.ok());
  EXPECT_NE(dropped.ToString().find("statistics"), std::string::npos);
  EXPECT_EQ((*engine)->num_query_ids(), 2);
  EXPECT_TRUE((*engine)->IsLive(0));
}

// --- ValidateOptions: one test per rejected combination, each message
// naming Options::<field> and the offending value (PR 4/6 convention). ---

TEST(EngineValidation, RejectsNonPositiveNumShards) {
  StreamAggEngine::Options options = BaseOptions();
  options.num_shards = 0;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::num_shards must be >= 1 (got 0)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsNonPositiveNumProducers) {
  StreamAggEngine::Options options = BaseOptions();
  options.num_producers = -2;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::num_producers must be >= 1 (got -2)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsTinyShardQueue) {
  StreamAggEngine::Options options = BaseOptions();
  options.shard_queue_capacity = 1;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::shard_queue_capacity must be >= 2 (got 1)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsOverloadAtTelemetryOff) {
  StreamAggEngine::Options options = BaseOptions();
  options.overload.enabled = true;
  options.telemetry_level = TelemetryLevel::kOff;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::overload.enabled requires Options::telemetry_level "
                "above kOff (got kOff)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsNegativeChurnReserve) {
  StreamAggEngine::Options options = BaseOptions();
  options.churn_reserve_fraction = -0.1;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::churn_reserve_fraction must be in [0, 0.9] "
                "(got -0.1)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsOverlargeChurnReserve) {
  // Above 0.9 the initial plan would starve; churn composes with adaptive
  // and overload, so the range check is the only churn rejection.
  StreamAggEngine::Options options = BaseOptions();
  options.churn_reserve_fraction = 0.95;
  options.adaptive = true;
  options.overload.enabled = true;
  auto engine = StreamAggEngine::FromQueryDefs(
      *Schema::Default(2), {QueryDef(AttributeSet::Single(0))}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::churn_reserve_fraction must be in [0, 0.9] "
                "(got 0.95)"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineValidation, RejectsAdaptivePinnedPlanWithoutCounts) {
  const Schema schema = *Schema::Default(4);
  auto catalog = RelationCatalog::Synthetic(
      schema, {{AttributeSet::Single(0).mask(), 100},
               {AttributeSet::Single(1).mask(), 100},
               {AttributeSet::Single(2).mask(), 100},
               {AttributeSet::Single(3).mask(), 100}});
  ASSERT_TRUE(catalog.ok());
  Optimizer optimizer;
  OptimizedPlan plan = *optimizer.Optimize(
      *catalog,
      std::vector<QueryDef>{QueryDef(*schema.ParseAttributeSet("AB"))},
      20000.0);
  StreamAggEngine::Options options = BaseOptions();
  options.adaptive = true;
  auto engine =
      StreamAggEngine::FromPinnedPlan(schema, std::move(plan), {}, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().ToString().find(
                "Options::adaptive requires catalog counts for pinned-plan "
                "engines (got adaptive=true with 0 catalog counts)"),
            std::string::npos)
      << engine.status().ToString();
}

}  // namespace
}  // namespace streamagg
