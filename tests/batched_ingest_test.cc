// Batched-ingest correctness: ProcessBatch over any batch split must be
// bit-identical to per-record ProcessRecord — same HFTA results, same
// counters — serial and sharded, on Zipf and flow traces. Also verifies the
// zero-allocation claim for the steady-state batched path, and that an HFTA
// hand-over allocates per epoch rather than per row, by hooking the global
// allocator.

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/configuration.h"
#include "core/engine.h"
#include "dsms/configuration_runtime.h"
#include "dsms/hfta.h"
#include "dsms/sharded_runtime.h"
#include "stream/flow_generator.h"
#include "stream/uniform_generator.h"
#include "stream/zipf_generator.h"
#include "util/random.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator new in this binary bumps it, so
// a scope that performs zero heap allocations shows a delta of zero.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamagg {
namespace {

Trace ZipfTrace(uint64_t seed) {
  const Schema schema = *Schema::Default(4);
  auto universe = GroupUniverse::Uniform(schema, 800, {60, 60, 60, 60}, seed);
  auto gen =
      std::move(ZipfGenerator::Make(std::move(*universe), 1.0, seed + 1))
          .value();
  return Trace::Generate(*gen, 40000, 12.0);
}

Trace FlowTrace(uint64_t seed) {
  FlowGeneratorOptions options;
  options.seed = seed;
  auto gen = std::move(FlowGenerator::MakePaperTrace(options)).value();
  return Trace::Generate(*gen, 40000, 12.0);
}

std::vector<RuntimeRelationSpec> SpecsFor(const Schema& schema,
                                          const std::string& config_text,
                                          double buckets_per_table = 128.0) {
  auto config = Configuration::Parse(schema, config_text);
  EXPECT_TRUE(config.ok()) << config_text;
  auto specs = config->ToRuntimeSpecs(
      std::vector<double>(config->num_nodes(), buckets_per_table));
  EXPECT_TRUE(specs.ok());
  return *specs;
}

int NumQueries(const std::vector<RuntimeRelationSpec>& specs) {
  int n = 0;
  for (const auto& s : specs) n += s.is_query ? 1 : 0;
  return n;
}

void ExpectCountersEqual(const RuntimeCounters& a, const RuntimeCounters& b,
                         const std::string& label) {
  EXPECT_EQ(a.records, b.records) << label;
  EXPECT_EQ(a.intra_probes, b.intra_probes) << label;
  EXPECT_EQ(a.intra_transfers, b.intra_transfers) << label;
  EXPECT_EQ(a.flush_probes, b.flush_probes) << label;
  EXPECT_EQ(a.flush_transfers, b.flush_transfers) << label;
  EXPECT_EQ(a.epochs_flushed, b.epochs_flushed) << label;
}

void ExpectHftaEqual(const Hfta& a, const Hfta& b, int num_queries,
                     const std::string& label) {
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<uint64_t> epochs = a.Epochs(q);
    ASSERT_EQ(epochs, b.Epochs(q)) << label << " query " << q;
    for (uint64_t epoch : epochs) {
      EXPECT_TRUE(a.Result(q, epoch) == b.Result(q, epoch))
          << label << " query " << q << " epoch " << epoch;
    }
  }
}

/// Feeds `trace` in batches: deterministic size `batch` when > 0, random
/// sizes in [1, 97] when batch == 0.
void FeedInBatches(ConfigurationRuntime& runtime, const Trace& trace,
                   size_t batch, uint64_t split_seed = 0) {
  const std::vector<Record>& records = trace.records();
  Random rng(split_seed);
  size_t i = 0;
  while (i < records.size()) {
    const size_t want = batch > 0 ? batch : 1 + rng.Uniform(97);
    const size_t n = std::min(want, records.size() - i);
    runtime.ProcessBatch(std::span<const Record>(&records[i], n));
    i += n;
  }
  runtime.FlushEpoch();
}

void ExpectBatchSplitsBitIdentical(const Trace& trace,
                                   const std::string& config_text,
                                   double epoch_seconds) {
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  const int num_queries = NumQueries(specs);

  // Baseline: one record per ProcessRecord call.
  auto baseline =
      std::move(ConfigurationRuntime::Make(trace.schema(), specs,
                                           epoch_seconds))
          .value();
  for (const Record& r : trace.records()) baseline->ProcessRecord(r);
  baseline->FlushEpoch();

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, trace.size(),
                       size_t{0} /* random splits */}) {
    auto runtime =
        std::move(ConfigurationRuntime::Make(trace.schema(), specs,
                                             epoch_seconds))
            .value();
    FeedInBatches(*runtime, trace, batch, /*split_seed=*/batch + 17);
    const std::string label =
        config_text + " batch=" + std::to_string(batch);
    ExpectCountersEqual(runtime->counters(), baseline->counters(), label);
    ExpectHftaEqual(runtime->hfta(), baseline->hfta(), num_queries, label);
  }
}

TEST(BatchedIngestTest, ZipfBatchSplitsBitIdentical) {
  ExpectBatchSplitsBitIdentical(ZipfTrace(0xba7c), "ABCD(AB BCD(BC BD CD))",
                                3.0);
}

TEST(BatchedIngestTest, FlowBatchSplitsBitIdentical) {
  ExpectBatchSplitsBitIdentical(FlowTrace(0xf33d), "ABCD(AB BCD(BC BD CD))",
                                3.0);
}

TEST(BatchedIngestTest, FlatForestUnboundedEpochBitIdentical) {
  // Multiple raw relations and no epoch switching inside batches.
  ExpectBatchSplitsBitIdentical(ZipfTrace(0x51), "A B C D", 0.0);
}

TEST(BatchedIngestTest, MetricsBatchSplitsBitIdentical) {
  const Trace trace = FlowTrace(0x3c);
  const Schema& schema = trace.schema();
  auto base = Configuration::Parse(schema, "ABC(AB(A B) C) D");
  ASSERT_TRUE(base.ok());
  std::vector<QueryDef> defs = base->QueryDefs();
  for (QueryDef& def : defs) {
    def.metrics = {MetricSpec{AggregateOp::kSum, 0},
                   MetricSpec{AggregateOp::kMax, 3}};
  }
  auto config = Configuration::Make(schema, defs, base->PhantomSets());
  ASSERT_TRUE(config.ok());
  auto specs = config->ToRuntimeSpecs(
      std::vector<double>(config->num_nodes(), 128.0));
  ASSERT_TRUE(specs.ok());
  const int num_queries = NumQueries(*specs);

  auto baseline =
      std::move(ConfigurationRuntime::Make(schema, *specs, 3.0)).value();
  for (const Record& r : trace.records()) baseline->ProcessRecord(r);
  baseline->FlushEpoch();
  for (size_t batch : {size_t{7}, size_t{64}}) {
    auto runtime =
        std::move(ConfigurationRuntime::Make(schema, *specs, 3.0)).value();
    FeedInBatches(*runtime, trace, batch);
    ExpectCountersEqual(runtime->counters(), baseline->counters(), "metrics");
    ExpectHftaEqual(runtime->hfta(), baseline->hfta(), num_queries, "metrics");
  }
}

TEST(BatchedIngestTest, ShardedBatchedMatchesShardedPerRecord) {
  const Trace trace = ZipfTrace(0x7e57);
  const std::string config_text = "ABCD(AB BCD(BC BD CD))";
  const std::vector<RuntimeRelationSpec> specs =
      SpecsFor(trace.schema(), config_text);
  const int num_queries = NumQueries(specs);
  for (int shards : {1, 2, 4, 7}) {
    ShardedRuntime::Options options;
    options.num_shards = shards;

    auto per_record = ShardedRuntime::Make(trace.schema(), specs, 3.0,
                                           options);
    ASSERT_TRUE(per_record.ok());
    for (const Record& r : trace.records()) (*per_record)->ProcessRecord(r);
    (*per_record)->FlushEpoch();

    auto batched = ShardedRuntime::Make(trace.schema(), specs, 3.0, options);
    ASSERT_TRUE(batched.ok());
    (*batched)->ProcessBatch(trace.records());
    (*batched)->FlushEpoch();

    const std::string label = "shards=" + std::to_string(shards);
    ExpectCountersEqual((*batched)->counters(), (*per_record)->counters(),
                        label);
    ExpectHftaEqual((*batched)->hfta(), (*per_record)->hfta(), num_queries,
                    label);
  }
}

TEST(BatchedIngestTest, EngineBatchedMatchesPerRecord) {
  // End to end through StreamAggEngine, including the sampling-phase
  // crossover landing mid-batch and (at 12000) one call spanning a whole
  // 10000-record epoch. The epoch history must match too: one snapshot per
  // completed epoch, each holding exactly the records up to that epoch's
  // end, however the stream was cut into calls.
  const Trace trace = ZipfTrace(0xe6);
  const Schema& schema = trace.schema();
  std::vector<QueryDef> queries = {QueryDef(*schema.ParseAttributeSet("AB")),
                                   QueryDef(*schema.ParseAttributeSet("BC")),
                                   QueryDef(*schema.ParseAttributeSet("CD"))};
  StreamAggEngine::Options options;
  options.memory_words = 4000;
  options.sample_size = 5000;
  options.epoch_seconds = 3.0;
  options.clustered = false;
  options.telemetry_epoch_snapshots = true;

  auto per_record =
      std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
          .value();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE(per_record->Process(r).ok());
  }
  ASSERT_TRUE(per_record->Finish().ok());

  ASSERT_EQ(per_record->telemetry_history().size(), 3u);
  for (size_t batch : {size_t{64}, size_t{997}, size_t{12000}}) {
    auto engine =
        std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
            .value();
    const std::vector<Record>& records = trace.records();
    for (size_t i = 0; i < records.size(); i += batch) {
      const size_t n = std::min(batch, records.size() - i);
      ASSERT_TRUE(
          engine->ProcessBatch(std::span<const Record>(&records[i], n)).ok());
    }
    ASSERT_TRUE(engine->Finish().ok());

    const std::string label = "engine batch=" + std::to_string(batch);
    ExpectCountersEqual(engine->counters(), per_record->counters(), label);
    const std::vector<TelemetrySnapshot>& history = engine->telemetry_history();
    const std::vector<TelemetrySnapshot>& expected =
        per_record->telemetry_history();
    ASSERT_EQ(history.size(), expected.size()) << label;
    for (size_t i = 0; i < history.size(); ++i) {
      EXPECT_EQ(history[i].epoch, expected[i].epoch) << label;
      EXPECT_EQ(history[i].counters.records, expected[i].counters.records)
          << label << " snapshot " << i;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::vector<uint64_t> epochs =
          engine->Epochs(static_cast<int>(q));
      ASSERT_EQ(epochs, per_record->Epochs(static_cast<int>(q))) << label;
      for (uint64_t epoch : epochs) {
        EXPECT_TRUE(engine->EpochResult(static_cast<int>(q), epoch) ==
                    per_record->EpochResult(static_cast<int>(q), epoch))
            << label << " query " << q << " epoch " << epoch;
      }
    }
  }
}

TEST(BatchedIngestTest, EngineCallSplitsAgreeUnderAdaptiveOverloadAndChurn) {
  // Every engine mechanism that acts at an epoch boundary or a plan change
  // at once: adaptive re-planning (a 15x group blow-up at epoch 3), an idle
  // overload controller and an AddQuery/DropQuery pair. Whatever the split
  // into calls (1, 64, or more than one 20000-record epoch per call) and
  // the P x S split (1x1, 1x2, 2x2), the results, the record counts, the
  // epoch history, the churn events and the re-plan epochs and triggers
  // agree. Within one P x S split the re-plan events agree whole; across
  // splits their node counts and drift may not, since per-shard tables
  // are sized and collide differently. For P = 2 a multi-record call is striped
  // across producer threads, so a shard's probe order follows thread
  // timing: the full counters and the measured drift are compared for
  // P = 1 only.
  const Schema schema = *Schema::Default(4);
  Trace trace(schema);
  for (const auto& [groups, offset, seed] :
       {std::tuple{uint64_t{400}, 0.0, uint64_t{31}},
        std::tuple{uint64_t{6000}, 6.0, uint64_t{32}}}) {
    auto gen = std::move(UniformGenerator::Make(schema, groups, seed)).value();
    for (size_t i = 0; i < 60000; ++i) {
      Record r = gen->Next();
      r.timestamp = offset + 6.0 * static_cast<double>(i) / 60000.0;
      trace.Append(r);
    }
  }
  const std::vector<Record>& records = trace.records();
  const std::vector<QueryDef> queries = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};
  const QueryDef added(*schema.ParseAttributeSet("BC"));
  constexpr size_t kAddAt = 25000;   // Epoch 1, after sampling.
  constexpr size_t kDropAt = 50000;  // Epoch 2.

  struct Run {
    std::unique_ptr<StreamAggEngine> engine;
    std::string label;
    int producers;
  };
  std::vector<Run> runs;
  for (const auto& [producers, shards] : {std::pair{1, 1}, std::pair{1, 2},
                                          std::pair{2, 2}}) {
    for (size_t batch : {size_t{1}, size_t{64}, size_t{25000}}) {
      StreamAggEngine::Options options;
      options.memory_words = 30000.0;
      options.sample_size = 10000;
      options.epoch_seconds = 2.0;
      options.clustered = false;
      options.adaptive = true;
      options.num_producers = producers;
      options.num_shards = shards;
      options.overload.enabled = true;
      options.overload.queue_blocked_fraction = 1e9;  // Never reachable.
      options.overload.epoch_gap_watermark_ns = 0;    // Signal disabled.
      options.overload.min_shed_fraction = 0.0;
      auto engine =
          std::move(StreamAggEngine::FromQueryDefs(schema, queries, options))
              .value();
      const std::string label = "P=" + std::to_string(producers) + " S=" +
                                std::to_string(shards) +
                                " batch=" + std::to_string(batch);
      // Calls never straddle a churn point, so every run churns at the
      // same record.
      const auto feed = [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; i += batch) {
          const size_t n = std::min(batch, end - i);
          const Status status =
              n == 1 ? engine->Process(records[i])
                     : engine->ProcessBatch(
                           std::span<const Record>(&records[i], n));
          ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
        }
      };
      feed(0, kAddAt);
      ASSERT_TRUE(engine->AddQuery(added).ok()) << label;
      feed(kAddAt, kDropAt);
      ASSERT_TRUE(engine->DropQuery(0).ok()) << label;
      feed(kDropAt, records.size());
      ASSERT_TRUE(engine->Finish().ok()) << label;
      runs.push_back(Run{std::move(engine), label, producers});
    }
  }

  const StreamAggEngine& base = *runs.front().engine;
  ASSERT_GE(base.reoptimizations(), 1);
  ASSERT_EQ(base.churn_events().size(), 2u);
  for (size_t r = 1; r < runs.size(); ++r) {
    const StreamAggEngine& engine = *runs[r].engine;
    const std::string& label = runs[r].label;
    // The first run of each P x S split (batch 1) anchors the re-plan
    // comparison and, for P = 1, the counters.
    const StreamAggEngine& split_base = *runs[r - r % 3].engine;
    ASSERT_EQ(engine.num_query_ids(), base.num_query_ids()) << label;
    for (int q = 0; q < base.num_query_ids(); ++q) {
      ASSERT_EQ(engine.Epochs(q), base.Epochs(q)) << label << " query " << q;
      for (uint64_t epoch : base.Epochs(q)) {
        EXPECT_TRUE(engine.EpochResult(q, epoch) == base.EpochResult(q, epoch))
            << label << " query " << q << " epoch " << epoch;
      }
    }
    EXPECT_EQ(engine.counters().records, base.counters().records) << label;
    if (runs[r].producers == 1) {
      ExpectCountersEqual(engine.counters(), split_base.counters(), label);
    }
    const std::vector<TelemetrySnapshot>& history = engine.telemetry_history();
    ASSERT_EQ(history.size(), base.telemetry_history().size()) << label;
    for (size_t i = 0; i < history.size(); ++i) {
      EXPECT_EQ(history[i].epoch, base.telemetry_history()[i].epoch) << label;
      EXPECT_EQ(history[i].counters.records,
                base.telemetry_history()[i].counters.records)
          << label << " snapshot " << i;
    }
    ASSERT_EQ(engine.churn_events().size(), base.churn_events().size());
    for (size_t i = 0; i < base.churn_events().size(); ++i) {
      const QueryChurnEvent& got = engine.churn_events()[i];
      const QueryChurnEvent& want = base.churn_events()[i];
      EXPECT_EQ(got.epoch, want.epoch) << label;
      EXPECT_EQ(got.add, want.add) << label;
      EXPECT_EQ(got.query_id, want.query_id) << label;
      EXPECT_EQ(got.relation, want.relation) << label;
      EXPECT_EQ(got.grafted, want.grafted) << label;
      EXPECT_EQ(got.replanned_nodes, want.replanned_nodes) << label;
      EXPECT_EQ(got.pinned_nodes, want.pinned_nodes) << label;
    }
    // Every split re-plans at the same boundaries for the same relation;
    // the re-planned subtree depends on the per-shard budget, so node
    // counts (and for P = 1 the drift) are compared within a split.
    const std::vector<ReplanEvent> replans = engine.telemetry().replans;
    const std::vector<ReplanEvent> base_replans = base.telemetry().replans;
    const std::vector<ReplanEvent> want_replans =
        split_base.telemetry().replans;
    ASSERT_EQ(replans.size(), base_replans.size()) << label;
    ASSERT_EQ(replans.size(), want_replans.size()) << label;
    for (size_t i = 0; i < replans.size(); ++i) {
      EXPECT_EQ(replans[i].epoch, base_replans[i].epoch) << label;
      EXPECT_EQ(replans[i].trigger_relation, base_replans[i].trigger_relation)
          << label;
      if (runs[r].producers == 1) {
        EXPECT_EQ(replans[i].drift, want_replans[i].drift) << label;
      }
      EXPECT_EQ(replans[i].replanned_nodes, want_replans[i].replanned_nodes)
          << label;
      EXPECT_EQ(replans[i].pinned_nodes, want_replans[i].pinned_nodes)
          << label;
    }
  }
}

TEST(BatchedIngestAllocationTest, SteadyStateBatchedPathAllocatesNothing) {
  // Steady state = every probe updates a resident group (no evictions, no
  // HFTA traffic). Constructed exactly: warm the table, read back the
  // resident groups, and re-feed records that project onto them. The
  // batched path must then touch the heap zero times.
  const Schema schema = *Schema::Default(4);
  RuntimeRelationSpec spec;
  spec.attrs = *schema.ParseAttributeSet("AB");
  spec.num_buckets = 4096;
  spec.is_query = true;
  spec.query_index = 0;
  auto runtime =
      std::move(ConfigurationRuntime::Make(schema, {spec},
                                           /*epoch_seconds=*/0.0))
          .value();

  // Warm-up: 512 distinct-ish groups (collisions during warm-up are fine).
  std::vector<Record> warm(2048);
  Random rng(0xa110c);
  for (Record& r : warm) {
    r.values[0] = static_cast<uint32_t>(rng.Uniform(32));
    r.values[1] = static_cast<uint32_t>(rng.Uniform(16));
  }
  runtime->ProcessBatch(warm);

  // Steady-state batch: one record per resident group, repeated 16 times.
  std::vector<Record> steady;
  runtime->table(0).ForEach([&](const GroupKey& key, uint64_t) {
    Record r;
    r.values[0] = key.values[0];
    r.values[1] = key.values[1];
    steady.push_back(r);
  });
  ASSERT_FALSE(steady.empty());
  const uint64_t collisions_before = runtime->table(0).collisions();

  const uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 16; ++pass) {
    runtime->ProcessBatch(steady);
  }
  const uint64_t allocations_after =
      g_allocations.load(std::memory_order_relaxed);

  // Sanity: the workload really was eviction-free steady state.
  EXPECT_EQ(runtime->table(0).collisions(), collisions_before);
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "steady-state ProcessBatch allocated";
}

TEST(BatchedIngestTest, HftaHandOverAllocatesPerEpochNotPerRow) {
  // A retiring runtime hands its HFTA over by ownership: absorbing N
  // disjoint epochs of R rows moves N map nodes and allocates at most O(N)
  // times, never once per row. The copying MergeFrom, for contrast, must
  // allocate per row — which also shows the hook sees these allocations.
  constexpr uint64_t kEpochs = 16;
  constexpr uint32_t kRows = 2000;
  const auto fill = [&](Hfta& hfta, uint64_t first_epoch) {
    for (uint64_t e = first_epoch; e < first_epoch + kEpochs; ++e) {
      for (uint32_t v = 0; v < kRows; ++v) {
        GroupKey key;
        key.size = 1;
        key.values[0] = v;
        hfta.Add(0, e, key, AggregateState::FromCount(1));
      }
    }
  };
  Hfta held(1);
  fill(held, 0);
  Hfta retiring(1);
  fill(retiring, kEpochs);
  Hfta copy_target(1);

  const uint64_t before_copy = g_allocations.load(std::memory_order_relaxed);
  copy_target.MergeFrom(static_cast<const Hfta&>(retiring));
  const uint64_t copy_allocations =
      g_allocations.load(std::memory_order_relaxed) - before_copy;
  EXPECT_GE(copy_allocations, kEpochs * kRows);

  const uint64_t before_move = g_allocations.load(std::memory_order_relaxed);
  held.MergeFrom(std::move(retiring));
  const uint64_t move_allocations =
      g_allocations.load(std::memory_order_relaxed) - before_move;
  EXPECT_LE(move_allocations, kEpochs)
      << "the hand-over allocated per row, not per epoch";
  EXPECT_EQ(held.EpochsHeld(0), 2 * kEpochs);
  EXPECT_EQ(held.TotalGroups(0), 2 * kEpochs * kRows);
  EXPECT_EQ(held.transfers(), 2 * kEpochs * kRows);
  EXPECT_EQ(retiring.EpochsHeld(0), 0u);
}

}  // namespace
}  // namespace streamagg
