#ifndef STREAMAGG_CORE_ENGINE_H_
#define STREAMAGG_CORE_ENGINE_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/adaptive.h"
#include "core/optimizer.h"
#include "core/query_language.h"
#include "dsms/overload_controller.h"
#include "dsms/sharded_runtime.h"
#include "obs/telemetry.h"
#include "stream/trace_stats.h"

namespace streamagg {

/// The one-object entry point a monitoring deployment uses: give it a
/// schema, the queries (in the paper's GSQL-like syntax or as QueryDefs)
/// and an LFTA memory budget; feed it records; read per-epoch results.
///
/// Lifecycle:
///   1. *Sampling* — the first `sample_size` records are buffered and used
///      to measure group counts and flow lengths.
///   2. *Planning* — the optimizer chooses phantoms and allocates memory;
///      the buffered records are replayed into the runtime.
///   3. *Running* — records flow straight through. At every epoch boundary
///      the engine (optionally) checks the AdaptiveController and, on
///      drift, re-plans from statistics estimated out of the live tables —
///      never storing the stream.
class StreamAggEngine {
 public:
  struct Options {
    double memory_words = 40000.0;
    /// Records buffered for the initial statistics pass.
    size_t sample_size = 50000;
    /// Epoch length; overridden by the queries' time/N grouping when the
    /// engine is built from query texts.
    double epoch_seconds = 0.0;
    /// Enable drift-triggered re-planning at epoch boundaries: the engine
    /// keeps per-epoch telemetry snapshots (epoch snapshots are forced on)
    /// and asks AdaptiveController::AssessTrend for a sustained drift trend
    /// — `adaptive_options.trend_epochs` consecutive epochs of a table
    /// colliding beyond plan. On a trigger it re-estimates statistics from
    /// table occupancy for the drifted feeding trees (prior statistics
    /// everywhere else) and re-optimizes the whole plan from scratch,
    /// swapping the runtime at the epoch boundary. Works for any
    /// num_producers x num_shards split: sharded engines run the check at a
    /// Quiesce barrier, where the matrix is drained but the tables still
    /// hold the epoch's groups.
    bool adaptive = false;
    AdaptiveController::Options adaptive_options;
    OptimizerOptions optimizer;
    /// Treat the stream as clustered (estimate flow lengths) during the
    /// sampling pass.
    bool clustered = true;
    /// Parallel LFTA ingest shards (dsms/sharded_runtime.h). 1 (default)
    /// runs the original single-threaded path unchanged. N > 1 partitions
    /// records across N runtime replicas driven by worker threads and
    /// merges their HFTA outputs at the Finish() epoch barrier; the LFTA
    /// memory budget is split N ways so the total footprint (and the cost
    /// model's per-table sizing) stays honest. Composes with `adaptive`:
    /// drift checks and plan swaps happen at the quiescence barrier.
    int num_shards = 1;
    /// Parallel ingest producers feeding the shards. 1 (default) stages
    /// records on the caller's thread. P > 1 turns the sharded runtime's
    /// ingest front end into a P x S matrix of SPSC queues: each batch is
    /// striped across P producer threads that hash/route in parallel, with
    /// an epoch barrier quiescing the matrix at every epoch boundary so
    /// results stay bit-identical to the serial engine. num_producers > 1
    /// engages the sharded runtime even when num_shards == 1, and composes
    /// with `adaptive` the same way num_shards does.
    int num_producers = 1;
    /// Per-(producer, shard) record queue capacity when the sharded
    /// runtime is engaged (num_shards > 1 or num_producers > 1).
    size_t shard_queue_capacity = 4096;
    /// Pin shard workers and producer threads to CPUs chosen by the
    /// affinity planner (util/cpu_topology.h): producers spread across
    /// NUMA nodes, each shard consumer co-located with its dominant
    /// producer. Best-effort; ignored on the serial path.
    bool pin_threads = false;
    /// Runtime telemetry tier (obs/metrics.h), within whatever the binary
    /// compiled in via STREAMAGG_TELEMETRY_LEVEL. kFull adds per-batch and
    /// per-flush wall-clock histograms; kCounters keeps only integer
    /// tallies; kOff disables everything beyond the load-bearing
    /// probe/collision counters.
    TelemetryLevel telemetry_level = TelemetryLevel::kFull;
    /// Record a TelemetrySnapshot each time the engine's epoch advances
    /// (telemetry_history()). Off by default: capture allocates, so it is
    /// opt-in for dashboards (examples/engine_monitor.cpp), never on the
    /// zero-allocation path — except under `adaptive`, which needs the
    /// history for its trend check and forces capture on. Sharded engines
    /// capture at a Quiesce barrier (queues drained, workers parked, tables
    /// still holding the completed epoch's groups — race-free and merged
    /// across shards); serial engines likewise capture pre-flush.
    bool telemetry_epoch_snapshots = false;
    /// Bound on telemetry_history(): oldest snapshots are dropped first.
    /// Adaptive engines keep at least trend_epochs + 1 snapshots.
    size_t telemetry_history_cap = 64;
    /// Overload controller (dsms/overload_controller.h, docs/overload.md):
    /// cost-priced load shedding at the raw-relation probes plus ingest
    /// rebalancing, judged at epoch boundaries from the telemetry history
    /// (epoch snapshots are forced on, like `adaptive`). Requires
    /// telemetry_level above kOff — the controller reads the blocked-push
    /// counters that tier maintains. Composes with `adaptive` and any
    /// num_producers x num_shards split.
    OverloadController::Options overload;
  };

  /// Builds an engine from queries in the paper's query language. The
  /// epoch comes from their time/N grouping (if any).
  static Result<std::unique_ptr<StreamAggEngine>> FromQueryTexts(
      const Schema& schema, const std::vector<std::string>& queries,
      Options options);

  /// Builds an engine from explicit query definitions.
  static Result<std::unique_ptr<StreamAggEngine>> FromQueryDefs(
      const Schema& schema, std::vector<QueryDef> queries, Options options);

  /// Builds an engine around a pre-made (pinned) plan — e.g. one restored
  /// with core/plan_io.h — skipping the sampling phase entirely: the first
  /// record flows straight into the runtime. The plan's query definitions
  /// become the engine's queries. Adaptive re-planning, if enabled, needs
  /// statistics; they are taken from `catalog_counts` (AttributeSet mask ->
  /// group count; may be empty when adaptivity is off).
  static Result<std::unique_ptr<StreamAggEngine>> FromPinnedPlan(
      const Schema& schema, OptimizedPlan plan,
      std::map<uint32_t, uint64_t> catalog_counts, Options options);

  /// Feeds one record: a ProcessBatch of one record.
  Status Process(const Record& record);

  /// Feeds a batch of records. Every call takes the same path, whether the
  /// engine is sampling, adaptive or under the overload controller: the
  /// batch is cut at epoch boundaries, each boundary runs the epoch step
  /// (snapshot capture, then the adaptive and overload controllers), and
  /// each epoch run goes to the runtime's allocation-free ProcessBatch.
  /// There is no per-record fallback. So any split of the stream into calls
  /// gives the same results, the same counters (up to the cross-producer
  /// interleave when num_producers > 1) and an exact telemetry_history():
  /// one snapshot per completed planned epoch, holding exactly the records
  /// up to that epoch's end.
  ///
  /// Timestamp contract: every timestamp must be finite, not below the
  /// last accepted one (in this call or an earlier one) and, when epochs
  /// are on, not negative. A batch with any record breaking it returns
  /// InvalidArgument and changes no state. Records the shared where clause
  /// drops are accepted records too. Any other error is an internal
  /// planning failure (e.g. the memory budget cannot host the tables).
  Status ProcessBatch(std::span<const Record> records);

  /// Completes the current epoch (call at end of stream). The stream is
  /// then over: a later Process, ProcessBatch, AddQuery or DropQuery
  /// returns FailedPrecondition and changes nothing, and a second Finish()
  /// does nothing. Results, counters and telemetry stay readable.
  Status Finish();

  /// Registers a new standing query online (docs/query_frontend.md §4).
  /// The text is parsed against the engine's schema (and live relation
  /// name, when known); its where clause must equal the engine's shared
  /// filter and its epoch (if it names one) must agree with the engine's.
  /// Returns a stable query id for EpochResult/Epochs/DropQuery — ids are
  /// never reused, so they stay valid across later churn. While the plan
  /// is live, the whole query set is re-optimized from scratch and the
  /// runtime swapped at a flushing plan-change barrier; if the optimizer
  /// fails (e.g. ResourceExhausted: the budget cannot host the new
  /// tables) the engine is left exactly as it was. A query whose
  /// (group-by, metrics) exactly matches a live query becomes an alias —
  /// zero plan change — while a group-by match with different metrics is
  /// rejected. Results accumulate from the swap onward (the epoch in
  /// flight is flushed for the pre-existing queries first). After Finish()
  /// both overloads return FailedPrecondition.
  Result<int> AddQuery(const std::string& text);

  /// Same, from an explicit definition (no text, no filter, engine epoch).
  Result<int> AddQuery(QueryDef def);

  /// Unregisters query `query_id` at a flushing barrier. Its results up to
  /// the drop are archived and stay readable through EpochResult/Epochs
  /// under the same id; its groups stop accumulating immediately (the HFTA
  /// slot is remapped away and the Add target cache invalidated). Dropping
  /// the last live query is rejected — an engine cannot run queryless.
  /// Non-aliased drops re-optimize the surviving queries from scratch (so
  /// the freed budget is re-allocated) and swap the runtime; alias drops
  /// only release the reference. After Finish() returns
  /// FailedPrecondition.
  Status DropQuery(int query_id);

  /// Query ids handed out so far (initial queries get 0..n-1). Ids of
  /// dropped queries stay valid for result reads.
  int num_query_ids() const { return static_cast<int>(handles_.size()); }
  /// True while `query_id` is registered (accumulating results).
  bool IsLive(int query_id) const {
    return query_id >= 0 && query_id < num_query_ids() &&
           handles_[static_cast<size_t>(query_id)].dense >= 0;
  }
  /// Every add/drop so far, oldest first (also exported via telemetry as
  /// the `query_churn` section).
  const std::vector<QueryChurnEvent>& churn_events() const {
    return churn_events_;
  }

  /// The engine's epoch length in seconds (0 while epochless). Reflects
  /// any epoch adopted from query texts, so churn drivers can translate
  /// epoch numbers into record timestamps.
  double epoch_seconds() const { return options_.epoch_seconds; }

  /// True once the sampling phase is over and a plan is live.
  bool planned() const {
    return std::visit([](const auto& r) { return r != nullptr; }, runtime_);
  }
  /// The live configuration ("" while still sampling).
  std::string ConfigurationText() const;
  /// The live plan (nullptr while still sampling); serialize it with
  /// core/plan_io.h to pin the configuration across runs.
  const OptimizedPlan* plan() const { return plan_.get(); }

  /// Final aggregate of query `query_index` for `epoch` (empty if none).
  /// Results survive adaptive runtime swaps and query churn: the index is
  /// a stable query id (initial queries are 0..n-1) and dropped queries
  /// keep serving their archived results.
  const EpochAggregate& EpochResult(int query_index, uint64_t epoch) const;
  /// Epochs with results for `query_index`, ascending.
  std::vector<uint64_t> Epochs(int query_index) const;

  /// Aggregated operation counters across all runtimes so far.
  RuntimeCounters counters() const;

  /// Point-in-time telemetry: per-table occupancy/collision stats paired
  /// with the cost model's predicted collision rates for the live plan
  /// (the paper's model-vs-actual comparison), engine-total counters, and
  /// latency histograms. While sampling, returns an empty snapshot; after
  /// Finish(), returns the final pre-teardown snapshot. For sharded
  /// engines call it only while the shards are quiescent (after Finish()).
  TelemetrySnapshot telemetry() const;
  /// Per-epoch snapshots captured when Options::telemetry_epoch_snapshots
  /// is set; each is labeled with the epoch it completed.
  const std::vector<TelemetrySnapshot>& telemetry_history() const {
    return telemetry_history_;
  }
  int reoptimizations() const {
    return static_cast<int>(replan_events_.size());
  }
  double last_optimize_millis() const { return last_optimize_millis_; }
  /// One ParsedQuery per query id (synthesized for def-built queries:
  /// grouping attributes, count(*), and the declared metrics as outputs).
  const std::vector<ParsedQuery>& parsed_queries() const { return parsed_; }
  /// Live (planned-for) queries — the dense count the plan and HFTA hold.
  /// Aliased ids share one slot, so this can be below the live id count.
  int num_queries() const { return static_cast<int>(queries_.size()); }

 private:
  /// Lifecycle of one query id: the dense slot it occupies in queries_/
  /// the plan/the HFTA (-1 once dropped), and its churn epochs.
  struct QueryHandle {
    int dense = -1;
    uint64_t added_epoch = 0;
    uint64_t dropped_epoch = 0;
  };

  StreamAggEngine(const Schema& schema, std::vector<QueryDef> queries,
                  std::vector<ParsedQuery> parsed, Options options);

  /// Ends the sampling phase: measures statistics, plans, replays buffer.
  Status PlanFromSample();

  /// Epoch boundary (adaptive only): judges the telemetry history for a
  /// sustained drift trend; on a trigger, re-estimates statistics for the
  /// drifted feeding trees from live table occupancy, merges them with the
  /// prior statistics of every other relation, re-plans through ChangePlan
  /// and records a ReplanEvent. CaptureEpochSnapshot must run first: it
  /// appends the history entry the trend check reads and, for sharded
  /// engines, quiesces the matrix so the tables are safe to read.
  ///
  /// Also the seat of the probe-mode policy (docs/probe_kernel.md §3): when
  /// adaptive_options.sort_enter_collision_rate <= 1.0 the same controller
  /// chooses hash vs. sort-drain per raw table (DecideProbeModes) and
  /// installs flips via SetProbeModes — flag-only, safe at this boundary on
  /// both paths (serial pre-flush, sharded quiescent). A flip re-prices the
  /// overload controller's shed plan so its cycles-per-record stay honest.
  /// When adaptive_options.auto_tune_trend is set, trend_epochs and
  /// widening_slack are first re-derived from the observed epoch-gap spread
  /// (AdaptiveController::AutoTuneTrend).
  Status HandleEpochBoundary();

  /// Epoch boundary (overload controller only): re-judges the shed plan
  /// against the freshly captured snapshot history and installs it into the
  /// live runtime; for sharded runtimes also asks the controller for an
  /// ingest-layout rebalance and applies it at the Quiesce barrier the
  /// capture already ran. Runs after CaptureEpochSnapshot (and after any
  /// adaptive re-plan, so the plan it sheds against is the live one).
  Status HandleOverloadBoundary();

  /// Builds (or rebuilds) the runtime for `plan_` and hands it the results
  /// of the epoch in flight (`current_epoch_`) from accumulated_hfta_ by
  /// ownership. An epoch cut by a plan change thus lives in one HFTA only:
  /// EpochResult reads it whole, and the next hand-over splices it back
  /// without folding rows.
  Status InstallRuntime();

  /// Rejects option combinations the engine cannot honor (num_shards or
  /// num_producers < 1, queue capacity < 2). Messages name the offending
  /// field and the value it held.
  static Status ValidateOptions(const Options& options);

  /// Registers a parsed query: alias, structural append (sampling phase),
  /// or live re-plan through ChangePlan. The workhorse behind both AddQuery
  /// overloads; `parsed` must carry `def`.
  Result<int> AddParsedQuery(ParsedQuery parsed);

  /// What a plan change cost, for the caller's ReplanEvent or
  /// QueryChurnEvent.
  struct PlanChange {
    double optimize_millis = 0.0;
    double merge_millis = 0.0;  ///< PlanChangeBarrier wall-clock.
    int nodes = 0;              ///< Relations in the new plan.
  };

  /// The one plan-change step of the adaptive swap, AddQuery and
  /// DropQuery. In order: optimizes `queries` from scratch under `catalog`
  /// (catalog_ when null) — pure, so a failure, including a missing
  /// catalog, returns with the plan, catalog, runtime, results and
  /// counters untouched; runs PlanChangeBarrier; applies `edit_slots`, the
  /// caller's query-slot change (it must leave queries_ equal to
  /// `queries`); then installs the catalog, the plan and a new runtime.
  Result<PlanChange> ChangePlan(const std::vector<QueryDef>& queries,
                                std::unique_ptr<RelationCatalog> catalog,
                                const std::function<void()>& edit_slots);

  /// The barrier every plan change runs before the new runtime is
  /// installed: FlushRuntime, then TakeRuntimeResults. Returns its
  /// wall-clock (the event's merge_millis).
  double PlanChangeBarrier();

  /// Flushes the live runtime's epoch in flight (for a sharded runtime, a
  /// flush barrier that also drains the P x S matrix).
  void FlushRuntime();

  /// The live runtime hands its results to accumulated_hfta_ by ownership
  /// and its counters are accumulated. The two never hold the same epoch
  /// (see InstallRuntime), so Hfta::MergeFrom(Hfta&&) only moves O(epochs
  /// held) map nodes; the runtime keeps nothing it could count again at a
  /// later barrier.
  void TakeRuntimeResults();

  /// Archives query id `query_id`'s per-epoch results (dense slot `dense`)
  /// into retired_ so the id keeps serving reads after its slot is gone.
  /// Without `include_live` the slot is about to disappear and its results
  /// move out of the accumulated HFTA; with it (an alias release, the slot
  /// lives on) they are copied and merged with the live runtime's HFTA.
  void ArchiveQuery(int query_id, int dense, bool include_live);

  /// Records a churn event (telemetry section + flight-recorder instant).
  void RecordChurnEvent(QueryChurnEvent event);

  /// Remaps the accumulated HFTA to the slots of queries_: slot i takes old
  /// slot source[i], or starts empty when source[i] is -1.
  void RemapAccumulatedHfta(const std::vector<int>& source);

  /// LFTA memory the optimizer may plan for: the budget split across
  /// shards, so instantiating the plan once per shard lands on the user's
  /// total budget.
  double PlanningBudget() const {
    return options_.memory_words / static_cast<double>(options_.num_shards);
  }

  /// FailedPrecondition naming `call` once Finish() has run.
  Status CheckNotFinished(const char* call) const;

  /// Feeds records that passed the shared filter: buffers the sample until
  /// it is full, then cuts the rest at epoch boundaries, runs the epoch step
  /// at each boundary and hands each epoch run to the runtime.
  Status Ingest(std::span<const Record> records);

  /// Filters a multi-record batch through a 256-record stack buffer into
  /// Ingest. A separate function so that a one-record call never builds
  /// the buffer.
  Status IngestFiltered(std::span<const Record> records);

  /// Pushes the overload controller's shed plan into the live runtime.
  Status InstallShedPlan();

  /// Calls `f` with the live runtime (ConfigurationRuntime& or
  /// ShardedRuntime&); requires planned(). Const so that const readers can
  /// use it too; the runtime it passes is mutable either way.
  template <typename F>
  decltype(auto) WithRuntime(F&& f) const {
    return std::visit([&](const auto& r) -> decltype(auto) { return f(*r); },
                      runtime_);
  }

  /// Attaches engine-level context to a runtime-built snapshot: total
  /// counters across swaps, the plan's predicted collision rates, and the
  /// re-optimization count.
  void AnnotateSnapshot(TelemetrySnapshot* snapshot) const;

  /// Appends the current snapshot to telemetry_history() (when enabled),
  /// labeled with the epoch that just completed.
  void CaptureEpochSnapshot(uint64_t completed_epoch);

  Schema schema_;
  /// Dense live query definitions — what the plan and the HFTA hold.
  std::vector<QueryDef> queries_;
  std::vector<ParsedQuery> parsed_;  // One per query id (see handles_).
  /// Query-id table: handles_[id].dense indexes queries_ (or -1, dropped).
  std::vector<QueryHandle> handles_;
  /// Live ids per dense slot (aliases share a slot); parallel to queries_.
  std::vector<int> dense_refcount_;
  /// Archived per-epoch results of dropped query ids.
  std::map<int, std::map<uint64_t, EpochAggregate>> retired_;
  /// The shared record filter (the queries' common where clause).
  std::vector<AttributePredicate> shared_filters_;
  /// From-clause relation name ("" when built from defs) — the parse
  /// context AddQuery validates new queries against.
  std::string relation_name_;
  Options options_;
  Optimizer optimizer_;
  std::unique_ptr<CollisionModel> collision_model_;

  // Sampling phase. The stats object holds a pointer into sample_, so both
  // stay alive as long as catalog_ may consult them.
  std::unique_ptr<Trace> sample_;
  std::unique_ptr<TraceStats> sample_stats_;

  // Live state.
  std::unique_ptr<RelationCatalog> catalog_;  // Snapshot behind plan_.
  std::unique_ptr<OptimizedPlan> plan_;
  /// The live runtime: serial when num_shards == 1 and num_producers == 1,
  /// sharded otherwise. Null (in either alternative) while sampling and
  /// after Finish().
  std::variant<std::unique_ptr<ConfigurationRuntime>,
               std::unique_ptr<ShardedRuntime>>
      runtime_;
  std::unique_ptr<Hfta> accumulated_hfta_;  // Results across runtime swaps.
  uint64_t current_epoch_ = 0;
  bool saw_record_ = false;
  bool finished_ = false;  // Set by Finish(); the stream is over.
  /// Timestamp of the last accepted record (the timestamp contract's floor).
  double last_timestamp_ = -std::numeric_limits<double>::infinity();
  RuntimeCounters total_counters_;
  /// Live runtime's counters as of the last TakeRuntimeResults (reset at
  /// every InstallRuntime); makes accumulation idempotent by construction.
  RuntimeCounters live_counter_baseline_;
  /// Cost-model collision-rate predictions for the live plan, indexed like
  /// the runtime's tables (Configuration::ToRuntimeSpecs preserves node
  /// order). Empty when no catalog is available.
  std::vector<double> planned_rates_;
  /// Per-raw-relation probe modes currently installed in the live runtime
  /// (raw-relation order). Empty means never decided — every table in hash
  /// mode, which is also what a fresh runtime starts with, so InstallRuntime
  /// clears it. Only the adaptive boundary writes it (HandleEpochBoundary).
  std::vector<ProbeMode> probe_modes_;
  std::vector<TelemetrySnapshot> telemetry_history_;
  /// Every adaptive re-plan so far, oldest first; copied into snapshots by
  /// AnnotateSnapshot so the JSON export carries the re-plan lifecycle.
  std::vector<ReplanEvent> replan_events_;
  /// Every query add/drop so far, oldest first (snapshot `query_churn`).
  std::vector<QueryChurnEvent> churn_events_;
  /// What EpochResult returns for a dropped id with no archived epoch.
  EpochAggregate empty_aggregate_;
  /// Present iff Options::overload.enabled; survives runtime swaps (it is
  /// re-priced, not rebuilt, at InstallRuntime).
  std::unique_ptr<OverloadController> overload_controller_;
  /// Snapshot taken inside Finish() before the runtime is torn down.
  std::unique_ptr<TelemetrySnapshot> final_snapshot_;
  double last_optimize_millis_ = 0.0;
};

}  // namespace streamagg

#endif  // STREAMAGG_CORE_ENGINE_H_
