#ifndef PERFBENCH_ROUNDS_H_
#define PERFBENCH_ROUNDS_H_

#include <memory>
#include <vector>

#include "core/engine.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// What one round adds beyond the end-to-end timings.
struct RoundOptions {
  /// Report the engine's peak RSS growth (only meaningful in the first
  /// round of a process: VmHWM never comes down).
  bool measure_rss = false;
  /// Traced round: record spans around every engine call class, and time
  /// telemetry() after each epoch close on serial engines.
  SpanRecorder* spans = nullptr;
  /// Keep the inputs the per-layer measurements need.
  bool keep_layer_inputs = false;
};

/// One round: a fresh engine fed the whole workload through the public
/// API, closed loop (each call starts when the previous one returns),
/// then checked against the reference outside the timed region.
struct RoundResult {
  double setup_s = 0.0;   ///< FromQueryTexts until planned().
  double ingest_s = 0.0;  ///< Post-planning ingest calls plus Finish.
  uint64_t offered = 0;   ///< Records offered after planning.
  std::vector<double> close_us;        ///< Epoch-closing calls.
  std::vector<double> plan_change_ms;  ///< Churn calls and re-plan calls.
  double rss_mb = 0.0;
  double lfta_cost = 0.0;  ///< (c1 probes + c2 transfers) / records.

  // Per-layer inputs (keep_layer_inputs).
  std::shared_ptr<const streamagg::OptimizedPlan> initial_plan;
  std::vector<streamagg::QueryChurnEvent> churn_events;
  streamagg::TelemetrySnapshot final_snapshot;
  int reoptimizations = 0;
  uint64_t hfta_rows = 0;  ///< Result rows held over every id and epoch.
  std::vector<double> snapshot_us;  ///< telemetry() calls (traced rounds).
  double buffer_ms = 0.0;     ///< Ingest calls before the planning call.
  double plan_call_ms = 0.0;  ///< The call during which the engine plans.

  double mrps() const {
    return ingest_s > 0.0 ? static_cast<double>(offered) / ingest_s / 1e6
                          : 0.0;
  }
};

RoundResult RunRound(const Workload& w, const Reference& ref,
                     const RoundOptions& options, Tally* tally);

/// Builds a fresh engine and feeds it until it has planned; returns the
/// seconds that took (the setup_s sample of one build).
double RunSetupOnly(const Workload& w, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_ROUNDS_H_
