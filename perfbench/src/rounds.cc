#include "rounds.h"

#include <cstring>
#include <fstream>
#include <span>
#include <string>

namespace perfbench {

using streamagg::Record;
using streamagg::StreamAggEngine;

namespace {

/// One ingest call: a Process call per record, or one ProcessBatch.
streamagg::Status Feed(StreamAggEngine& engine, const Workload& w,
                       size_t begin, size_t end) {
  if (w.batch == 1) return engine.Process(w.records[begin]);
  return engine.ProcessBatch(
      std::span<const Record>(w.records.data() + begin, end - begin));
}

double Millis(uint64_t from, uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

/// Feeds the calls [begin, end) untimed; returns the number of calls.
uint64_t FeedRange(StreamAggEngine& engine, const Workload& w, size_t begin,
                   size_t end, Tally* tally) {
  uint64_t calls = 0;
  for (size_t i = begin; i < end; i = w.CallEnd(i)) {
    const streamagg::Status s = Feed(engine, w, i, w.CallEnd(i));
    if (!s.ok()) tally->Fail("ingest: " + s.ToString());
    ++calls;
  }
  return calls;
}

/// Reads a kB field of /proc/self/status ("VmRSS", "VmHWM") in MB.
double ReadStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stod(line.substr(len + 1)) / 1024.0;
    }
  }
  return 0.0;
}

bool SerialEngine(const Workload& w) {
  return w.options.num_shards == 1 && w.options.num_producers == 1;
}

}  // namespace

double RunSetupOnly(const Workload& w, Tally* tally) {
  const uint64_t start = NowNanos();
  auto made = StreamAggEngine::FromQueryTexts(w.schema, w.queries, w.options);
  tally->Op(made.ok(), "FromQueryTexts: " + made.status().ToString());
  if (!made.ok()) return 0.0;
  std::unique_ptr<StreamAggEngine> engine = std::move(made).value();
  const uint64_t calls = FeedRange(*engine, w, 0, w.plan_call_end, tally);
  const uint64_t planned = NowNanos();
  tally->attempted += calls;
  tally->Check(engine->planned(), "engine has not planned after the sample");
  return static_cast<double>(planned - start) / 1e9;
}

RoundResult RunRound(const Workload& w, const Reference& ref,
                     const RoundOptions& options, Tally* tally) {
  RoundResult r;
  SpanRecorder* sp = options.spans;
  const double rss_before = options.measure_rss ? ReadStatusMb("VmRSS") : 0.0;
  const int root = sp != nullptr ? sp->Begin("round") : -1;
  const int setup = sp != nullptr ? sp->Begin("setup") : -1;

  // Set-up: build, buffer the sample, plan (the planning call).
  const uint64_t t0 = NowNanos();
  auto made = StreamAggEngine::FromQueryTexts(w.schema, w.queries, w.options);
  tally->Op(made.ok(), "FromQueryTexts: " + made.status().ToString());
  if (!made.ok()) return r;
  std::unique_ptr<StreamAggEngine> engine = std::move(made).value();
  const uint64_t t_built = NowNanos();
  uint64_t calls = FeedRange(*engine, w, 0, w.plan_call_begin, tally);
  const uint64_t t_buffered = NowNanos();
  calls += FeedRange(*engine, w, w.plan_call_begin, w.plan_call_end, tally);
  const uint64_t t_planned = NowNanos();
  r.setup_s = static_cast<double>(t_planned - t0) / 1e9;
  r.buffer_ms = Millis(t_built, t_buffered);
  r.plan_call_ms = Millis(t_buffered, t_planned);
  if (sp != nullptr) {
    sp->Add("setup.build", t0, t_built);
    sp->Add("setup.buffer", t_built, t_buffered);
    sp->Add("setup.plan_call", t_buffered, t_planned);
    sp->End(setup, t_planned);
  }
  tally->Check(engine->planned(), "engine has not planned after the sample");
  if (!engine->planned()) return r;
  CheckPlanBudget(w, *engine, tally);
  if (options.keep_layer_inputs) {
    r.initial_plan =
        std::make_shared<const streamagg::OptimizedPlan>(*engine->plan());
  }

  // Post-planning: every call starts as soon as the previous returns.
  // Only epoch-closing calls and churn calls read the clock; the time the
  // benchmark spends on its own checks, spans and telemetry() probes is
  // excluded from the ingest time.
  const bool probe_snapshots = sp != nullptr && SerialEngine(w);
  const double c1 = w.options.optimizer.cost.c1;
  const double c2 = w.options.optimizer.cost.c2;
  size_t next_op = 0;
  int reoptimizations = engine->reoptimizations();
  uint64_t excluded_ns = 0;
  int epoch = sp != nullptr ? sp->Begin("epoch") : -1;
  const uint64_t loop_start = NowNanos();
  for (size_t i = w.plan_call_end; i < w.records.size();) {
    while (next_op < w.churn.size() && w.churn[next_op].at <= i) {
      const ChurnOp& op = w.churn[next_op];
      const uint64_t a = NowNanos();
      bool ok = true;
      std::string what;
      if (op.add) {
        const streamagg::Result<int> id = engine->AddQuery(op.text);
        ok = id.ok() && *id == ref.IdOfOp(next_op);
        what = "AddQuery(" + op.text + "): " +
               (id.ok() ? "id " + std::to_string(*id) : id.status().ToString());
      } else {
        const streamagg::Status s = engine->DropQuery(
            ref.IdOfOp(static_cast<size_t>(op.target)));
        ok = s.ok();
        what = "DropQuery: " + s.ToString();
      }
      const uint64_t b = NowNanos();
      r.plan_change_ms.push_back(Millis(a, b));
      if (sp != nullptr) sp->Add(op.add ? "churn.add" : "churn.drop", a, b);
      tally->Op(ok, what);
      CheckPlanBudget(w, *engine, tally);
      excluded_ns += NowNanos() - a;
      ++next_op;
    }
    const size_t end = w.CallEnd(i);
    ++calls;
    if (!w.CallCloses(i, end)) {
      const streamagg::Status s = Feed(*engine, w, i, end);
      if (!s.ok()) tally->Fail("ingest: " + s.ToString());
      i = end;
      continue;
    }
    const uint64_t a = NowNanos();
    const streamagg::Status s = Feed(*engine, w, i, end);
    const uint64_t b = NowNanos();
    if (!s.ok()) tally->Fail("ingest: " + s.ToString());
    const bool replanned = engine->reoptimizations() != reoptimizations;
    if (replanned) {
      reoptimizations = engine->reoptimizations();
      r.plan_change_ms.push_back(Millis(a, b));
      CheckPlanBudget(w, *engine, tally);
    } else {
      r.close_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    if (sp != nullptr) {
      sp->Add(replanned ? "ingest.replan" : "ingest.close", a, b);
      sp->End(epoch, b);
      if (probe_snapshots) {
        const uint64_t c = NowNanos();
        const streamagg::TelemetrySnapshot snapshot = engine->telemetry();
        const uint64_t d = NowNanos();
        r.snapshot_us.push_back(static_cast<double>(d - c) / 1e3);
        sp->Add("obs.telemetry", c, d);
      }
      epoch = sp->Begin("epoch");
    }
    excluded_ns += NowNanos() - b;
    i = end;
  }
  if (sp != nullptr) sp->End(epoch);
  const uint64_t f0 = NowNanos();
  const streamagg::Status finished = engine->Finish();
  const uint64_t f1 = NowNanos();
  if (sp != nullptr) {
    sp->Add("finish", f0, f1);
    sp->End(root, f1);
  }
  tally->Op(finished.ok(), "Finish: " + finished.ToString());
  tally->attempted += calls;
  r.ingest_s = static_cast<double>(f1 - loop_start - excluded_ns) / 1e9;
  r.offered = w.records.size() - w.plan_call_end;
  if (options.measure_rss) r.rss_mb = ReadStatusMb("VmHWM") - rss_before;

  const streamagg::RuntimeCounters counters = engine->counters();
  r.lfta_cost = counters.TotalCost(c1, c2) /
                static_cast<double>(std::max<uint64_t>(1, counters.records));
  ref.CheckEngine(*engine, tally);
  if (options.keep_layer_inputs) {
    r.churn_events = engine->churn_events();
    r.final_snapshot = engine->telemetry();
    r.reoptimizations = engine->reoptimizations();
    for (int q = 0; q < engine->num_query_ids(); ++q) {
      for (uint64_t e : engine->Epochs(q)) {
        r.hfta_rows += engine->EpochResult(q, e).size();
      }
    }
  }
  return r;
}

}  // namespace perfbench
