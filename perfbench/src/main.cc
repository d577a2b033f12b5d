// End-to-end benchmark of StreamAggEngine through its public API.
//
//   perfbench --workload NAME[,NAME...]|all --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Each workload's input is generated from the seed before any timing. With
// --trace 0 the run repeats whole rounds (fresh engine, whole stream,
// Finish, exact output check) for S seconds and reports the end-to-end
// metrics; with --trace 1 it reports the per-layer metrics of a traced
// run. Every metric is printed as `workload/metric value unit`; the last
// line is one JSON object with correct, attempted, failed and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "rounds.h"
#include "layers.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Fresh builds per run behind setup_s: one build varies by tens of
/// percent, the median of this many repeats within a few. Besides each
/// round's own build, kSetupPerRound set-up-only builds follow every round,
/// so the samples spread over the whole run rather than one burst.
constexpr size_t kSetupSamples = 25;
constexpr int kSetupPerRound = 3;

std::vector<Metric> EndToEnd(const Workload& w, const Reference& ref,
                             double seconds, Tally* tally) {
  std::vector<RoundResult> rounds;
  std::vector<double> setup_s;
  const uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  do {
    RoundOptions options;
    options.measure_rss = rounds.empty();
    rounds.push_back(RunRound(w, ref, options, tally));
    setup_s.push_back(rounds.back().setup_s);
    for (int i = 0; i < kSetupPerRound; ++i) {
      setup_s.push_back(RunSetupOnly(w, tally));
    }
  } while (NowNanos() < deadline);
  std::vector<double> mrps, close_us, plan_ms, cost;
  for (const RoundResult& r : rounds) {
    mrps.push_back(r.mrps());
    close_us.insert(close_us.end(), r.close_us.begin(), r.close_us.end());
    plan_ms.insert(plan_ms.end(), r.plan_change_ms.begin(),
                   r.plan_change_ms.end());
    cost.push_back(r.lfta_cost);
  }
  while (setup_s.size() < kSetupSamples) {
    setup_s.push_back(RunSetupOnly(w, tally));
  }
  std::printf("# %s: %zu rounds, %zu epoch closes, %zu plan changes\n",
              w.name.c_str(), rounds.size(), close_us.size(), plan_ms.size());
  return {
      {"setup_s", Median(setup_s), "s"},
      {"ingest_mrps", Median(mrps), "Mrec/s"},
      {"epoch_close_us_p50", Quantile(close_us, 0.5), "us"},
      {"epoch_close_us_p90", Quantile(close_us, 0.9), "us"},
      {"plan_change_ms_p50", Median(plan_ms), "ms"},
      {"engine_rss_mb", rounds.front().rss_mb, "MB"},
      {"lfta_cost_per_record", Median(cost), "c1/record"},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload NAME[,NAME...]|all --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workloads;
  std::string trace_dir = ".bench_build/perfbench-trace";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workloads = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (workloads.empty() || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  std::vector<std::string> names;
  if (workloads == "all") {
    names = WorkloadNames();
  } else {
    for (size_t from = 0; from <= workloads.size();) {
      const size_t comma =
          std::min(workloads.find(',', from), workloads.size());
      names.push_back(workloads.substr(from, comma - from));
      from = comma + 1;
    }
  }
  if (trace == 1) std::filesystem::create_directories(trace_dir);

  Tally tally;
  std::vector<std::pair<std::string, Metric>> reported;
  for (size_t k = 0; k < names.size(); ++k) {
    const std::string& name = names[k];
    auto made = MakeWorkload(name, static_cast<uint64_t>(seed));
    if (!made.ok()) return Usage(made.status().ToString().c_str());
    const Workload w = std::move(made).value();
    const Reference ref = Reference::Compute(w);
    const std::vector<Metric> metrics =
        trace == 1 ? TracedRun(w, ref, seconds,
                               trace_dir + "/" + name + "-seed" +
                                   std::to_string(seed),
                               static_cast<uint32_t>(k + 1), &tally)
                   : EndToEnd(w, ref, seconds, &tally);
    for (const Metric& m : metrics) {
      std::printf("%s/%s %.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      reported.emplace_back(name, m);
    }
  }
  std::printf("%s/attempted %llu\n%s/failed %llu\n", workloads.c_str(),
              static_cast<unsigned long long>(tally.attempted),
              workloads.c_str(),
              static_cast<unsigned long long>(tally.failed));
  // One workload reports bare metric names; a subset prefixes each with
  // its workload.
  std::string json = "{\"correct\": ";
  json += tally.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    const auto& [name, m] = reported[i];
    const std::string key = names.size() == 1 ? m.name : name + "/" + m.name;
    json += (i == 0 ? "\"" : ", \"") + key + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
