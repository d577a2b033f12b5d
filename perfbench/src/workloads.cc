#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "stream/flow_generator.h"
#include "stream/uniform_generator.h"
#include "util/random.h"

namespace perfbench {

using streamagg::AttributeSet;
using streamagg::FlowGenerator;
using streamagg::FlowGeneratorOptions;
using streamagg::GroupUniverse;
using streamagg::Random;
using streamagg::Record;
using streamagg::RecordGenerator;
using streamagg::Result;
using streamagg::Schema;
using streamagg::Status;
using streamagg::UniformGenerator;

namespace {

/// The paper trace's rate: ~860k packets over 62 s (Section 6.1).
constexpr size_t kPaperRecordsPerEpoch = 14000;
/// Attribute width of the uniform universes: far more distinct pairs than
/// any LFTA table has buckets, so most probes evict.
constexpr uint32_t kWideAttribute = 1u << 16;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string QueryText(const Schema& schema, AttributeSet set,
                      const std::string& where) {
  std::string cols;
  set.ForEachIndex([&](int i) {
    if (!cols.empty()) cols += ", ";
    cols += schema.name(i);
  });
  return "select " + cols + ", count(*) from R" +
         (where.empty() ? "" : " where " + where) + " group by " + cols +
         " epoch 1";
}

/// Appends `epochs` whole 1 s epochs of `per_epoch` records each, starting
/// at epoch `first_epoch`. Timestamps sit mid-slot so floor() never lands
/// on a neighbouring epoch.
void AppendEpochs(RecordGenerator& generator, size_t first_epoch,
                  size_t epochs, size_t per_epoch, std::vector<Record>* out) {
  out->reserve(out->size() + epochs * per_epoch);
  for (size_t e = 0; e < epochs; ++e) {
    for (size_t j = 0; j < per_epoch; ++j) {
      Record r = generator.Next();
      r.timestamp = static_cast<double>(first_epoch + e) +
                    (static_cast<double>(j) + 0.5) /
                        static_cast<double>(per_epoch);
      out->push_back(r);
    }
  }
}

/// Seed of every group universe. The universe is part of a workload's
/// definition, like its queries; --seed varies the arrival sequence and the
/// churn timing, so runs with different seeds measure the same data shape.
constexpr uint64_t kUniverseSeed = 20050614;

Result<std::unique_ptr<RecordGenerator>> PaperTrace(const Schema& schema,
                                                    uint64_t seed) {
  auto universe = GroupUniverse::Hierarchical(schema, {552, 1846, 2117, 2837},
                                              kUniverseSeed);
  if (!universe.ok()) return universe.status();
  FlowGeneratorOptions options;
  options.seed = seed;
  return std::unique_ptr<RecordGenerator>(
      std::make_unique<FlowGenerator>(std::move(universe).value(), options));
}

Result<std::unique_ptr<RecordGenerator>> WideUniform(const Schema& schema,
                                                     uint64_t groups,
                                                     uint64_t seed) {
  auto universe =
      GroupUniverse::Uniform(schema, groups,
                             std::vector<uint32_t>(4, kWideAttribute),
                             kUniverseSeed + groups);
  if (!universe.ok()) return universe.status();
  return std::unique_ptr<RecordGenerator>(
      std::make_unique<UniformGenerator>(std::move(universe).value(), seed));
}

/// Locates the planning call from the sample size and the filter, and
/// marks the records that open an epoch.
Status IndexRecords(Workload* w) {
  const size_t n = w->records.size();
  w->boundaries_before.assign(n + 1, 0);
  size_t passing = 0;
  bool planned = false;
  uint64_t epoch = 0;
  for (size_t i = 0; i < n; ++i) {
    w->boundaries_before[i + 1] = w->boundaries_before[i];
    const Record& r = w->records[i];
    if (!w->Passes(r)) continue;
    const uint64_t e = w->EpochOf(r);
    if (passing > 0 && e != epoch) ++w->boundaries_before[i + 1];
    epoch = e;
    if (++passing == w->options.sample_size) {
      w->plan_call_begin = (i / w->batch) * w->batch;
      w->plan_call_end = w->CallEnd(w->plan_call_begin);
      planned = true;
    }
  }
  if (!planned) {
    return Status::InvalidArgument(w->name + ": input shorter than the sample");
  }
  return Status::OK();
}

/// The churn schedule: `cycles` repetitions of add pair, add triple, drop
/// the pair, add single, drop the triple, drop the single, over a fixed
/// rotation of groupings that are never live at that point (so every add
/// plans a new relation, and no add aliases a live query). Initial queries
/// are never dropped. The calls are spread evenly over the records from
/// planning to `end`, on batch boundaries; the seed jitters each position
/// by up to a tenth of the spacing.
void MakeChurn(Workload* w, const std::string& where, uint64_t seed,
               int cycles, size_t end) {
  const auto set = [&](const char* spec) {
    return w->schema.ParseAttributeSet(spec).value();
  };
  // Disjoint from the initial AB, BC, BD, CD.
  const AttributeSet pairs[] = {set("AC"), set("AD")};
  const AttributeSet triples[] = {set("ABD"), set("BCD"), set("ABC"),
                                  set("ACD")};
  const AttributeSet singles[] = {set("A"), set("C"), set("B"), set("D")};
  Random rng(seed);
  const int num_ops = 6 * cycles;
  const size_t first = w->plan_call_end;
  const double span = static_cast<double>(end - first) /
                      static_cast<double>(num_ops + 1);
  size_t previous = first;
  for (int k = 0; k < num_ops; ++k) {
    const double jitter =
        (static_cast<double>(rng.Uniform(1001)) / 1000.0 - 0.5) * span * 0.2;
    size_t at = first + static_cast<size_t>(span * (k + 1) + jitter);
    at = std::max(previous, (at / w->batch) * w->batch);
    previous = at;
    const int cycle = k / 6;
    const int base = 6 * cycle;
    ChurnOp op;
    op.at = at;
    switch (k % 6) {
      case 0:
        op.group_by = pairs[cycle % 2];
        break;
      case 1:
        op.group_by = triples[cycle % 4];
        break;
      case 2:
        op.add = false;
        op.target = base;
        break;
      case 3:
        op.group_by = singles[cycle % 4];
        break;
      case 4:
        op.add = false;
        op.target = base + 1;
        break;
      default:
        op.add = false;
        op.target = base + 3;
        break;
    }
    if (op.add) op.text = QueryText(w->schema, op.group_by, where);
    w->churn.push_back(std::move(op));
  }
}

/// Sets the initial queries (AB, BC, BD, CD with the shared `where`),
/// indexes the records and builds the churn schedule (up to record
/// `churn_end`, or the whole stream), whose adds carry the same `where`.
Status Finalize(Workload* w, const std::string& where, uint64_t seed,
                int churn_cycles, size_t churn_end = 0) {
  for (const char* spec : {"AB", "BC", "BD", "CD"}) {
    w->queries.push_back(QueryText(
        w->schema, w->schema.ParseAttributeSet(spec).value(), where));
  }
  auto parsed = streamagg::ParseQuerySet(w->schema, w->queries);
  if (!parsed.ok()) return parsed.status();
  w->filter = parsed->front().filters;
  w->epoch_seconds = parsed->front().epoch_seconds;
  STREAMAGG_RETURN_NOT_OK(IndexRecords(w));
  MakeChurn(w, where, SubSeed(seed, 3), churn_cycles,
            churn_end > 0 ? churn_end : w->records.size());
  return Status::OK();
}

}  // namespace

uint64_t Workload::EpochOf(const Record& r) const {
  return static_cast<uint64_t>(std::floor(r.timestamp / epoch_seconds));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "flows_per_record", "evict_heavy_batched", "drift_churn", "flows_2x2"};
  return names;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "flows_per_record") {
    // The deployment's main entry point: one Process call per record at
    // default options on the paper-calibrated clustered trace.
    STREAMAGG_ASSIGN_OR_RETURN(auto gen,
                               PaperTrace(w.schema, SubSeed(seed, 1)));
    AppendEpochs(*gen, 0, 60, kPaperRecordsPerEpoch, &w.records);
    w.batch = 1;
    STREAMAGG_RETURN_NOT_OK(Finalize(&w, "", seed, 2));
  } else if (name == "evict_heavy_batched") {
    // Uniform draws over 2^16-wide attributes: most probes evict. The
    // shared filter drops about a quarter of the records before any table.
    STREAMAGG_ASSIGN_OR_RETURN(auto gen,
                               WideUniform(w.schema, 8192, SubSeed(seed, 1)));
    AppendEpochs(*gen, 0, 30, 50000, &w.records);
    w.batch = 64;
    STREAMAGG_RETURN_NOT_OK(Finalize(&w, "D < 49152", seed, 2));
  } else if (name == "drift_churn") {
    // The paper trace under dense churn, then a shift to a much larger
    // uniform universe that the adaptive controller re-plans for. Churn
    // stays before the shift: mixed with the re-plans, the plan-change
    // median would sit between two populations and swing from run to run.
    STREAMAGG_ASSIGN_OR_RETURN(auto calm,
                               PaperTrace(w.schema, SubSeed(seed, 1)));
    AppendEpochs(*calm, 0, 48, kPaperRecordsPerEpoch, &w.records);
    const size_t shift = w.records.size();
    STREAMAGG_ASSIGN_OR_RETURN(auto shifted,
                               WideUniform(w.schema, 8192, SubSeed(seed, 2)));
    AppendEpochs(*shifted, 48, 24, kPaperRecordsPerEpoch, &w.records);
    w.options.adaptive = true;
    w.batch = 64;
    STREAMAGG_RETURN_NOT_OK(Finalize(&w, "", seed, 6, shift));
  } else if (name == "flows_2x2") {
    // The paper trace through 2 producers x 2 shards, crossing real 1 s
    // epoch boundaries.
    STREAMAGG_ASSIGN_OR_RETURN(auto gen,
                               PaperTrace(w.schema, SubSeed(seed, 1)));
    AppendEpochs(*gen, 0, 40, kPaperRecordsPerEpoch, &w.records);
    w.options.num_producers = 2;
    w.options.num_shards = 2;
    w.batch = 4096;
    STREAMAGG_RETURN_NOT_OK(Finalize(&w, "", seed, 2));
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
