#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

using streamagg::AttributeSet;
using streamagg::GroupKey;
using streamagg::Record;
using streamagg::StreamAggEngine;

namespace {

constexpr int kMaxPrinted = 10;
int printed = 0;

void Print(const std::string& what) {
  if (printed++ < kMaxPrinted) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

struct KeyHash {
  size_t operator()(const Reference::Key& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint32_t v : k) h = (h ^ v) * 0xff51afd7ed558ccdULL;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

Reference::Key Project(const Record& r, AttributeSet set) {
  Reference::Key key{};
  size_t n = 0;
  set.ForEachIndex([&](int i) { key[n++] = r.values[static_cast<size_t>(i)]; });
  return key;
}

}  // namespace

void Tally::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    Print(what);
  }
}

void Tally::Fail(const std::string& what) {
  ++failed;
  Print(what);
}

void Tally::Check(bool ok, const std::string& what) {
  Op(ok, what);
  if (!ok) correct = false;
}

Reference Reference::Compute(const Workload& w) {
  Reference ref;
  for (const std::string& text : w.queries) {
    QueryId id;
    id.group_by = streamagg::ParseQuery(w.schema, text)->def.group_by;
    id.end = w.records.size();
    ref.ids_.push_back(id);
  }
  ref.op_ids_.assign(w.churn.size(), -1);
  for (size_t k = 0; k < w.churn.size(); ++k) {
    const ChurnOp& op = w.churn[k];
    if (op.add) {
      QueryId id;
      id.group_by = op.group_by;
      id.begin = op.at;
      id.end = w.records.size();
      ref.op_ids_[k] = static_cast<int>(ref.ids_.size());
      ref.ids_.push_back(id);
    } else {
      ref.ids_[static_cast<size_t>(ref.op_ids_[static_cast<size_t>(op.target)])]
          .end = op.at;
    }
  }
  for (size_t i = 0; i < w.records.size(); ++i) {
    if (!w.Passes(w.records[i])) continue;
    ++ref.passing_;
    const uint64_t e = w.EpochOf(w.records[i]);
    auto [it, inserted] = ref.epoch_spans_.try_emplace(e);
    if (inserted) it->second.first = i;
    it->second.last = i;
    ++it->second.records;
  }
  for (QueryId& id : ref.ids_) {
    std::unordered_map<Key, uint64_t, KeyHash> groups;
    uint64_t epoch = 0;
    const auto close = [&] {
      if (groups.empty()) return;
      EpochGroups eg;
      eg.epoch = epoch;
      eg.groups.assign(groups.begin(), groups.end());
      id.epochs.push_back(std::move(eg));
      groups.clear();
    };
    for (size_t i = id.begin; i < id.end; ++i) {
      const Record& r = w.records[i];
      if (!w.Passes(r)) continue;
      const uint64_t e = w.EpochOf(r);
      if (e != epoch) {
        close();
        epoch = e;
      }
      ++groups[Project(r, id.group_by)];
    }
    close();
  }
  return ref;
}

void Reference::CheckEngine(const StreamAggEngine& engine,
                            Tally* tally) const {
  tally->Check(engine.num_query_ids() == static_cast<int>(ids_.size()),
               "engine handed out " + std::to_string(engine.num_query_ids()) +
                   " query ids, expected " + std::to_string(ids_.size()));
  const uint64_t records = engine.counters().records;
  tally->Check(records == passing_,
               "counters().records " + std::to_string(records) +
                   " != filtered records " + std::to_string(passing_));
  const int n = std::min(engine.num_query_ids(), static_cast<int>(ids_.size()));
  for (int q = 0; q < n; ++q) {
    const QueryId& id = ids_[static_cast<size_t>(q)];
    std::vector<uint64_t> want;
    for (const EpochGroups& eg : id.epochs) want.push_back(eg.epoch);
    tally->Check(engine.Epochs(q) == want,
                 "query id " + std::to_string(q) + ": epochs differ");
    for (const EpochGroups& eg : id.epochs) {
      const streamagg::EpochAggregate& got = engine.EpochResult(q, eg.epoch);
      const std::string where = "query id " + std::to_string(q) + " epoch " +
                                std::to_string(eg.epoch);
      bool same = got.size() == eg.groups.size();
      for (size_t g = 0; same && g < eg.groups.size(); ++g) {
        GroupKey key;
        key.size = static_cast<uint8_t>(id.group_by.Count());
        std::copy_n(eg.groups[g].first.begin(), key.size, key.values.begin());
        const auto it = got.find(key);
        same = it != got.end() && it->second.count == eg.groups[g].second;
      }
      tally->Check(same, where + ": groups differ from the exact count");
      // A query live for the whole epoch sees every filtered record of it.
      const EpochSpan& span = epoch_spans_.at(eg.epoch);
      if (id.begin <= span.first && span.last < id.end) {
        uint64_t sum = 0;
        for (const auto& [key, state] : got) sum += state.count;
        tally->Check(sum == span.records,
                     where + ": counts sum to " + std::to_string(sum) +
                         ", epoch has " + std::to_string(span.records));
      }
    }
  }
}

void CheckPlanBudget(const Workload& w, const StreamAggEngine& engine,
                     Tally* tally) {
  const streamagg::OptimizedPlan* plan = engine.plan();
  if (plan == nullptr) {
    tally->Check(false, "no live plan");
    return;
  }
  auto specs = plan->ToRuntimeSpecs();
  if (!specs.ok()) {
    tally->Check(false, "plan specs: " + specs.status().ToString());
    return;
  }
  double words = 0.0;
  for (size_t i = 0; i < specs->size(); ++i) {
    words += static_cast<double>((*specs)[i].num_buckets) *
             plan->config.EntryWords(static_cast<int>(i));
  }
  const double budget =
      w.options.memory_words / static_cast<double>(w.options.num_shards);
  tally->Check(words <= budget * (1.0 + 1e-9),
               "plan " + plan->config.ToString() + " uses " +
                   std::to_string(words) + " words of " +
                   std::to_string(budget));
}

}  // namespace perfbench
