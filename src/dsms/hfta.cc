#include "dsms/hfta.h"

namespace streamagg {

std::vector<uint64_t> Hfta::Epochs(int query_index) const {
  std::vector<uint64_t> out;
  out.reserve(per_query_[query_index].size());
  for (const auto& [epoch, agg] : per_query_[query_index]) {
    out.push_back(epoch);
  }
  return out;
}

const EpochAggregate& Hfta::Result(int query_index, uint64_t epoch) const {
  const auto& epochs = per_query_[query_index];
  auto it = epochs.find(epoch);
  return it == epochs.end() ? empty_ : it->second;
}

void Hfta::MergeFrom(const Hfta& other) {
  for (int q = 0; q < num_queries() && q < other.num_queries(); ++q) {
    for (const auto& [epoch, groups] : other.per_query_[q]) {
      for (const auto& [key, state] : groups) {
        auto [it, inserted] = per_query_[q][epoch].try_emplace(key, state);
        if (!inserted) it->second.Merge(state, metrics_[q]);
      }
    }
  }
  transfers_ += other.transfers_;
}

void Hfta::MergeFrom(Hfta&& other) {
  if (&other == this) return;
  for (int q = 0; q < num_queries() && q < other.num_queries(); ++q) {
    std::map<uint64_t, EpochAggregate>& into = per_query_[q];
    std::map<uint64_t, EpochAggregate>& from = other.per_query_[q];
    while (!from.empty()) {
      auto [pos, inserted, node] = into.insert(from.extract(from.begin()));
      if (inserted) continue;
      // Both sides hold this (query, epoch): fold the smaller aggregate
      // into the larger. Every metric op is commutative, so the result
      // does not depend on which side is folded into which.
      EpochAggregate& held = pos->second;
      EpochAggregate& incoming = node.mapped();
      if (incoming.size() > held.size()) held.swap(incoming);
      for (const auto& [key, state] : incoming) {
        auto [it, fresh] = held.try_emplace(key, state);
        if (!fresh) it->second.Merge(state, metrics_[q]);
      }
    }
  }
  for (auto& slot : other.per_query_) slot.clear();
  transfers_ += std::exchange(other.transfers_, 0);
  ForgetAddTarget();
  other.ForgetAddTarget();
}

std::map<uint64_t, EpochAggregate> Hfta::TakeQuery(int query_index) {
  ForgetAddTarget();
  return std::exchange(per_query_[query_index], {});
}

Hfta Hfta::TakeEpoch(uint64_t epoch) {
  Hfta taken(metrics_);
  for (size_t q = 0; q < per_query_.size(); ++q) {
    auto node = per_query_[q].extract(epoch);
    if (!node.empty()) taken.per_query_[q].insert(std::move(node));
  }
  ForgetAddTarget();
  return taken;
}

void Hfta::Remap(std::vector<std::vector<MetricSpec>> new_metrics,
                 const std::vector<int>& source) {
  Slots remapped(new_metrics.size());
  for (size_t i = 0; i < source.size() && i < remapped.size(); ++i) {
    const int from = source[i];
    if (from >= 0 && from < num_queries()) {
      remapped[i] = std::move(per_query_[from]);
      new_metrics[i] = metrics_[from];
    }
  }
  per_query_ = std::move(remapped);
  metrics_ = std::move(new_metrics);
  // The cached Add target pointed into the old per_query_ layout.
  ForgetAddTarget();
}

uint64_t Hfta::TotalCount(int query_index, uint64_t epoch) const {
  uint64_t total = 0;
  for (const auto& [key, state] : Result(query_index, epoch)) {
    total += state.count;
  }
  return total;
}

}  // namespace streamagg
