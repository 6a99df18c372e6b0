#include "common/counters.h"

#include <algorithm>
#include <sstream>

namespace fj {

void CounterSet::Add(const std::string& name, int64_t delta) {
  counters_[name].value += delta;
}

void CounterSet::Max(const std::string& name, int64_t value) {
  auto [it, inserted] = counters_.try_emplace(name, Counter{value, true});
  it->second.peak = true;
  if (!inserted && it->second.value < value) it->second.value = value;
}

int64_t CounterSet::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

void CounterSet::MergeFrom(const CounterSet& other) {
  for (const auto& [name, theirs] : other.counters_) {
    auto [it, inserted] = counters_.try_emplace(name, theirs);
    if (inserted) continue;
    Counter& mine = it->second;
    if (mine.peak || theirs.peak) {
      mine.peak = true;
      mine.value = std::max(mine.value, theirs.value);
    } else {
      mine.value += theirs.value;
    }
  }
}

std::map<std::string, int64_t> CounterSet::Snapshot() const {
  std::map<std::string, int64_t> values;
  for (const auto& [name, counter] : counters_) values[name] = counter.value;
  return values;
}

std::string CounterSet::ToString() const {
  std::ostringstream out;
  for (const auto& [name, value] : Snapshot()) {
    out << name << " = " << value << "\n";
  }
  return out.str();
}

void CounterSet::Clear() { counters_.clear(); }

}  // namespace fj
