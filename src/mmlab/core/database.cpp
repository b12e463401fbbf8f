#include "mmlab/core/database.hpp"

#include <algorithm>
#include <set>

#include "mmlab/util/worker_pool.hpp"

namespace mmlab::core {

std::vector<double> CellRecord::unique_values(config::ParamKey key) const {
  std::vector<double> out;
  for (const auto& obs : observations) {
    if (obs.key != key) continue;
    if (std::find(out.begin(), out.end(), obs.value) == out.end())
      out.push_back(obs.value);
  }
  return out;
}

std::optional<double> CellRecord::latest(config::ParamKey key) const {
  std::optional<double> best;
  SimTime best_t{-1};
  for (const auto& obs : observations) {
    if (obs.key == key && obs.t >= best_t) {
      best = obs.value;
      best_t = obs.t;
    }
  }
  return best;
}

std::size_t CellRecord::sample_count(config::ParamKey key) const {
  std::size_t n = 0;
  for (const auto& obs : observations)
    if (obs.key == key) ++n;
  return n;
}

void CellRecord::merge_from(CellRecord&& other) {
  if (other.observations.empty()) return;
  if (observations.empty() ||
      other.observations.front().t < observations.front().t) {
    // The other side saw this cell first; its camp metadata wins, as it
    // would have under serial extraction.
    rat = other.rat;
    channel = other.channel;
    position = other.position;
  }
  auto& obs = observations;
  const auto mid_pos = static_cast<std::ptrdiff_t>(obs.size());
  obs.insert(obs.end(), std::make_move_iterator(other.observations.begin()),
             std::make_move_iterator(other.observations.end()));
  const auto by_t = [](const Observation& a, const Observation& b) {
    return a.t < b.t;
  };
  const auto mid = obs.begin() + mid_pos;
  // Extraction appends observations in crawl-time order, so both halves are
  // already timestamp-sorted and an O(n) merge suffices.  inplace_merge
  // keeps first-range-before-second for equal timestamps — the same
  // this-before-other stability stable_sort gave.  Hand-built databases may
  // violate the sorted precondition, so check and fall back rather than
  // hand inplace_merge UB.
  if (std::is_sorted(obs.begin(), mid, by_t) &&
      std::is_sorted(mid, obs.end(), by_t)) {
    std::inplace_merge(obs.begin(), mid, obs.end(), by_t);
  } else {
    std::stable_sort(obs.begin(), obs.end(), by_t);
  }
}

void ConfigDatabase::add_snapshot(
    const std::string& carrier, std::uint32_t cell_id, spectrum::Rat rat,
    std::uint32_t channel, geo::Point position, SimTime t,
    const std::vector<config::ParamObservation>& params) {
  CellRecord& rec = carriers_[carrier][cell_id];
  if (rec.observations.empty()) {
    rec.cell_id = cell_id;
    rec.rat = rat;
    rec.channel = channel;
    rec.position = position;
  }
  rec.observations.reserve(rec.observations.size() + params.size());
  for (const auto& p : params)
    rec.observations.push_back({p.key, p.value, t, p.context});
}

namespace {

/// One carrier's step of ConfigDatabase::merge: absorb `src` into `dst`,
/// leaving `src` empty.
void merge_cells(ConfigDatabase::CellMap& dst, ConfigDatabase::CellMap& src) {
  for (auto& [id, rec] : src) {
    auto [it, inserted] = dst.try_emplace(id, std::move(rec));
    if (!inserted) it->second.merge_from(std::move(rec));
  }
  src.clear();
}

}  // namespace

void ConfigDatabase::merge(ConfigDatabase&& other) {
  for (auto& [carrier, cells] : other.carriers_)
    merge_cells(carriers_[carrier], cells);
  other.carriers_.clear();
}

void ConfigDatabase::merge_all(std::vector<ConfigDatabase>&& shards,
                               unsigned threads) {
  struct Chain {
    CellMap* dst = nullptr;
    std::vector<CellMap*> parts;  ///< input order
    std::size_t cells = 0;        ///< the scheduling weight
  };
  std::map<std::string, Chain> by_carrier;
  for (auto& shard : shards)
    for (auto& [carrier, cells] : shard.carriers_) {
      Chain& chain = by_carrier[carrier];
      chain.parts.push_back(&cells);
      chain.cells += cells.size();
    }
  // Destination maps are created here, on the calling thread, so the jobs
  // below touch only their own carrier's CellMaps.
  std::vector<Chain*> jobs;
  jobs.reserve(by_carrier.size());
  for (auto& [carrier, chain] : by_carrier) {
    chain.dst = &carriers_[carrier];
    chain.cells += chain.dst->size();
    jobs.push_back(&chain);
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Chain* a, const Chain* b) {
                     return a->cells > b->cells;
                   });
  parallel_for_index(threads, jobs.size(), [&jobs](std::size_t i) {
    for (CellMap* part : jobs[i]->parts) merge_cells(*jobs[i]->dst, *part);
  });
  shards.clear();
}

const ConfigDatabase::CellMap* ConfigDatabase::cells_of(
    const std::string& carrier) const {
  const auto it = carriers_.find(carrier);
  return it == carriers_.end() ? nullptr : &it->second;
}

std::size_t ConfigDatabase::cell_count(const std::string& carrier) const {
  const auto* cells = cells_of(carrier);
  return cells ? cells->size() : 0;
}

std::size_t ConfigDatabase::sample_count(const std::string& carrier) const {
  const auto* cells = cells_of(carrier);
  if (!cells) return 0;
  std::size_t n = 0;
  for (const auto& [id, rec] : *cells) n += rec.observations.size();
  return n;
}

std::size_t ConfigDatabase::total_cells() const {
  std::size_t n = 0;
  for (const auto& [carrier, cells] : carriers_) n += cells.size();
  return n;
}

std::size_t ConfigDatabase::total_samples() const {
  std::size_t n = 0;
  for (const auto& [carrier, cells] : carriers_)
    for (const auto& [id, rec] : cells) n += rec.observations.size();
  return n;
}

stats::ValueCounts ConfigDatabase::values(const std::string& carrier,
                                          config::ParamKey key) const {
  stats::ValueCounts vc;
  const auto* cells = cells_of(carrier);
  if (!cells) return vc;
  for (const auto& [id, rec] : *cells)
    for (double v : rec.unique_values(key)) vc.add(v);
  return vc;
}

std::map<long, stats::ValueCounts> ConfigDatabase::values_grouped(
    const std::string& carrier, config::ParamKey key,
    const std::function<long(const CellRecord&)>& factor) const {
  std::map<long, stats::ValueCounts> groups;
  const auto* cells = cells_of(carrier);
  if (!cells) return groups;
  for (const auto& [id, rec] : *cells) {
    const long f = factor(rec);
    if (f < 0) continue;
    for (double v : rec.unique_values(key)) groups[f].add(v);
  }
  return groups;
}

std::map<long, stats::ValueCounts> ConfigDatabase::values_by_context(
    const std::string& carrier, config::ParamKey key) const {
  std::map<long, stats::ValueCounts> groups;
  const auto* cells = cells_of(carrier);
  if (!cells) return groups;
  for (const auto& [id, rec] : *cells) {
    // Unique (context, value) pairs per cell.
    std::set<std::pair<std::int64_t, double>> seen;
    for (const auto& obs : rec.observations) {
      if (obs.key != key || obs.context < 0) continue;
      if (seen.insert({obs.context, obs.value}).second)
        groups[static_cast<long>(obs.context)].add(obs.value);
    }
  }
  return groups;
}

std::vector<config::ParamKey> ConfigDatabase::observed_params(
    const std::string& carrier) const {
  std::set<config::ParamKey> keys;
  const auto* cells = cells_of(carrier);
  if (!cells) return {};
  for (const auto& [id, rec] : *cells)
    for (const auto& obs : rec.observations) keys.insert(obs.key);
  return {keys.begin(), keys.end()};
}

}  // namespace mmlab::core
