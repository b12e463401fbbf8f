#include "mmlab/store/analytics.hpp"

#include <algorithm>
#include <utility>

#include "mmlab/core/cell_fold.hpp"
#include "mmlab/geo/grid_index.hpp"

namespace mmlab::store {

// Each figure product is a small accumulator over the per-cell fold kernel:
// consume() sees every merged cell (ascending id) with the CellFolder
// already run on it, finish() produces the figure's output.  The standalone
// entry points drive one accumulator per fold; analyze_query drives all of
// them off a single fold per carrier — same consume() calls in the same
// order, so the mix is bit-identical to the standalone results by
// construction.
//
// Equivalence to the in-memory path: CellFolder is the one implementation
// of the per-cell products (the ColumnarView copies its output into the
// span columns), and the fold engine hands over the identical merged
// records in the identical ascending cell order a ConfigDatabase holds —
// so each accumulator below mirrors its ColumnarView counterpart line for
// line, with folder slices standing in for spans.

namespace {

struct DiversityAcc {
  std::map<config::ParamKey, std::pair<stats::ValueCounts, std::size_t>> acc;

  void consume(const core::CellFolder& folder) {
    const auto uniq = folder.unique_values();
    for (const auto& slice : folder.keys()) {
      auto& entry = acc[slice.key];
      ++entry.second;
      for (std::uint32_t j = slice.uniq_begin; j < slice.uniq_end; ++j)
        entry.first.add(uniq[j]);
    }
  }

  std::vector<core::ParamDiversity> finish(
      std::optional<spectrum::Rat> rat) const {
    std::vector<core::ParamDiversity> out;
    out.reserve(acc.size());
    for (const auto& [key, entry] : acc) {
      if (rat && key.rat != *rat) continue;
      out.push_back({key, stats::measure_diversity(entry.first), entry.second});
    }
    std::sort(out.begin(), out.end(),
              [](const core::ParamDiversity& a, const core::ParamDiversity& b) {
                return a.measures.simpson < b.measures.simpson;
              });
    return out;
  }
};

struct DependenceAcc {
  std::map<config::ParamKey, std::map<long, stats::ValueCounts>> acc;

  void consume(const core::CellRecord& rec, const core::CellFolder& folder) {
    if (rec.rat != spectrum::Rat::kLte) return;
    const long f = static_cast<long>(rec.channel);
    const auto uniq = folder.unique_values();
    for (const auto& slice : folder.keys()) {
      if (slice.key.rat != spectrum::Rat::kLte) continue;
      stats::ValueCounts& vc = acc[slice.key][f];
      for (std::uint32_t j = slice.uniq_begin; j < slice.uniq_end; ++j)
        vc.add(uniq[j]);
    }
  }

  std::vector<core::ParamDependence> finish() const {
    std::vector<core::ParamDependence> out;
    out.reserve(acc.size());
    for (const auto& [key, groups] : acc) {
      core::ParamDependence dep;
      dep.key = key;
      dep.zeta_simpson =
          stats::dependence_measure(groups, stats::DiversityMetric::kSimpson);
      dep.zeta_cv =
          stats::dependence_measure(groups, stats::DiversityMetric::kCv);
      out.push_back(dep);
    }
    return out;
  }
};

/// Serving-priority groups (values_grouped by channel) plus the compact
/// per-cell retention the multi-priority minority pass needs: the groups
/// only finalize after the whole fold, so each observing LTE cell keeps its
/// channel and unique priority values (flat, a few bytes per cell).
struct ServingPriorityAcc {
  std::map<long, stats::ValueCounts> groups;
  std::size_t lte_cells = 0;
  std::vector<long> cell_channel;
  std::vector<std::uint32_t> value_begin;
  std::vector<double> values;

  void consume(const core::CellRecord& rec, const core::CellFolder& folder,
               config::ParamKey prio_key) {
    const bool lte = rec.rat == spectrum::Rat::kLte;
    if (lte) ++lte_cells;
    const auto uniq = folder.unique_values(prio_key);
    // values_grouped contract: the factor is only consulted for observing
    // cells, and the channel factor maps non-LTE cells to -1 (dropped).
    if (uniq.empty() || !lte) return;
    const long f = static_cast<long>(rec.channel);
    stats::ValueCounts& vc = groups[f];
    for (const double v : uniq) vc.add(v);
    cell_channel.push_back(f);
    value_begin.push_back(static_cast<std::uint32_t>(values.size()));
    values.insert(values.end(), uniq.begin(), uniq.end());
  }

  double multi_priority_fraction() const {
    std::size_t minority = 0;
    for (std::size_t i = 0; i < cell_channel.size(); ++i) {
      const auto it = groups.find(cell_channel[i]);
      if (it == groups.end() || it->second.richness() <= 1) continue;
      const double mode = it->second.mode();
      const std::size_t begin = value_begin[i];
      const std::size_t end =
          i + 1 < value_begin.size() ? value_begin[i + 1] : values.size();
      for (std::size_t j = begin; j < end; ++j)
        if (values[j] != mode) {
          ++minority;
          break;
        }
    }
    return lte_cells == 0 ? 0.0
                          : static_cast<double>(minority) /
                                static_cast<double>(lte_cells);
  }
};

struct CandidatePriorityAcc {
  std::map<long, stats::ValueCounts> out;

  void consume(const core::CellFolder& folder, config::ParamKey key) {
    const auto* slice = folder.find(key);
    if (!slice) return;
    const auto contexts = folder.ctx_contexts();
    const auto values = folder.ctx_values();
    for (std::uint32_t j = slice->ctx_begin; j < slice->ctx_end; ++j)
      out[static_cast<long>(contexts[j])].add(values[j]);
  }
};

struct CityPriorityAcc {
  std::map<long, stats::ValueCounts> out;

  void consume(const core::CellRecord& rec, const core::CellFolder& folder,
               config::ParamKey key, const std::vector<geo::City>& cities) {
    const auto uniq = folder.unique_values(key);
    if (uniq.empty()) return;
    long f = -1;
    if (rec.rat == spectrum::Rat::kLte) {
      for (const auto& city : cities)
        if (geo::contains(city, rec.position)) {
          f = city.id;
          break;
        }
    }
    if (f < 0) return;
    stats::ValueCounts& vc = out[f];
    for (const double v : uniq) vc.add(v);
  }
};

struct SpatialAcc {
  geo::GridIndex index;
  std::vector<geo::Point> positions;
  std::vector<std::uint32_t> value_begin;
  std::vector<double> values;

  explicit SpatialAcc(double radius_m) : index(radius_m) {}

  void consume(const core::CellRecord& rec, const core::CellFolder& folder,
               config::ParamKey key, const geo::City& city) {
    if (rec.rat != spectrum::Rat::kLte) return;
    if (!geo::contains(city, rec.position)) return;
    index.insert(static_cast<std::uint32_t>(positions.size()), rec.position);
    positions.push_back(rec.position);
    value_begin.push_back(static_cast<std::uint32_t>(values.size()));
    const auto uniq = folder.unique_values(key);
    values.insert(values.end(), uniq.begin(), uniq.end());
  }

  std::vector<double> finish(double radius_m) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      stats::ValueCounts cluster;
      index.for_each_in_radius(
          positions[i], radius_m, [&](std::uint32_t m) {
            const std::size_t begin = value_begin[m];
            const std::size_t end = m + 1 < value_begin.size()
                                        ? value_begin[m + 1]
                                        : values.size();
            for (std::size_t j = begin; j < end; ++j) cluster.add(values[j]);
          });
      if (cluster.total() >= 2) out.push_back(cluster.simpson_index());
    }
    return out;
  }
};

struct GapsAcc {
  core::MeasurementGaps gaps;

  void consume(const core::CellRecord& rec, const core::CellFolder& folder) {
    if (rec.rat != spectrum::Rat::kLte) return;
    const auto latest = [&](config::ParamKey key) -> std::optional<double> {
      const auto* slice = folder.find(key);
      if (!slice || !slice->has_latest) return std::nullopt;
      return slice->latest;
    };
    const auto intra =
        latest(config::lte_param(config::ParamId::kSIntraSearch));
    const auto nonintra =
        latest(config::lte_param(config::ParamId::kSNonIntraSearch));
    const auto slow =
        latest(config::lte_param(config::ParamId::kThreshServingLow));
    if (intra && nonintra)
      gaps.intra_minus_nonintra.push_back(*intra - *nonintra);
    if (intra && slow) gaps.intra_minus_slow.push_back(*intra - *slow);
    if (nonintra && slow)
      gaps.nonintra_minus_slow.push_back(*nonintra - *slow);
  }
};

/// Drive one planned carrier fold.  When the query has no param predicate
/// of its own, `narrow` (the exact keys the caller's accumulator reads;
/// empty = reads everything) becomes the push-down set, so fixed-key
/// products decode only their own values.
Result<FoldStats> fold_for(const DirectFold& direct, const std::string& carrier,
                           const Query& query,
                           std::vector<config::ParamKey> narrow,
                           const DirectFold::CellConsumer& consumer) {
  Query q = query;
  q.carriers = {carrier};
  if (q.params.empty()) q.params = std::move(narrow);
  const QueryPlan plan(direct.shards(), std::move(q));
  return direct.fold_planned(plan, carrier, consumer);
}

std::vector<config::ParamKey> gaps_keys() {
  return {config::lte_param(config::ParamId::kSIntraSearch),
          config::lte_param(config::ParamId::kSNonIntraSearch),
          config::lte_param(config::ParamId::kThreshServingLow)};
}

}  // namespace

Result<std::vector<core::ParamDiversity>> diversity_by_param(
    const DirectFold& direct, const std::string& carrier,
    std::optional<spectrum::Rat> rat, const Query& query) {
  DiversityAcc acc;
  core::CellFolder folder;
  const auto r = fold_for(direct, carrier, query, {},
                          [&](std::uint32_t, const core::CellRecord& rec) {
                            folder.fold(rec);
                            acc.consume(folder);
                          });
  if (!r) return Result<std::vector<core::ParamDiversity>>::error(r.error_message());
  return acc.finish(rat);
}

Result<std::vector<core::ParamDependence>> frequency_dependence(
    const DirectFold& direct, const std::string& carrier, const Query& query) {
  DependenceAcc acc;
  core::CellFolder folder;
  const auto r = fold_for(direct, carrier, query, {},
                          [&](std::uint32_t, const core::CellRecord& rec) {
                            folder.fold(rec);
                            acc.consume(rec, folder);
                          });
  if (!r) return Result<std::vector<core::ParamDependence>>::error(r.error_message());
  return acc.finish();
}

Result<std::map<long, stats::ValueCounts>> priority_by_channel(
    const DirectFold& direct, const std::string& carrier, bool candidate,
    const Query& query) {
  using R = Result<std::map<long, stats::ValueCounts>>;
  core::CellFolder folder;
  if (candidate) {
    CandidatePriorityAcc acc;
    const auto key = config::lte_param(config::ParamId::kNeighborPriority);
    const auto r = fold_for(direct, carrier, query, {key},
                            [&](std::uint32_t, const core::CellRecord& rec) {
                              folder.fold(rec);
                              acc.consume(folder, key);
                            });
    if (!r) return R::error(r.error_message());
    return std::move(acc.out);
  }
  ServingPriorityAcc acc;
  const auto key = config::lte_param(config::ParamId::kServingPriority);
  const auto r = fold_for(direct, carrier, query, {key},
                          [&](std::uint32_t, const core::CellRecord& rec) {
                            folder.fold(rec);
                            acc.consume(rec, folder, key);
                          });
  if (!r) return R::error(r.error_message());
  return std::move(acc.groups);
}

Result<double> multi_priority_cell_fraction(const DirectFold& direct,
                                            const std::string& carrier,
                                            const Query& query) {
  ServingPriorityAcc acc;
  core::CellFolder folder;
  const auto key = config::lte_param(config::ParamId::kServingPriority);
  const auto r = fold_for(direct, carrier, query, {key},
                          [&](std::uint32_t, const core::CellRecord& rec) {
                            folder.fold(rec);
                            acc.consume(rec, folder, key);
                          });
  if (!r) return Result<double>::error(r.error_message());
  return acc.multi_priority_fraction();
}

Result<std::map<long, stats::ValueCounts>> priority_by_city(
    const DirectFold& direct, const std::string& carrier,
    const std::vector<geo::City>& cities, const Query& query) {
  CityPriorityAcc acc;
  core::CellFolder folder;
  const auto key = config::lte_param(config::ParamId::kServingPriority);
  const auto r = fold_for(direct, carrier, query, {key},
                          [&](std::uint32_t, const core::CellRecord& rec) {
                            folder.fold(rec);
                            acc.consume(rec, folder, key, cities);
                          });
  if (!r) return Result<std::map<long, stats::ValueCounts>>::error(r.error_message());
  return std::move(acc.out);
}

Result<std::vector<double>> spatial_diversity(const DirectFold& direct,
                                              const std::string& carrier,
                                              config::ParamKey key,
                                              const geo::City& city,
                                              double radius_m,
                                              const Query& query) {
  SpatialAcc acc(radius_m);
  core::CellFolder folder;
  const auto r = fold_for(direct, carrier, query, {key},
                          [&](std::uint32_t, const core::CellRecord& rec) {
                            folder.fold(rec);
                            acc.consume(rec, folder, key, city);
                          });
  if (!r) return Result<std::vector<double>>::error(r.error_message());
  return acc.finish(radius_m);
}

Result<core::MeasurementGaps> measurement_decision_gaps(
    const DirectFold& direct, const std::string& carrier, const Query& query) {
  GapsAcc acc;
  core::CellFolder folder;
  const auto consumer = [&](std::uint32_t, const core::CellRecord& rec) {
    folder.fold(rec);
    acc.consume(rec, folder);
  };
  if (!carrier.empty()) {
    const auto r = fold_for(direct, carrier, query, gaps_keys(), consumer);
    if (!r) return Result<core::MeasurementGaps>::error(r.error_message());
    return std::move(acc.gaps);
  }
  // Pooled = every selected carrier in name order, exactly the in-memory
  // path's carrier iteration — the per-carrier gap vectors concatenate.
  Query q = query;
  if (q.params.empty()) q.params = gaps_keys();
  const QueryPlan plan(direct.shards(), std::move(q));
  for (const CarrierQueryPlan& cp : plan.carriers()) {
    const auto r = direct.fold_planned(plan, cp.name, consumer);
    if (!r) return Result<core::MeasurementGaps>::error(r.error_message());
  }
  return std::move(acc.gaps);
}

namespace {

/// The whole fig11–22 accumulator set behind ONE fold, bundled so the
/// scheduled multi-carrier mix can hold an independent instance per
/// concurrent carrier job (CellFolder is stateful — never share one across
/// threads).  Same consume() calls in the same order as the standalone
/// entry points, so every product is bit-identical to them.
struct MixAcc {
  DiversityAcc diversity;
  DependenceAcc dependence;
  ServingPriorityAcc serving;
  CandidatePriorityAcc candidate;
  CityPriorityAcc city;
  GapsAcc gaps;
  std::optional<SpatialAcc> spatial;
  core::CellFolder folder;
  const MixOptions* options;
  config::ParamKey serving_key = config::lte_param(config::ParamId::kServingPriority);
  config::ParamKey candidate_key =
      config::lte_param(config::ParamId::kNeighborPriority);

  explicit MixAcc(const MixOptions& opts) : options(&opts) {
    if (opts.spatial) spatial.emplace(opts.spatial->radius_m);
  }

  void consume(const core::CellRecord& rec) {
    folder.fold(rec);
    diversity.consume(folder);
    dependence.consume(rec, folder);
    serving.consume(rec, folder, serving_key);
    candidate.consume(folder, candidate_key);
    city.consume(rec, folder, serving_key, options->cities);
    gaps.consume(rec, folder);
    if (spatial)
      spatial->consume(rec, folder, options->spatial->key,
                       options->spatial->city);
  }

  CarrierAnalysis finish(FoldStats stats) {
    CarrierAnalysis out;
    out.diversity = diversity.finish(options->diversity_rat);
    out.dependence = dependence.finish();
    out.multi_priority_fraction = serving.multi_priority_fraction();
    out.serving_priority = std::move(serving.groups);
    out.candidate_priority = std::move(candidate.out);
    out.priority_by_city = std::move(city.out);
    if (spatial)
      out.spatial_diversity = spatial->finish(options->spatial->radius_m);
    out.gaps = std::move(gaps.gaps);
    out.stats = stats;
    return out;
  }
};

}  // namespace

Result<QueryAnalysis> analyze_query(const DirectFold& direct,
                                    const Query& query,
                                    const MixOptions& options) {
  const QueryPlan plan(direct.shards(), query);
  QueryAnalysis out;

  // One independent accumulator bundle per selected carrier; fold_query
  // drives each from exactly one job, so no bundle is ever shared.
  std::vector<MixAcc> accs;
  accs.reserve(plan.carriers().size());
  for (std::size_t i = 0; i < plan.carriers().size(); ++i)
    accs.emplace_back(options);

  std::vector<FoldStats> per;
  const auto r = direct.fold_query(
      plan,
      [&](std::size_t slot, const CarrierQueryPlan&) {
        return [&accs, slot](std::uint32_t, const core::CellRecord& rec) {
          accs[slot].consume(rec);
        };
      },
      &per);
  if (!r) return Result<QueryAnalysis>::error(r.error_message());

  out.carriers.reserve(plan.carriers().size());
  out.results.reserve(plan.carriers().size());
  for (std::size_t i = 0; i < plan.carriers().size(); ++i) {
    out.carriers.push_back(plan.carriers()[i].name);
    // Each entry carries its own fold's rows/cells/blocks/bytes; the
    // plan-wide skip counts live only in the aggregate (no double count).
    out.results.push_back(accs[i].finish(per[i]));
  }
  out.stats = r.value();
  return out;
}

}  // namespace mmlab::store
