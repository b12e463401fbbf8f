// Figure-level analyses straight off an out-of-core store.
//
// Each entry point answers one fig11–22 question with one planned fold over
// the mapped shards (store/direct_fold.hpp): core::CellFolder supplies the
// identical per-cell dedup / latest products the in-memory ColumnarView
// precomputes, so results are bit-identical to the core::analysis
// overloads while resident memory stays O(parse window + answer).  They
// return Result because a fold can hit mid-stream corruption (block CRC or
// structural damage) — on error no partial answer escapes.  For the whole
// fig11–22 mix, analyze_query folds each selected carrier ONCE and fills
// every product, instead of one fold per entry point.
//
// Every entry point takes a trailing Query (default: no predicate).  The
// planner prunes blocks (other carriers, non-overlapping cell ranges) and
// the ParamKey predicate pushes down to the wire (store/query_plan.hpp).
// `query`'s carrier list is ignored where an explicit carrier argument
// exists — the argument wins.  Fixed-key products (priorities, gaps,
// spatial) narrow an empty query.params to exactly the keys they read, so
// a call decodes only those values; census products (diversity,
// dependence) need every parameter and never narrow.  Each answer equals
// the in-memory answer computed over a pre-filtered database
// (property-tested in test_query_plan.cpp).
#pragma once

#include <optional>

#include "mmlab/core/analysis.hpp"
#include "mmlab/store/direct_fold.hpp"

namespace mmlab::store {

Result<std::vector<core::ParamDiversity>> diversity_by_param(
    const DirectFold& direct, const std::string& carrier,
    std::optional<spectrum::Rat> rat = std::nullopt, const Query& query = {});

Result<std::vector<core::ParamDependence>> frequency_dependence(
    const DirectFold& direct, const std::string& carrier,
    const Query& query = {});

Result<std::map<long, stats::ValueCounts>> priority_by_channel(
    const DirectFold& direct, const std::string& carrier, bool candidate,
    const Query& query = {});

Result<double> multi_priority_cell_fraction(const DirectFold& direct,
                                            const std::string& carrier,
                                            const Query& query = {});

Result<std::map<long, stats::ValueCounts>> priority_by_city(
    const DirectFold& direct, const std::string& carrier,
    const std::vector<geo::City>& cities, const Query& query = {});

Result<std::vector<double>> spatial_diversity(const DirectFold& direct,
                                              const std::string& carrier,
                                              config::ParamKey key,
                                              const geo::City& city,
                                              double radius_m,
                                              const Query& query = {});

/// Empty carrier = pool the query's selected carriers (sorted name order),
/// as in the in-memory path.
Result<core::MeasurementGaps> measurement_decision_gaps(
    const DirectFold& direct, const std::string& carrier = "",
    const Query& query = {});

// --- the one-pass analysis mix ----------------------------------------------

/// The Fig 21 spatial-diversity query's inputs.
struct SpatialQuery {
  config::ParamKey key;
  geo::City city;
  double radius_m = 0.0;
};

struct MixOptions {
  /// Fig 16's optional RAT filter for the diversity sweep.
  std::optional<spectrum::Rat> diversity_rat;
  /// Cities for the Fig 20 location join (empty = every cell maps to -1 and
  /// priority_by_city comes back empty, matching values_grouped semantics).
  std::vector<geo::City> cities;
  /// Fig 21, run only when set.
  std::optional<SpatialQuery> spatial;
};

/// Every fig11–22 product of one carrier, from ONE fold over its shards.
/// Each member is bit-identical to the corresponding standalone entry
/// point.
struct CarrierAnalysis {
  std::vector<core::ParamDiversity> diversity;          // fig 16/17/22
  std::vector<core::ParamDependence> dependence;        // fig 19
  std::map<long, stats::ValueCounts> serving_priority;  // fig 18
  std::map<long, stats::ValueCounts> candidate_priority;
  double multi_priority_fraction = 0.0;
  std::map<long, stats::ValueCounts> priority_by_city;  // fig 20
  std::vector<double> spatial_diversity;                // fig 21
  core::MeasurementGaps gaps;                           // fig 11
  FoldStats stats;
};

/// The scheduled multi-carrier mix: every carrier the query selects,
/// analyzed via DirectFold::fold_query — concurrent cross-carrier jobs
/// (largest first) under the engine's shared window budget when
/// options().threads > 1 and more than one carrier is selected, the
/// sequential per-carrier loop (with intra-carrier parse threads)
/// otherwise.  The mix reads every parameter, so an empty query.params is
/// NOT narrowed; with a non-empty predicate, fixed-key products whose keys
/// were filtered out come back empty (that is what the query asked for).
struct QueryAnalysis {
  std::vector<std::string> carriers;  ///< selected, sorted name order
  /// Parallel to `carriers`; each entry's stats are that carrier's own
  /// fold (rows/cells/blocks/bytes, no plan-wide skip counts).
  std::vector<CarrierAnalysis> results;
  /// Aggregate over all carrier folds; includes the plan's skip counts and
  /// the *concurrent* peak_resident_blocks (the shared-budget number).
  FoldStats stats;
};

Result<QueryAnalysis> analyze_query(const DirectFold& direct,
                                    const Query& query,
                                    const MixOptions& options = {});

}  // namespace mmlab::store
