// ColumnarView equivalence: every columnar query must be bit-identical to
// the legacy ConfigDatabase scan (the correctness oracle), on randomized
// databases covering the awkward cases — context=-1 skips, negative-factor
// skips, duplicate timestamps, empty cells/carriers, shared cell ids across
// RATs — plus determinism of the parallel scan at 1/2/8 workers.
#include "mmlab/core/columnar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::core {
namespace {

using config::ParamId;

const std::vector<config::ParamKey>& key_pool() {
  static const std::vector<config::ParamKey> pool = {
      config::lte_param(ParamId::kServingPriority),
      config::lte_param(ParamId::kQHyst),
      config::lte_param(ParamId::kSIntraSearch),
      config::lte_param(ParamId::kSNonIntraSearch),
      config::lte_param(ParamId::kThreshServingLow),
      config::lte_param(ParamId::kNeighborPriority),
      config::lte_param(ParamId::kA3Offset),
      {spectrum::Rat::kUmts, 0},
      {spectrum::Rat::kUmts, 2},
      {spectrum::Rat::kGsm, 1},
  };
  return pool;
}

/// Keys to probe with: the generation pool plus one never observed.
std::vector<config::ParamKey> probe_keys() {
  auto keys = key_pool();
  keys.push_back({spectrum::Rat::kEvdo, 99});
  return keys;
}

ConfigDatabase random_db(std::uint64_t seed) {
  Rng rng(seed);
  ConfigDatabase db;
  const spectrum::Rat rats[] = {spectrum::Rat::kLte, spectrum::Rat::kUmts,
                                spectrum::Rat::kGsm};
  for (const char* carrier : {"A", "B", "LONGNAME"}) {
    if (rng.chance(0.15)) continue;  // carrier absent entirely
    const auto n_cells = rng.below(12);
    for (std::uint64_t ci = 0; ci < n_cells; ++ci) {
      // Small id range so cells collide and accumulate multiple snapshots.
      const auto cell_id = static_cast<std::uint32_t>(1 + rng.below(30));
      if (rng.chance(0.1)) {
        db.upsert_cell(carrier, cell_id);  // observation-less cell
        continue;
      }
      const auto rat = rats[rng.below(3)];
      const auto channel = static_cast<std::uint32_t>(1000 + rng.below(4) * 100);
      const geo::Point pos{rng.uniform(0.0, 8000.0), rng.uniform(0.0, 8000.0)};
      const auto snaps = 1 + rng.below(4);
      for (std::uint64_t s = 0; s < snaps; ++s) {
        std::vector<config::ParamObservation> params;
        const auto nobs = rng.below(9);
        for (std::uint64_t o = 0; o < nobs; ++o) {
          config::ParamObservation p;
          p.key = key_pool()[rng.below(key_pool().size())];
          // Small discrete value set (incl. negatives) → plenty of per-cell
          // duplicates for the dedup paths.
          p.value = static_cast<double>(rng.below(5)) - 2.0;
          p.context =
              rng.chance(0.4) ? static_cast<std::int64_t>(1000 + rng.below(3))
                              : -1;
          if (rng.chance(0.05)) p.context = 1'000'000'000'000LL;
          params.push_back(p);
        }
        // Tiny timestamp set → duplicate timestamps within and across
        // snapshots (the latest() tie-break cases).
        const SimTime t{static_cast<Millis>(rng.below(5) * 1000)};
        db.add_snapshot(carrier, cell_id, rat, channel, pos, t, params);
      }
    }
  }
  return db;
}

std::vector<std::string> probe_carriers(const ConfigDatabase& db) {
  std::vector<std::string> out;
  for (const auto& [name, cells] : db.carriers()) out.push_back(name);
  out.push_back("MISSING");
  return out;
}

long channel_factor(const CellRecord& rec) {
  return rec.rat == spectrum::Rat::kLte ? static_cast<long>(rec.channel) : -1L;
}

long mixed_sign_factor(const CellRecord& rec) {
  // Negative for a quarter of cells — the factor-skip path.
  return static_cast<long>(rec.cell_id % 4) - 1L;
}

void expect_core_queries_equivalent(const ConfigDatabase& db,
                                    unsigned build_threads) {
  const ColumnarView view(db, build_threads);
  EXPECT_EQ(view.total_cells(), db.total_cells());
  EXPECT_EQ(view.total_observations(), db.total_samples());
  for (const auto& carrier : probe_carriers(db)) {
    EXPECT_EQ(view.observed_params(carrier), db.observed_params(carrier))
        << carrier;
    for (const auto& key : probe_keys()) {
      EXPECT_TRUE(view.values(carrier, key) == db.values(carrier, key));
      EXPECT_TRUE(view.values_by_context(carrier, key) ==
                  db.values_by_context(carrier, key));
      EXPECT_TRUE(view.values_grouped(carrier, key, channel_factor) ==
                  db.values_grouped(carrier, key, channel_factor));
      EXPECT_TRUE(view.values_grouped(carrier, key, mixed_sign_factor) ==
                  db.values_grouped(carrier, key, mixed_sign_factor));
    }
    if (const auto* cells = db.cells_of(carrier)) {
      for (const auto& [id, rec] : *cells)
        for (const auto& key : probe_keys())
          EXPECT_EQ(view.latest(carrier, id, key), rec.latest(key));
    }
    EXPECT_EQ(view.latest(carrier, 999'999, key_pool().front()), std::nullopt);
  }
}

TEST(ColumnarView, MatchesLegacyScanOnRandomDatabases) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_core_queries_equivalent(random_db(seed), /*build_threads=*/1);
  }
}

TEST(ColumnarView, ParallelBuildMatchesLegacyScan) {
  for (std::uint64_t seed = 30; seed <= 35; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_core_queries_equivalent(random_db(seed), /*build_threads=*/4);
  }
}

TEST(ColumnarView, ParallelScanIsDeterministicAcrossWorkerCounts) {
  const auto db = random_db(77);
  const ColumnarView view(db);
  for (const auto& carrier : probe_carriers(db)) {
    for (const auto& key : probe_keys()) {
      const auto values1 = view.values(carrier, key, 1);
      const auto grouped1 = view.values_grouped(carrier, key, channel_factor, 1);
      const auto ctx1 = view.values_by_context(carrier, key, 1);
      for (unsigned threads : {2u, 8u}) {
        EXPECT_TRUE(view.values(carrier, key, threads) == values1);
        EXPECT_TRUE(view.values_grouped(carrier, key, channel_factor,
                                        threads) == grouped1);
        EXPECT_TRUE(view.values_by_context(carrier, key, threads) == ctx1);
      }
      // Repeat runs at the same worker count are also identical (merge
      // order is partition order, never completion order).
      EXPECT_TRUE(view.values(carrier, key, 8) == view.values(carrier, key, 8));
    }
  }
}

TEST(ColumnarView, LatestTieBreaksLikeLegacyOnDuplicateTimestamps) {
  ConfigDatabase db;
  const auto key = config::lte_param(ParamId::kServingPriority);
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                  {{key, 1.0}, {key, 2.0}});
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                  {{key, 3.0}});
  const auto& rec = db.cells_of("A")->at(1);
  const ColumnarView view(db);
  // Legacy latest() keeps the *last* max-timestamp observation.
  EXPECT_EQ(rec.latest(key), std::optional<double>(3.0));
  EXPECT_EQ(view.latest("A", 1, key), rec.latest(key));
}

TEST(ColumnarView, LatestIsEmptyWhenAllTimestampsPrecedeSentinel) {
  // Legacy latest() starts its best-timestamp tracker at -1, so a cell
  // whose observations all carry t < -1 reports nullopt; the precomputed
  // span must reproduce that quirk bit-for-bit.
  ConfigDatabase db;
  const auto key = config::lte_param(ParamId::kServingPriority);
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{-5},
                  {{key, 1.0}});
  const auto& rec = db.cells_of("A")->at(1);
  ASSERT_EQ(rec.latest(key), std::nullopt);
  const ColumnarView view(db);
  EXPECT_EQ(view.latest("A", 1, key), std::nullopt);
  // The observation still exists for the distribution queries.
  EXPECT_EQ(view.values("A", key).total(), 1u);
}

TEST(ColumnarView, EmptyDatabaseAndEmptyCarrier) {
  ConfigDatabase db;
  const ColumnarView empty(db);
  EXPECT_TRUE(empty.carriers().empty());
  EXPECT_TRUE(empty.values("A", key_pool().front()).empty());
  EXPECT_TRUE(empty.observed_params("A").empty());

  db.upsert_cell("A", 1);  // carrier with one observation-less cell
  const ColumnarView view(db);
  ASSERT_EQ(view.carriers().size(), 1u);
  EXPECT_EQ(view.total_cells(), 1u);
  EXPECT_EQ(view.total_observations(), 0u);
  EXPECT_TRUE(view.values("A", key_pool().front()).empty());
  EXPECT_TRUE(view.observed_params("A").empty());
  EXPECT_EQ(view.latest("A", 1, key_pool().front()), std::nullopt);
}

// --- analysis overloads ------------------------------------------------------

bool same_double(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void expect_analysis_equivalent(const ConfigDatabase& db) {
  const ColumnarView view(db);
  const std::vector<geo::City> cities = {
      {1, "North", "C1", "US", {0, 0}, 4000.0},
      {2, "South", "C2", "US", {0, 4000}, 4000.0},
  };
  for (const auto& carrier : probe_carriers(db)) {
    SCOPED_TRACE(carrier);
    for (const auto rat :
         {std::optional<spectrum::Rat>{}, std::optional{spectrum::Rat::kLte},
          std::optional{spectrum::Rat::kUmts}}) {
      const auto legacy = diversity_by_param(db, carrier, rat);
      const auto columnar = diversity_by_param(view, carrier, rat);
      ASSERT_EQ(legacy.size(), columnar.size());
      for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(legacy[i].key, columnar[i].key);
        EXPECT_EQ(legacy[i].cells, columnar[i].cells);
        EXPECT_EQ(legacy[i].measures.richness, columnar[i].measures.richness);
        EXPECT_TRUE(
            same_double(legacy[i].measures.simpson, columnar[i].measures.simpson));
        EXPECT_TRUE(same_double(legacy[i].measures.cv, columnar[i].measures.cv));
      }
    }
    const auto dep_legacy = frequency_dependence(db, carrier);
    const auto dep_columnar = frequency_dependence(view, carrier);
    ASSERT_EQ(dep_legacy.size(), dep_columnar.size());
    for (std::size_t i = 0; i < dep_legacy.size(); ++i) {
      EXPECT_EQ(dep_legacy[i].key, dep_columnar[i].key);
      EXPECT_TRUE(
          same_double(dep_legacy[i].zeta_simpson, dep_columnar[i].zeta_simpson));
      EXPECT_TRUE(same_double(dep_legacy[i].zeta_cv, dep_columnar[i].zeta_cv));
    }
    for (const bool candidate : {false, true})
      EXPECT_TRUE(priority_by_channel(db, carrier, candidate) ==
                  priority_by_channel(view, carrier, candidate));
    EXPECT_EQ(multi_priority_cell_fraction(db, carrier),
              multi_priority_cell_fraction(view, carrier));
    EXPECT_TRUE(priority_by_city(db, carrier, cities) ==
                priority_by_city(view, carrier, cities));
    for (const auto& city : cities) {
      const auto key = config::lte_param(ParamId::kServingPriority);
      EXPECT_EQ(spatial_diversity(db, carrier, key, city, 1500.0),
                spatial_diversity(view, carrier, key, city, 1500.0));
    }
    const auto gaps_legacy = measurement_decision_gaps(db, carrier);
    const auto gaps_columnar = measurement_decision_gaps(view, carrier);
    EXPECT_EQ(gaps_legacy.intra_minus_nonintra,
              gaps_columnar.intra_minus_nonintra);
    EXPECT_EQ(gaps_legacy.intra_minus_slow, gaps_columnar.intra_minus_slow);
    EXPECT_EQ(gaps_legacy.nonintra_minus_slow,
              gaps_columnar.nonintra_minus_slow);
  }
  // Pooled (all-carriers) fig11 pass.
  const auto pooled_legacy = measurement_decision_gaps(db);
  const auto pooled_columnar = measurement_decision_gaps(view);
  EXPECT_EQ(pooled_legacy.intra_minus_nonintra,
            pooled_columnar.intra_minus_nonintra);
  EXPECT_EQ(pooled_legacy.intra_minus_slow, pooled_columnar.intra_minus_slow);
  EXPECT_EQ(pooled_legacy.nonintra_minus_slow,
            pooled_columnar.nonintra_minus_slow);
}

TEST(ColumnarAnalysis, MatchesLegacyOnRandomDatabases) {
  for (std::uint64_t seed = 100; seed <= 112; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_analysis_equivalent(random_db(seed));
  }
}

}  // namespace
}  // namespace mmlab::core
