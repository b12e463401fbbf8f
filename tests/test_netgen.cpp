#include "mmlab/netgen/generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "mmlab/rrc/codec.hpp"
#include "mmlab/ue/broadcast.hpp"

namespace mmlab::netgen {
namespace {

const GeneratedWorld& small_world() {
  static GeneratedWorld world = [] {
    WorldOptions opts;
    opts.seed = 42;
    opts.scale = 0.05;
    return generate_world(opts);
  }();
  return world;
}

TEST(Profiles, ThirtyCarriersAsTab3) {
  const auto& profiles = standard_carrier_profiles();
  EXPECT_EQ(profiles.size(), 30u);
  std::set<std::string> acronyms, countries;
  for (const auto& p : profiles) {
    acronyms.insert(p.acronym);
    countries.insert(p.country);
    EXPECT_FALSE(p.lte_freqs.empty()) << p.name;
    EXPECT_FALSE(p.decisive.empty()) << p.name;
  }
  EXPECT_EQ(acronyms.size(), 30u) << "acronyms must be unique";
  EXPECT_GE(countries.size(), 15u);  // "over 15 countries and regions"
}

TEST(Profiles, CellTargetsRoughlyPaperScale) {
  std::size_t total = 0;
  for (const auto& p : standard_carrier_profiles()) total += p.cell_count;
  EXPECT_GT(total, 28'000u);
  EXPECT_LT(total, 36'000u);
}

TEST(Profiles, AttChannelsMatchFig18) {
  const CarrierProfile* att = nullptr;
  for (const auto& p : standard_carrier_profiles())
    if (p.acronym == "A") att = &p;
  ASSERT_NE(att, nullptr);
  std::set<std::uint32_t> channels;
  for (const auto& f : att->lte_freqs) channels.insert(f.earfcn);
  for (const auto ch : spectrum::att_fig18_channels())
    EXPECT_TRUE(channels.count(ch)) << "EARFCN " << ch;
}

TEST(Profiles, UsCityWeightsMatchFig20Ratios) {
  const auto& w = us_city_weights();
  ASSERT_EQ(w.size(), 5u);
  // 4671 : 745 ≈ 6.27.
  EXPECT_NEAR(w[0] / w[4], 4671.0 / 745.0, 0.35);
  double sum = 0;
  for (const double x : w) sum += x;
  EXPECT_NEAR(sum, 1.0, 0.01);
}

TEST(Generator, Deterministic) {
  WorldOptions opts;
  opts.seed = 7;
  opts.scale = 0.01;
  const auto a = generate_world(opts);
  const auto b = generate_world(opts);
  ASSERT_EQ(a.network.cells().size(), b.network.cells().size());
  for (std::size_t i = 0; i < a.network.cells().size(); ++i) {
    const auto& ca = a.network.cells()[i];
    const auto& cb = b.network.cells()[i];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.channel, cb.channel);
    EXPECT_EQ(ca.lte_config, cb.lte_config);
    EXPECT_EQ(ca.legacy_config, cb.legacy_config);
  }
}

TEST(Generator, CellCountsScale) {
  const auto& world = small_world();
  EXPECT_EQ(world.network.carriers().size(), 30u);
  // ~5 % of 31k.
  EXPECT_GT(world.network.cells().size(), 1'200u);
  EXPECT_LT(world.network.cells().size(), 2'000u);
  EXPECT_EQ(world.update_schedule.size(), world.network.cells().size());
}

TEST(Generator, CellsInsideTheirCities) {
  const auto& world = small_world();
  for (const auto& cell : world.network.cells()) {
    const auto* city = world.network.find_city(cell.city);
    ASSERT_NE(city, nullptr);
    EXPECT_TRUE(geo::contains(*city, cell.position)) << cell.id;
  }
}

TEST(Generator, UsCarriersSpanFiveCities) {
  const auto& world = small_world();
  std::set<geo::CityId> att_cities;
  for (const auto& cell : world.network.cells())
    if (cell.carrier == 0) att_cities.insert(cell.city);
  EXPECT_EQ(att_cities.size(), 5u);
}

TEST(Generator, UniqueCellIds) {
  const auto& world = small_world();
  std::set<net::CellId> ids;
  for (const auto& cell : world.network.cells()) ids.insert(cell.id);
  EXPECT_EQ(ids.size(), world.network.cells().size());
}

TEST(Generator, RatMixRoughlyTab4) {
  const auto& world = small_world();
  std::map<spectrum::Rat, std::size_t> counts;
  for (const auto& cell : world.network.cells()) ++counts[cell.channel.rat];
  const double total = static_cast<double>(world.network.cells().size());
  const double lte = static_cast<double>(counts[spectrum::Rat::kLte]) / total;
  EXPECT_GT(lte, 0.62);
  EXPECT_LT(lte, 0.82);
  EXPECT_GT(counts[spectrum::Rat::kUmts], 0u);
  EXPECT_GT(counts[spectrum::Rat::kGsm], 0u);
  EXPECT_GT(counts[spectrum::Rat::kEvdo], 0u);
  EXPECT_GT(counts[spectrum::Rat::kCdma1x], 0u);
}

TEST(Generator, EveryLteConfigEncodable) {
  const auto& world = small_world();
  for (const auto& cell : world.network.cells()) {
    for (const auto& msg : ue::broadcast_system_information(cell))
      EXPECT_NO_THROW(rrc::encode(msg)) << "cell " << cell.id;
    if (cell.is_lte()) {
      rrc::RrcConnectionReconfiguration reconf;
      reconf.report_configs = cell.lte_config.report_configs;
      EXPECT_NO_THROW(rrc::encode(rrc::Message{reconf})) << cell.id;
    }
  }
}

TEST(Generator, SkTelecomSingleValued) {
  const auto& world = small_world();
  net::CarrierId sk = 0;
  for (const auto& c : world.network.carriers())
    if (c.acronym == "SK") sk = c.id;
  std::set<double> slow_values, a3_offsets;
  for (const auto& cell : world.network.cells()) {
    if (cell.carrier != sk || !cell.is_lte()) continue;
    slow_values.insert(cell.lte_config.serving.thresh_serving_low_db);
    for (const auto& ev : cell.lte_config.report_configs)
      if (ev.type == config::EventType::kA3) a3_offsets.insert(ev.offset_db);
  }
  EXPECT_EQ(slow_values.size(), 1u);
  EXPECT_EQ(a3_offsets.size(), 1u);
}

TEST(Generator, AttIsDiverse) {
  const auto& world = small_world();
  std::set<double> slow_values;
  std::set<int> priorities;
  for (const auto& cell : world.network.cells()) {
    if (cell.carrier != 0 || !cell.is_lte()) continue;
    slow_values.insert(cell.lte_config.serving.thresh_serving_low_db);
    priorities.insert(cell.lte_config.serving.priority);
  }
  EXPECT_GE(slow_values.size(), 5u);
  EXPECT_GE(priorities.size(), 4u);  // Fig 18: values 2..6
}

TEST(Generator, TmobileSpatiallyCoherent) {
  // T-Mobile (carrier 1): cells in the same tract share configurations.
  const auto& world = small_world();
  std::map<std::pair<long, long>, std::set<double>> tract_values;
  for (const auto& cell : world.network.cells()) {
    if (cell.carrier != 1 || !cell.is_lte()) continue;
    const auto tract = std::make_pair(
        static_cast<long>(std::floor(cell.position.x / 8000.0)),
        static_cast<long>(std::floor(cell.position.y / 8000.0)));
    tract_values[tract].insert(cell.lte_config.serving.thresh_serving_low_db);
  }
  for (const auto& [tract, values] : tract_values)
    EXPECT_EQ(values.size(), 1u);
}

TEST(Generator, UpdateScheduleRates) {
  WorldOptions opts;
  opts.seed = 11;
  opts.scale = 0.2;
  const auto world = generate_world(opts);
  std::size_t idle = 0, active = 0, cells = 0;
  for (std::size_t i = 0; i < world.update_schedule.size(); ++i) {
    if (!world.network.cells()[i].is_lte()) continue;
    ++cells;
    bool has_idle = false, has_active = false;
    for (const auto& u : world.update_schedule[i])
      (u.active_params ? has_active : has_idle) = true;
    idle += has_idle;
    active += has_active;
  }
  const double idle_rate = static_cast<double>(idle) / cells;
  const double active_rate = static_cast<double>(active) / cells;
  EXPECT_LT(idle_rate, 0.05);   // idle updates rare (paper: 0.4-1.6 %)
  EXPECT_GT(active_rate, 0.12); // active updates common (21-24 %)
  EXPECT_LT(active_rate, 0.35);
}

TEST(Generator, ApplyUpdateChangesActiveConfig) {
  WorldOptions opts;
  opts.seed = 13;
  opts.scale = 0.01;
  auto world = generate_world(opts);
  // Find an LTE cell and force an active update.
  for (std::size_t i = 0; i < world.network.cells().size(); ++i) {
    if (!world.network.cells()[i].is_lte()) continue;
    const auto before = world.network.cells()[i].lte_config.report_configs;
    apply_config_update(world, i, {100.0, true});
    const auto& after = world.network.cells()[i].lte_config.report_configs;
    EXPECT_FALSE(after.empty());
    // Deterministic: same update reproduces the same config.
    apply_config_update(world, i, {100.0, true});
    EXPECT_EQ(world.network.cells()[i].lte_config.report_configs, after);
    (void)before;
    return;
  }
  FAIL() << "no LTE cell found";
}

TEST(Generator, SwappedSearchGatesRareButPresent) {
  WorldOptions opts;
  opts.seed = 17;
  opts.scale = 0.6;  // need volume to see a ~0.4 % anomaly
  const auto world = generate_world(opts);
  std::size_t swapped = 0, lte = 0;
  std::set<net::CarrierId> carriers_with_swap;
  for (const auto& cell : world.network.cells()) {
    if (!cell.is_lte()) continue;
    ++lte;
    if (cell.lte_config.serving.s_intrasearch_db <
        cell.lte_config.serving.s_nonintrasearch_db) {
      ++swapped;
      carriers_with_swap.insert(cell.carrier);
    }
  }
  EXPECT_GT(swapped, 0u);
  EXPECT_LT(static_cast<double>(swapped) / lte, 0.01);
  EXPECT_LE(carriers_with_swap.size(), 2u);  // exactly the two §4.2 carriers
}

TEST(Generator, MakeLteConfigHonorsFreqPolicy) {
  const CarrierProfile* att = nullptr;
  for (const auto& p : standard_carrier_profiles())
    if (p.acronym == "A") att = &p;
  ASSERT_NE(att, nullptr);
  // Band 12 channel 5110 is pinned to priority 2 in AT&T's policy.
  for (net::CellId id = 1; id <= 50; ++id) {
    const auto cfg = make_lte_config(
        *att, 1, id, {spectrum::Rat::kLte, 5110}, 0,
        {static_cast<double>(id) * 37.0, 11.0}, att->lte_freqs);
    EXPECT_EQ(cfg.serving.priority, 2);
  }
}

/// FNV-1a over every generated fact of the world: cell identity, placement
/// and radio knobs, the encoded SIB / reconfiguration payloads of each LTE
/// configuration, the legacy knobs, and the update schedule.
class WorldDigest {
 public:
  void bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const auto b = static_cast<std::uint8_t>(v >> (8 * i));
      bytes(&b, 1);
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t world_digest(const GeneratedWorld& world) {
  WorldDigest d;
  for (std::size_t i = 0; i < world.network.cells().size(); ++i) {
    const auto& cell = world.network.cells()[i];
    d.u64(cell.id);
    d.u64(cell.pci);
    d.u64(cell.carrier);
    d.u64(static_cast<std::uint64_t>(cell.channel.rat));
    d.u64(cell.channel.number);
    d.f64(cell.position.x);
    d.f64(cell.position.y);
    d.u64(static_cast<std::uint64_t>(cell.city));
    d.f64(cell.tx_power_dbm);
    d.u64(static_cast<std::uint64_t>(cell.bandwidth_prbs));
    if (cell.is_lte()) {
      for (const auto& msg : ue::broadcast_system_information(cell)) {
        const auto wire = rrc::encode(msg);
        d.bytes(wire.data(), wire.size());
      }
      rrc::RrcConnectionReconfiguration reconf;
      reconf.report_configs = cell.lte_config.report_configs;
      const auto wire = rrc::encode(rrc::Message{reconf});
      d.bytes(wire.data(), wire.size());
    } else {
      const auto& legacy = cell.legacy_config;
      d.u64(static_cast<std::uint64_t>(legacy.rat));
      d.u64(static_cast<std::uint64_t>(legacy.priority));
      d.f64(legacy.q_rxlevmin_dbm);
      d.f64(legacy.q_hyst_db);
      d.u64(static_cast<std::uint64_t>(legacy.t_reselection));
      for (const double v : legacy.extra_params) d.f64(v);
    }
    for (const auto& update : world.update_schedule[i]) {
      d.f64(update.day);
      d.u64(update.active_params);
    }
  }
  return d.value();
}

TEST(Generator, WorldDigestIsPinned) {
  // A golden value: the generated world is a pure function of (seed,
  // scale), so any change here means every downstream figure moved.  It
  // also pins the regional carriers' profile salts, which must not depend
  // on the compiler.
  EXPECT_EQ(world_digest(small_world()), 0x1458e6b06454eac5ull);
}

}  // namespace
}  // namespace mmlab::netgen
