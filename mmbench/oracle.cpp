#include "oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "mmlab/core/analysis.hpp"
#include "mmlab/netgen/profile.hpp"

namespace mmbench {

namespace core = mmlab::core;
namespace store = mmlab::store;
namespace config = mmlab::config;

Digest& Digest::add(const std::string& s) {
  return add_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest& Digest::add_bytes(const std::uint8_t* data, std::size_t size) {
  add(static_cast<std::uint64_t>(size));
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    add(word);
  }
  std::uint64_t tail = 0;
  if (i < size) std::memcpy(&tail, data + i, size - i);
  return add(tail);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Digest::hex() const { return hex64(h_); }

namespace {

void add_key(Digest& d, config::ParamKey key) {
  d.add(static_cast<std::uint64_t>(key.rat)).add(std::uint64_t{key.id});
}

void add_values(Digest& d, const mmlab::stats::ValueCounts& vc) {
  d.add(static_cast<std::uint64_t>(vc.total()));
  for (const auto& [value, count] : vc.counts())
    d.add(value).add(static_cast<std::uint64_t>(count));
}

void add_grouped(Digest& d,
                 const std::map<long, mmlab::stats::ValueCounts>& groups) {
  d.add(static_cast<std::uint64_t>(groups.size()));
  for (const auto& [group, vc] : groups) {
    d.add(static_cast<std::uint64_t>(group));
    add_values(d, vc);
  }
}

void add_doubles(Digest& d, const std::vector<double>& xs) {
  d.add(static_cast<std::uint64_t>(xs.size()));
  for (double x : xs) d.add(x);
}

}  // namespace

std::uint64_t digest_database(const core::ConfigDatabase& db) {
  Digest d;
  for (const auto& [carrier, cells] : db.carriers()) {
    d.add(carrier).add(static_cast<std::uint64_t>(cells.size()));
    for (const auto& [id, rec] : cells) {
      d.add(std::uint64_t{id})
          .add(std::uint64_t{rec.cell_id})
          .add(static_cast<std::uint64_t>(rec.rat))
          .add(std::uint64_t{rec.channel})
          .add(rec.position.x)
          .add(rec.position.y)
          .add(static_cast<std::uint64_t>(rec.observations.size()));
      for (const auto& obs : rec.observations) {
        add_key(d, obs.key);
        d.add(obs.value)
            .add(static_cast<std::uint64_t>(obs.t.ms))
            .add(static_cast<std::uint64_t>(obs.context));
      }
    }
  }
  return d.value();
}

std::uint64_t digest_values(const mmlab::stats::ValueCounts& vc) {
  Digest d;
  add_values(d, vc);
  return d.value();
}

std::uint64_t digest_products(const store::CarrierAnalysis& a) {
  Digest d;
  d.add(static_cast<std::uint64_t>(a.diversity.size()));
  for (const auto& p : a.diversity) {
    add_key(d, p.key);
    d.add(p.measures.simpson)
        .add(p.measures.cv)
        .add(static_cast<std::uint64_t>(p.measures.richness))
        .add(static_cast<std::uint64_t>(p.cells));
  }
  d.add(static_cast<std::uint64_t>(a.dependence.size()));
  for (const auto& p : a.dependence) {
    add_key(d, p.key);
    d.add(p.zeta_simpson).add(p.zeta_cv);
  }
  add_grouped(d, a.serving_priority);
  add_grouped(d, a.candidate_priority);
  d.add(a.multi_priority_fraction);
  add_grouped(d, a.priority_by_city);
  add_doubles(d, a.spatial_diversity);
  add_doubles(d, a.gaps.intra_minus_nonintra);
  add_doubles(d, a.gaps.intra_minus_slow);
  add_doubles(d, a.gaps.nonintra_minus_slow);
  return d.value();
}

std::uint64_t digest_directory(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  Digest d;
  std::vector<std::uint8_t> buf(1 << 20);
  for (const auto& path : files) {
    d.add(path.filename().string());
    std::ifstream in(path, std::ios::binary);
    while (in) {
      in.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
      d.add_bytes(buf.data(), static_cast<std::size_t>(in.gcount()));
    }
  }
  return d.value();
}

store::MixOptions mix_options() {
  store::MixOptions options;
  options.cities = mmlab::netgen::standard_cities();
  options.spatial = store::SpatialQuery{
      config::lte_param(config::ParamId::kServingPriority),
      options.cities.front(), 2'000.0};
  return options;
}

store::CarrierAnalysis reference_analysis(const core::ColumnarView& view,
                                          const std::string& carrier,
                                          const store::MixOptions& options) {
  store::CarrierAnalysis a;
  a.diversity = core::diversity_by_param(view, carrier, options.diversity_rat);
  a.dependence = core::frequency_dependence(view, carrier);
  a.serving_priority = core::priority_by_channel(view, carrier, false, 1);
  a.candidate_priority = core::priority_by_channel(view, carrier, true, 1);
  a.multi_priority_fraction = core::multi_priority_cell_fraction(view, carrier);
  a.priority_by_city = core::priority_by_city(view, carrier, options.cities);
  if (options.spatial)
    a.spatial_diversity = core::spatial_diversity(
        view, carrier, options.spatial->key, options.spatial->city,
        options.spatial->radius_m);
  a.gaps = core::measurement_decision_gaps(view, carrier);
  return a;
}

std::vector<std::pair<std::string, std::uint64_t>> reference_products(
    const core::ColumnarView& view, const store::MixOptions& options) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& carrier : view.carriers())
    out.emplace_back(carrier.name, digest_products(reference_analysis(
                                       view, carrier.name, options)));
  return out;
}

}  // namespace mmbench
