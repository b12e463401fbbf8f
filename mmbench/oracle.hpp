// Output checks for mmbench.
//
// Every answer the timed path produces is compared with a reference built
// at set-up by an independent path: the drained ingest database against
// serial core::extract_configs, and every shard-direct fold product against
// the in-memory core::ColumnarView path.  Comparison is by a 64-bit digest over the exact
// bits of every field (doubles by std::bit_cast, so NaN == NaN and
// 0.0 != -0.0); the same digests are printed so runs can be compared.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmlab/core/columnar.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/stats/diversity.hpp"
#include "mmlab/store/analytics.hpp"

namespace mmbench {

/// The value of a Result the benchmark cannot continue without.
template <typename T>
const T& must(const mmlab::Result<T>& r, const char* what) {
  if (!r.ok())
    throw std::runtime_error(std::string(what) + ": " + r.error_message());
  return r.value();
}

/// Order-sensitive 64-bit digest (splitmix64 chaining).
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    h_ = mix(h_ ^ mix(v + 0x9E3779B97F4A7C15ull));
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Digest& add(const std::string& s);
  /// Length, then the bytes in 8-byte little-endian words.
  Digest& add_bytes(const std::uint8_t* data, std::size_t size);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t h_ = 0x6A09E667F3BCC908ull;
};

std::string hex64(std::uint64_t v);

std::uint64_t digest_database(const mmlab::core::ConfigDatabase& db);
std::uint64_t digest_values(const mmlab::stats::ValueCounts& vc);
/// Every fig11–22 product of one carrier (the fold statistics excluded).
std::uint64_t digest_products(const mmlab::store::CarrierAnalysis& a);
/// Every regular file of a directory, in name order: names and bytes.
std::uint64_t digest_directory(const std::string& dir);

/// The analysis mix every workload runs: the paper's cities for Fig 20 and
/// one Fig 21 spatial query (serving priority, first city, 2 km).
mmlab::store::MixOptions mix_options();

/// The ColumnarView path's answer for every product analyze_carrier fills.
mmlab::store::CarrierAnalysis reference_analysis(
    const mmlab::core::ColumnarView& view, const std::string& carrier,
    const mmlab::store::MixOptions& options);

/// Digest of reference_analysis for every carrier of the view, by name.
std::vector<std::pair<std::string, std::uint64_t>> reference_products(
    const mmlab::core::ColumnarView& view,
    const mmlab::store::MixOptions& options);

}  // namespace mmbench
