// The crawled-configuration database — MMLab's central data structure.
//
// Everything here is built from decoded diag logs only (device-side view);
// tests assert it agrees with simulator ground truth.  An observation is one
// (parameter, value) pair seen at one cell at one time; a cell accumulates
// observations across crawl rounds.  Queries follow the paper's methodology:
// distribution/diversity statistics count *unique* (cell, value) pairs so
// repeatedly-sampled cells don't tip the distributions (§5.1), while raw
// observation counts are the paper's "samples" (Fig 12).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mmlab/config/params.hpp"
#include "mmlab/geo/geometry.hpp"
#include "mmlab/stats/diversity.hpp"
#include "mmlab/util/clock.hpp"

namespace mmlab::core {

struct Observation {
  config::ParamKey key;
  double value = 0.0;
  SimTime t;
  std::int64_t context = -1;  ///< see config::ParamObservation::context

  bool operator==(const Observation&) const = default;
};

struct CellRecord {
  std::uint32_t cell_id = 0;
  spectrum::Rat rat = spectrum::Rat::kLte;
  std::uint32_t channel = 0;
  geo::Point position;  ///< device GPS at first camp
  std::vector<Observation> observations;

  /// Unique values this cell was observed with for `key`, in first-seen
  /// time order.
  std::vector<double> unique_values(config::ParamKey key) const;
  /// Most recent observation of `key`.
  std::optional<double> latest(config::ParamKey key) const;
  /// Number of observations of `key` (the Fig 13a per-cell sample count).
  std::size_t sample_count(config::ParamKey key) const;

  /// Absorb another record of the same cell under ConfigDatabase::merge's
  /// ordering contract: observations re-ordered by timestamp (stable,
  /// this-before-other on equal t, with a stable_sort fallback when either
  /// side isn't already t-sorted), and identity metadata following the side
  /// whose first observation is earliest.  An observation-less `other`
  /// contributes nothing — not even metadata.  Exposed so out-of-core shard
  /// loaders can merge one cell's per-run records bit-identically to a
  /// whole-database merge.
  void merge_from(CellRecord&& other);

  bool operator==(const CellRecord&) const = default;
};

class ConfigDatabase {
 public:
  using CellMap = std::map<std::uint32_t, CellRecord>;

  /// Record one decoded configuration snapshot of a cell.
  void add_snapshot(const std::string& carrier, std::uint32_t cell_id,
                    spectrum::Rat rat, std::uint32_t channel,
                    geo::Point position, SimTime t,
                    const std::vector<config::ParamObservation>& params);

  /// Bulk-load entry point for dataset deserializers: the (possibly fresh)
  /// record for (carrier, cell_id), for appending observations directly
  /// without per-observation map lookups.  Callers must fill the identity
  /// fields of a fresh record themselves (add_snapshot's first-camp rule).
  CellRecord& upsert_cell(const std::string& carrier, std::uint32_t cell_id) {
    return carriers_[carrier][cell_id];
  }

  /// Absorb another database (a parallel extraction worker's private shard),
  /// leaving `other` empty.  Deterministic: carriers and cells land in key
  /// order regardless of which worker produced them, and when both sides
  /// observed the same cell its observations are re-ordered by timestamp
  /// (stable, so same-timestamp observations keep this-before-other order).
  /// Cell identity metadata (rat/channel/position) follows the earliest
  /// observation, matching what serial extraction would have recorded first.
  void merge(ConfigDatabase&& other);

  /// Absorb `shards` in order: the result equals merge(shards[0]);
  /// merge(shards[1]); ... into *this, for every thread count.  merge never
  /// crosses carriers, so the shards are grouped by carrier and each
  /// carrier's chain — this database's cells, then that carrier's cells of
  /// every shard in input order — runs as one job on up to `threads`
  /// workers (0 = hardware concurrency, 1 = the calling thread only),
  /// largest carrier first.  `shards` is left empty.
  void merge_all(std::vector<ConfigDatabase>&& shards, unsigned threads);

  bool operator==(const ConfigDatabase&) const = default;

  const std::map<std::string, CellMap>& carriers() const { return carriers_; }
  const CellMap* cells_of(const std::string& carrier) const;

  std::size_t cell_count(const std::string& carrier) const;
  std::size_t sample_count(const std::string& carrier) const;
  std::size_t total_cells() const;
  std::size_t total_samples() const;

  /// Unique-per-cell value counts of one parameter across a carrier's
  /// cells (optionally restricted to one RAT).
  stats::ValueCounts values(const std::string& carrier,
                            config::ParamKey key) const;

  /// Same, grouped by an arbitrary cell-level factor (frequency channel,
  /// city id, ...). Cells mapping to a negative factor are skipped.
  std::map<long, stats::ValueCounts> values_grouped(
      const std::string& carrier, config::ParamKey key,
      const std::function<long(const CellRecord&)>& factor) const;

  /// Unique (cell, context, value) counts grouped by observation context —
  /// e.g. candidate priorities grouped by their target channel (Fig 18
  /// bottom). Observations without context (-1) are skipped.
  std::map<long, stats::ValueCounts> values_by_context(
      const std::string& carrier, config::ParamKey key) const;

  /// Every parameter key observed for a carrier (sorted).
  std::vector<config::ParamKey> observed_params(
      const std::string& carrier) const;

 private:
  std::map<std::string, CellMap> carriers_;
};

}  // namespace mmlab::core
