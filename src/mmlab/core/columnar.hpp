// Columnar read path over ConfigDatabase (the analysis-phase fast path).
//
// The legacy query API answers every values()/values_grouped()/
// values_by_context() call by re-scanning every cell's flat observation
// vector, with CellRecord::unique_values doing an O(n·u) std::find dedup per
// call.  The figure benches and mmlab_cli repeat those scans dozens of times
// over the same immutable database, so the scan work is pure waste after the
// first pass.  ColumnarView is built once per database snapshot and serves
// the same queries from precomputed per-(cell, parameter) column spans:
//
//   * carrier names are interned to dense indices (carriers_[i].name),
//   * each cell's observations are grouped into per-ParamKey spans whose
//     unique values, unique (context, value) pairs and latest value are
//     precomputed at build time (first-seen dedup order and latest-wins
//     tie-breaking follow the original observation order), so a query
//     touches O(answer) data instead of O(total observations) — the raw
//     observations themselves are never copied,
//   * an inverted span index (spans_by_key / key_ranges) lets whole-carrier
//     single-key queries walk only the matching spans, and the per-key
//     whole-carrier values() aggregate is materialized outright.
//
// Every query is bit-identical to the legacy ConfigDatabase scan (property
// tested in test_columnar.cpp); the legacy API remains the write path and
// the correctness oracle.  The view holds pointers into the database: any
// mutation (add_snapshot / upsert_cell / merge / load) invalidates it, and
// callers rebuild — there is no incremental maintenance by design.
//
// Queries taking a `threads` argument can fan out over contiguous cell
// partitions via util::WorkerPool; partial results merge in partition order,
// so the result is identical for any worker count (the same contract as
// extract_configs_parallel).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mmlab/core/database.hpp"

namespace mmlab::core {

class ColumnarView {
 public:
  /// One cell's observations of one parameter: [uniq_begin, uniq_end) into
  /// the unique-values column (first-seen order), [ctx_begin, ctx_end) into
  /// the unique (context, value) columns (first-seen order, context >= 0
  /// only).
  struct Span {
    config::ParamKey key;
    std::uint32_t cell = 0;  ///< index into Carrier::cells (owning cell)
    std::uint32_t uniq_begin = 0, uniq_end = 0;
    std::uint32_t ctx_begin = 0, ctx_end = 0;
    double latest = 0.0;      ///< valid only when has_latest
    bool has_latest = false;  ///< mirrors CellRecord::latest's nullopt cases
  };

  /// One cell: spans_[span_begin, span_end) hold its parameters in
  /// ascending ParamKey order.  `rec` points back into the database for
  /// metadata (rat / channel / position) — never for observations.  `id` is
  /// the CellMap key (authoritative even when rec->cell_id was never filled
  /// by an upsert_cell caller).
  struct Cell {
    const CellRecord* rec = nullptr;
    std::uint32_t id = 0;
    std::uint32_t span_begin = 0, span_end = 0;
  };

  /// Range into Carrier::spans_by_key for one parameter.
  struct KeyRange {
    std::uint32_t begin = 0, end = 0;
  };

  /// One interned carrier: cells ascending by cell id, all columns
  /// contiguous.  Every precomputed query product (spans, uniq_col, the ctx
  /// columns, latest, key_totals) is derived from the cells' records at
  /// build time.
  struct Carrier {
    std::string name;
    std::vector<Cell> cells;
    std::vector<Span> spans;
    std::vector<double> uniq_col;
    std::vector<std::int64_t> ctx_context_col;
    std::vector<double> ctx_value_col;
    std::vector<config::ParamKey> observed;  ///< sorted distinct keys
    /// Inverted span index: span ids grouped by key (cell-ascending within a
    /// key), so whole-carrier single-key queries touch only matching spans
    /// instead of binary-searching every cell.  key_ranges is parallel to
    /// `observed`.
    std::vector<std::uint32_t> spans_by_key;
    std::vector<KeyRange> key_ranges;
    /// Materialized whole-carrier aggregate per key (parallel to `observed`):
    /// exactly ConfigDatabase::values(name, key), precomputed once.  The
    /// number of cells contributing to key i is key_ranges[i].end -
    /// key_ranges[i].begin (one span per observing cell).
    std::vector<stats::ValueCounts> key_totals;
  };

  /// Builds the view; `build_threads` workers build carriers concurrently
  /// (0 = hardware concurrency, 1 = serial).  The database must outlive the
  /// view and stay unmodified.
  explicit ColumnarView(const ConfigDatabase& db, unsigned build_threads = 1);

  const std::vector<Carrier>& carriers() const { return carriers_; }
  /// Interned index of a carrier name (names are sorted, so this is a
  /// binary search), or nullopt.
  std::optional<std::uint32_t> carrier_index(std::string_view name) const;
  const Carrier* find_carrier(std::string_view name) const;

  std::size_t total_cells() const;
  std::size_t total_observations() const;

  // --- span-level accessors (used by the analysis overloads) ---------------

  /// The span of `key` at `cell`, or nullptr when the cell never observed
  /// it.  Spans are key-sorted per cell, so this is a binary search.
  const Span* find_span(const Carrier& carrier, const Cell& cell,
                        config::ParamKey key) const;
  /// Precomputed CellRecord::unique_values(key) (first-seen order).
  std::span<const double> unique_values(const Carrier& carrier,
                                        const Cell& cell,
                                        config::ParamKey key) const;
  /// Ids of every span of `key` across the carrier (cell-ascending), from
  /// the inverted index.  Empty when the carrier never observed the key.
  std::span<const std::uint32_t> key_span_ids(const Carrier& carrier,
                                              config::ParamKey key) const;

  // --- ConfigDatabase query equivalents ------------------------------------
  // Each is bit-identical to the same-named ConfigDatabase method.  With
  // threads > 1 the cells are split into contiguous partitions scanned
  // concurrently and merged in partition order; `factor` must then be safe
  // to call concurrently on distinct cells.

  /// With threads <= 1, returns a copy of the materialized per-key total
  /// (O(distinct values)); with threads > 1, recomputes it via the
  /// deterministic parallel fold over the key's spans — both are identical.
  stats::ValueCounts values(const std::string& carrier, config::ParamKey key,
                            unsigned threads = 1) const;

  std::map<long, stats::ValueCounts> values_grouped(
      const std::string& carrier, config::ParamKey key,
      const std::function<long(const CellRecord&)>& factor,
      unsigned threads = 1) const;

  std::map<long, stats::ValueCounts> values_by_context(
      const std::string& carrier, config::ParamKey key,
      unsigned threads = 1) const;

  std::vector<config::ParamKey> observed_params(
      const std::string& carrier) const;

  std::optional<double> latest(const std::string& carrier,
                               std::uint32_t cell_id,
                               config::ParamKey key) const;

 private:
  std::vector<Carrier> carriers_;
};

}  // namespace mmlab::core
