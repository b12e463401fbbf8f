// Shard-direct query folds: answer analysis queries straight off the mapped
// MMDS v2 blocks, with no database or ColumnarView (or any other whole-store
// structure) materialized in between.
//
// DirectFold streams each carrier's blocks through a bounded parse window
// and hands every *fully merged* cell record to a consumer exactly once, in
// globally ascending cell-id order.  Queries and the figure entry points
// (store/analytics.hpp) are folds over that stream, so resident memory is
// O(window) blocks plus the answer — never the store.
//
// Merge contract (DESIGN.md §12): a cell's runs merge via
// CellRecord::merge_from in global (shard, block) manifest order — exactly
// what load_database does — so every downstream product is bit-identical to
// the in-memory path for any thread count and window size.  The windowing
// invariant that makes streaming safe: with the manifest's per-block
// cell-id ranges (BlockInfo::first_cell / last_cell), a merged cell may be
// emitted once its id is below every unparsed block's first_cell — ids
// within a block lie inside [first_cell, last_cell], so no later block can
// contribute another run of it.
//
// Every fold is planned (DESIGN.md §13): a store::QueryPlan narrows it to
// the blocks that can contribute to a query — other carriers' blocks and
// blocks whose cell-id range misses the query are never mapped,
// checksummed, or parsed; FoldStats counts what the planner skipped.  A
// ParamKey predicate additionally pushes down to the wire: filtered
// observations' 8-byte value payloads are skipped, not decoded.
// Filtered folds preserve the merge contract exactly — the metadata
// tie-break (which run's rat/channel/position wins) is computed over each
// run's *unfiltered* front observation, so a planned answer is
// bit-identical to filtering the corresponding full-fold answer.
// fold_query schedules the selected carriers as concurrent pool jobs
// (largest first) under one shared parse-window budget.
//
// Integrity: each block body is checksummed against its manifest CRC right
// before parsing.  A mismatch — or any structural damage the parser trips
// on — fails the whole fold; a query never returns a partial answer built
// from a corrupt prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/stats/diversity.hpp"
#include "mmlab/store/query_plan.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/util/result.hpp"

namespace mmlab::store {

struct FoldOptions {
  /// Blocks within the parse window parse concurrently when != 1 (0 = all
  /// cores).  The merge is serial in manifest order, so results are
  /// identical for every value.  fold_query additionally uses this as the
  /// cross-carrier job count (concurrency moves between carriers, never
  /// multiplies).
  unsigned threads = 1;
  /// Parse window in blocks (0 = auto: max(2, 2 * threads)).  Larger
  /// windows trade memory for parse parallelism.  The window is a floor on
  /// batching, not a ceiling on residency: blocks stay resident until their
  /// cells are merged out, so a layout with interleaved cell-id ranges can
  /// hold more than `window_blocks` parsed blocks alive (correctness never
  /// depends on the window).  fold_query treats this as the GLOBAL budget
  /// and splits it across concurrent carrier jobs.
  std::size_t window_blocks = 0;
};

struct FoldStats {
  std::uint64_t rows = 0;    ///< observations parsed (wire rows scanned)
  std::uint64_t cells = 0;   ///< merged cells emitted (distinct ids)
  std::uint64_t blocks = 0;  ///< blocks parsed
  std::uint64_t bytes = 0;   ///< block body bytes parsed
  /// Blocks / bytes the query planner pruned — never mapped or parsed.
  /// The store-wide count relative to the bound QueryPlan (other carriers'
  /// blocks count as skipped — exactly what the plan saved over a full
  /// fold of the store).
  std::uint64_t blocks_skipped = 0;
  std::uint64_t bytes_skipped = 0;
  /// Observations whose 8-byte value payload the ParamKey push-down
  /// skipped instead of decoding (they still count in `rows`).
  std::uint64_t values_skipped = 0;
  /// Largest number of concurrently parsed-and-resident blocks — the
  /// realized window, i.e. what bounds transient memory.  For fold_query
  /// this is the total across concurrent carrier jobs.
  std::uint64_t peak_resident_blocks = 0;
  double fold_seconds = 0.0;

  /// Body bytes actually decoded: parsed bytes minus the skipped value
  /// payloads.  Strictly less than `bytes` whenever the param push-down
  /// filtered anything.
  std::uint64_t bytes_read() const { return bytes - 8 * values_skipped; }
};

/// Streaming fold engine over an opened ShardSet.  The set must outlive the
/// engine and stay open across every fold.  Each block's mapped bytes are
/// released (madvise) once its last cell has been merged out; a later fold
/// of the same block refaults them from the page cache.  Folds are const;
/// cumulative stats() accumulation is mutex-guarded, so independent folds
/// (e.g. the cross-carrier scheduler's jobs) may run concurrently on one
/// engine.
class DirectFold {
 public:
  explicit DirectFold(const ShardSet& set, FoldOptions options = {});

  const ShardSet& shards() const { return *set_; }
  const FoldOptions& options() const { return options_; }
  /// Carrier names in sorted order (the ColumnarView carrier order).
  const std::vector<std::string>& carriers() const { return names_; }

  /// Receives each of the carrier's cells exactly once, fully merged across
  /// all its runs, in ascending id order.  The record is only valid for the
  /// duration of the call.  Under a ParamKey predicate a cell whose
  /// observations were all filtered out is still delivered (with empty
  /// observations): per-cell census products — e.g. the LTE cell count
  /// under multi_priority_cell_fraction — must not shift when values are
  /// filtered.  Only cells outside the query's id range are dropped.
  using CellConsumer =
      std::function<void(std::uint32_t id, const core::CellRecord& rec)>;

  /// Stream one planned carrier: only the plan's selected blocks parse,
  /// and the plan's wire predicates (cell range, param mask) apply.  The
  /// plan must be bound to this engine's ShardSet.  A carrier the plan did
  /// not select (or an unknown one) is an empty success with zero fold
  /// counts, matching the view queries' empty-result convention.  Returned
  /// skip counts are the plan's store-wide numbers (see FoldStats).  Block
  /// CRC mismatches and structural damage fail the fold; the consumer may
  /// have seen a prefix of the cells, so callers discard partial
  /// accumulation on error (every query in this module does).
  Result<FoldStats> fold_planned(const QueryPlan& plan,
                                 std::string_view carrier,
                                 const CellConsumer& consumer) const;

  /// Cross-carrier scheduler: fold every carrier the plan selected, as
  /// concurrent pool jobs when options().threads > 1 (largest carrier
  /// first, so stragglers start early), under ONE shared parse-window
  /// budget (options().window_blocks, split across jobs).  With one
  /// thread this is exactly the sequential per-carrier loop.
  ///
  /// `make_consumer(slot, cp)` is called serially, in sorted carrier order,
  /// once per selected carrier before any fold starts; each returned
  /// consumer is driven by exactly one job (consumers never share state
  /// unless the caller makes them).  Errors: the first failing carrier in
  /// sorted order wins, deterministically.  The returned stats aggregate
  /// all jobs; peak_resident_blocks is the concurrent total.  On success,
  /// `per_carrier` (when given) receives each slot's own fold stats —
  /// rows/cells/blocks/bytes of that carrier alone, no plan-wide skip
  /// counts — parallel to plan.carriers().
  Result<FoldStats> fold_query(
      const QueryPlan& plan,
      const std::function<CellConsumer(std::size_t slot,
                                       const CarrierQueryPlan& cp)>&
          make_consumer,
      std::vector<FoldStats>* per_carrier = nullptr) const;

  /// Bit-identical to ConfigDatabase / ColumnarView values() restricted to
  /// the query's selection (property-tested in test_direct_fold.cpp and,
  /// against a pre-filtered in-memory oracle, in test_query_plan.cpp); one
  /// planned fold over the carrier.  `query`'s carrier list is ignored —
  /// the explicit carrier argument wins.  An empty query.params is narrowed
  /// to {key}: the answer depends on that key alone, so the fold skips
  /// every other parameter's value bytes.
  Result<stats::ValueCounts> values(const std::string& carrier,
                                    config::ParamKey key,
                                    const Query& query = {}) const;

  /// Cumulative stats over every fold this engine has run
  /// (peak_resident_blocks reflects the whole history as a max; planner
  /// skip counts are NOT accumulated here — they belong to a plan, not the
  /// engine).  Mutex-guarded; safe to read between folds.
  FoldStats stats() const;

 private:
  /// Shared residency accounting for fold_query's concurrent jobs (defined
  /// in direct_fold.cpp).
  struct ResidencyGauge;

  /// One windowed streaming fold, fully parameterized: the shared engine
  /// under fold_planned and fold_query's jobs (split window, shared gauge).
  struct FoldJob {
    const std::vector<std::size_t>* blocks = nullptr;
    const std::vector<std::uint32_t>* safe_floor = nullptr;
    std::string_view carrier;               ///< for error messages
    const std::vector<char>* param_mask = nullptr;  ///< empty = all
    std::uint32_t min_cell = 0;
    std::uint32_t max_cell = 0;
    bool filtered = false;  ///< any wire predicate active
    unsigned threads = 1;
    std::size_t window = 0;  ///< resolved; 0 only for empty block lists
    ResidencyGauge* gauge = nullptr;
  };

  FoldJob make_job(const QueryPlan& plan, const CarrierQueryPlan& cp) const;
  Result<FoldStats> run_fold(const FoldJob& job,
                             const CellConsumer& consumer) const;
  void accumulate(const FoldStats& fs) const;

  const ShardSet* set_;
  FoldOptions options_;
  std::vector<std::string> names_;  ///< sorted
  mutable std::mutex stats_mutex_;
  mutable FoldStats stats_;
};

}  // namespace mmlab::store
