#include "mmlab/core/columnar.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "mmlab/core/cell_fold.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::core {

namespace {

// Deterministic parallel fold over one carrier's cells: contiguous
// partitions scanned concurrently into pre-allocated per-partition slots,
// then merged in partition order — the extract_configs_parallel contract, so
// the result never depends on scheduling or worker count.
template <typename Partial, typename PerCell, typename Merge>
Partial fold_cells(std::size_t n_cells, unsigned threads,
                   const PerCell& per_cell, const Merge& merge) {
  if (threads == 0) threads = WorkerPool::default_thread_count();
  const std::size_t parts =
      std::min<std::size_t>(threads, n_cells == 0 ? 1 : n_cells);
  if (parts <= 1) {
    Partial acc{};
    for (std::size_t i = 0; i < n_cells; ++i) per_cell(i, acc);
    return acc;
  }
  std::vector<Partial> partials(parts);
  const std::size_t chunk = (n_cells + parts - 1) / parts;
  parallel_for_index(static_cast<unsigned>(parts), parts, [&](std::size_t p) {
    const std::size_t lo = p * chunk;
    const std::size_t hi = std::min(n_cells, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) per_cell(i, partials[p]);
  });
  Partial acc{};
  for (auto& partial : partials) merge(acc, std::move(partial));
  return acc;
}

/// Streaming per-carrier builder: feed a database's cells one at a time in
/// ascending id order, then finish().  All per-cell dedup / latest /
/// grouping semantics live in CellFolder, the kernel the shard-direct folds
/// share, so view and store answers are structurally identical.
class CarrierAssembler {
 public:
  using Carrier = ColumnarView::Carrier;
  using Cell = ColumnarView::Cell;
  using Span = ColumnarView::Span;

  explicit CarrierAssembler(std::string name) { out_.name = std::move(name); }

  void reserve(std::size_t cells) { out_.cells.reserve(cells); }

  /// Feed one cell.  `id` must ascend across calls; `rec` must outlive the
  /// finished carrier (Cell::rec points at it for metadata).
  void add_cell(std::uint32_t id, const CellRecord& rec) {
    Cell cell;
    cell.rec = &rec;
    cell.id = id;
    cell.span_begin = static_cast<std::uint32_t>(out_.spans.size());

    // The kernel computes the per-cell products; this method only
    // relocates its output into the carrier columns.
    folder_.fold(rec);
    const std::uint32_t uniq_base = static_cast<std::uint32_t>(
        out_.uniq_col.size());
    const std::uint32_t ctx_base = static_cast<std::uint32_t>(
        out_.ctx_value_col.size());

    for (const CellFolder::KeySlice& slice : folder_.keys()) {
      observed_.insert(slice.key);
      Span span;
      span.key = slice.key;
      span.cell = static_cast<std::uint32_t>(out_.cells.size());
      span.uniq_begin = uniq_base + slice.uniq_begin;
      span.uniq_end = uniq_base + slice.uniq_end;
      span.ctx_begin = ctx_base + slice.ctx_begin;
      span.ctx_end = ctx_base + slice.ctx_end;
      span.latest = slice.latest;
      span.has_latest = slice.has_latest;
      out_.spans.push_back(span);
    }

    const auto uniq = folder_.unique_values();
    out_.uniq_col.insert(out_.uniq_col.end(), uniq.begin(), uniq.end());
    const auto ctx_c = folder_.ctx_contexts();
    out_.ctx_context_col.insert(out_.ctx_context_col.end(), ctx_c.begin(),
                                ctx_c.end());
    const auto ctx_v = folder_.ctx_values();
    out_.ctx_value_col.insert(out_.ctx_value_col.end(), ctx_v.begin(),
                              ctx_v.end());

    cell.span_end = static_cast<std::uint32_t>(out_.spans.size());
    out_.cells.push_back(cell);
  }

  /// Seal the carrier: sorted observed keys, the inverted span index and
  /// the materialized per-key totals.  The assembler is spent afterwards.
  Carrier finish() && {
    Carrier& out = out_;
    out.observed.assign(observed_.begin(), observed_.end());

    // Inverted span index: bucket span ids by key.  Spans are emitted in
    // cell-ascending order, so a counting pass keeps each bucket
    // cell-ascending too (the partition contract for parallel folds).
    const auto key_index = [&](config::ParamKey k) {
      return static_cast<std::size_t>(
          std::lower_bound(out.observed.begin(), out.observed.end(), k) -
          out.observed.begin());
    };
    std::vector<std::uint32_t> fill(out.observed.size(), 0);
    for (const auto& s : out.spans) ++fill[key_index(s.key)];
    out.key_ranges.resize(out.observed.size());
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < fill.size(); ++i) {
      out.key_ranges[i].begin = run;
      run += fill[i];
      out.key_ranges[i].end = run;
      fill[i] = out.key_ranges[i].begin;
    }
    out.spans_by_key.resize(out.spans.size());
    for (std::uint32_t sid = 0; sid < out.spans.size(); ++sid)
      out.spans_by_key[fill[key_index(out.spans[sid].key)]++] = sid;

    // Materialize the whole-carrier values() aggregate per key.  This is
    // the one pass the legacy path re-ran on every call.
    out.key_totals.resize(out.observed.size());
    for (std::size_t i = 0; i < out.observed.size(); ++i) {
      stats::ValueCounts& vc = out.key_totals[i];
      for (std::uint32_t k = out.key_ranges[i].begin;
           k < out.key_ranges[i].end; ++k) {
        const Span& s = out.spans[out.spans_by_key[k]];
        for (std::uint32_t j = s.uniq_begin; j < s.uniq_end; ++j)
          vc.add(out.uniq_col[j]);
      }
    }
    return std::move(out_);
  }

 private:
  Carrier out_;
  std::set<config::ParamKey> observed_;
  CellFolder folder_;
};

void build_carrier(const std::string& name,
                   const ConfigDatabase::CellMap& cells,
                   ColumnarView::Carrier& out) {
  CarrierAssembler assembler(name);
  assembler.reserve(cells.size());
  // The database outlives the view (class contract), so records are stable
  // and no metadata copy is needed.
  for (const auto& [id, rec] : cells) assembler.add_cell(id, rec);
  out = std::move(assembler).finish();
}

}  // namespace

ColumnarView::ColumnarView(const ConfigDatabase& db, unsigned build_threads) {
  const auto& carriers = db.carriers();
  carriers_.resize(carriers.size());
  std::vector<std::pair<const std::string*, const ConfigDatabase::CellMap*>>
      src;
  src.reserve(carriers.size());
  for (const auto& [name, cells] : carriers) src.emplace_back(&name, &cells);

  if (build_threads == 1 || carriers_.size() <= 1) {
    for (std::size_t i = 0; i < src.size(); ++i)
      build_carrier(*src[i].first, *src[i].second, carriers_[i]);
  } else {
    parallel_for_index(build_threads, src.size(), [&](std::size_t i) {
      build_carrier(*src[i].first, *src[i].second, carriers_[i]);
    });
  }
}

std::optional<std::uint32_t> ColumnarView::carrier_index(
    std::string_view name) const {
  const auto it = std::lower_bound(
      carriers_.begin(), carriers_.end(), name,
      [](const Carrier& c, std::string_view n) { return c.name < n; });
  if (it == carriers_.end() || it->name != name) return std::nullopt;
  return static_cast<std::uint32_t>(it - carriers_.begin());
}

const ColumnarView::Carrier* ColumnarView::find_carrier(
    std::string_view name) const {
  const auto idx = carrier_index(name);
  return idx ? &carriers_[*idx] : nullptr;
}

std::size_t ColumnarView::total_cells() const {
  std::size_t n = 0;
  for (const auto& c : carriers_) n += c.cells.size();
  return n;
}

std::size_t ColumnarView::total_observations() const {
  std::size_t n = 0;
  for (const auto& c : carriers_)
    for (const auto& cell : c.cells) n += cell.rec->observations.size();
  return n;
}

const ColumnarView::Span* ColumnarView::find_span(const Carrier& carrier,
                                                  const Cell& cell,
                                                  config::ParamKey key) const {
  const auto first = carrier.spans.begin() + cell.span_begin;
  const auto last = carrier.spans.begin() + cell.span_end;
  const auto it = std::lower_bound(
      first, last, key,
      [](const Span& s, config::ParamKey k) { return s.key < k; });
  if (it == last || !(it->key == key)) return nullptr;
  return &*it;
}

std::span<const double> ColumnarView::unique_values(
    const Carrier& carrier, const Cell& cell, config::ParamKey key) const {
  const Span* s = find_span(carrier, cell, key);
  if (!s) return {};
  return {carrier.uniq_col.data() + s->uniq_begin,
          static_cast<std::size_t>(s->uniq_end - s->uniq_begin)};
}

std::span<const std::uint32_t> ColumnarView::key_span_ids(
    const Carrier& carrier, config::ParamKey key) const {
  const auto it =
      std::lower_bound(carrier.observed.begin(), carrier.observed.end(), key);
  if (it == carrier.observed.end() || !(*it == key)) return {};
  const KeyRange r = carrier.key_ranges[it - carrier.observed.begin()];
  return {carrier.spans_by_key.data() + r.begin,
          static_cast<std::size_t>(r.end - r.begin)};
}

stats::ValueCounts ColumnarView::values(const std::string& carrier,
                                        config::ParamKey key,
                                        unsigned threads) const {
  const Carrier* c = find_carrier(carrier);
  if (!c) return {};
  if (threads <= 1) {
    // Serve the materialized aggregate directly: O(distinct values).
    const auto it =
        std::lower_bound(c->observed.begin(), c->observed.end(), key);
    if (it == c->observed.end() || !(*it == key)) return {};
    return c->key_totals[it - c->observed.begin()];
  }
  // Parallel recompute over the key's span list from the inverted index —
  // cells that never observed the key are not even visited.  Identical to
  // the materialized total (property-tested); kept as the live exercise of
  // the deterministic fold contract.
  const auto ids = key_span_ids(*c, key);
  return fold_cells<stats::ValueCounts>(
      ids.size(), threads,
      [&](std::size_t i, stats::ValueCounts& part) {
        const Span& s = c->spans[ids[i]];
        for (std::uint32_t j = s.uniq_begin; j < s.uniq_end; ++j)
          part.add(c->uniq_col[j]);
      },
      [](stats::ValueCounts& a, stats::ValueCounts&& p) { a.merge(p); });
}

std::map<long, stats::ValueCounts> ColumnarView::values_grouped(
    const std::string& carrier, config::ParamKey key,
    const std::function<long(const CellRecord&)>& factor,
    unsigned threads) const {
  using Groups = std::map<long, stats::ValueCounts>;
  const Carrier* c = find_carrier(carrier);
  if (!c) return {};
  // Unlike the legacy scan, `factor` is only consulted for cells that
  // observed `key` at all — span-less cells cannot contribute, so the
  // (possibly expensive) factor call is skipped.
  const auto ids = key_span_ids(*c, key);
  return fold_cells<Groups>(
      ids.size(), threads,
      [&](std::size_t i, Groups& part) {
        const Span& s = c->spans[ids[i]];
        const long f = factor(*c->cells[s.cell].rec);
        if (f < 0) return;
        stats::ValueCounts& vc = part[f];
        for (std::uint32_t j = s.uniq_begin; j < s.uniq_end; ++j)
          vc.add(c->uniq_col[j]);
      },
      [](Groups& a, Groups&& p) {
        for (auto& [f, vc] : p) a[f].merge(vc);
      });
}

std::map<long, stats::ValueCounts> ColumnarView::values_by_context(
    const std::string& carrier, config::ParamKey key, unsigned threads) const {
  using Groups = std::map<long, stats::ValueCounts>;
  const Carrier* c = find_carrier(carrier);
  if (!c) return {};
  const auto ids = key_span_ids(*c, key);
  return fold_cells<Groups>(
      ids.size(), threads,
      [&](std::size_t i, Groups& part) {
        const Span& s = c->spans[ids[i]];
        for (std::uint32_t j = s.ctx_begin; j < s.ctx_end; ++j)
          part[static_cast<long>(c->ctx_context_col[j])].add(
              c->ctx_value_col[j]);
      },
      [](Groups& a, Groups&& p) {
        for (auto& [f, vc] : p) a[f].merge(vc);
      });
}

std::vector<config::ParamKey> ColumnarView::observed_params(
    const std::string& carrier) const {
  const Carrier* c = find_carrier(carrier);
  return c ? c->observed : std::vector<config::ParamKey>{};
}

std::optional<double> ColumnarView::latest(const std::string& carrier,
                                           std::uint32_t cell_id,
                                           config::ParamKey key) const {
  const Carrier* c = find_carrier(carrier);
  if (!c) return std::nullopt;
  const auto it = std::lower_bound(
      c->cells.begin(), c->cells.end(), cell_id,
      [](const Cell& cell, std::uint32_t id) { return cell.id < id; });
  if (it == c->cells.end() || it->id != cell_id) return std::nullopt;
  const Span* s = find_span(*c, *it, key);
  if (!s || !s->has_latest) return std::nullopt;
  return s->latest;
}

}  // namespace mmlab::core
