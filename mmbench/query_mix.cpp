// query_mix: read-only analysis over a store with many blocks per carrier.
//
// Set-up stream-generates a world (kScale, kVisitsPerCell visits per cell:
// 5.72 M rows, 67.5 MB) straight into an MMDS v2 store cut into
// kBlockBytes blocks, so every carrier spans more blocks than the 8-block
// parse window; it fits in the page cache.  A pass answers the full
// fig11–22 mix with store::analyze_query (4 fold threads) and then a fixed
// set of planned selective queries: for every carrier and three ParamKeys,
// the values of that key over the middle half of the carrier's cell-id
// range (DirectFold::values with a Query).  The planned queries run on a
// serial engine, in the caller's thread, so a query's latency carries no
// thread hand-offs.  The op is one planned query.  The seed permutes the
// query order.  Ingest and the writer are not touched after set-up.
#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "oracle.hpp"

namespace mmbench {

namespace {

namespace core = mmlab::core;
namespace store = mmlab::store;
namespace config = mmlab::config;
namespace netgen = mmlab::netgen;

constexpr double kScale = 1.0;
constexpr int kVisitsPerCell = 4;
constexpr std::size_t kBlockBytes = 128 << 10;
constexpr std::size_t kShardBytes = 16 << 20;
constexpr unsigned kFoldThreads = 4;
constexpr unsigned kPlannedThreads = 1;
constexpr double kNominalPassSeconds = 0.4;

const config::ParamKey kKeys[] = {
    config::lte_param(config::ParamId::kServingPriority),
    config::lte_param(config::ParamId::kQHyst),
    config::lte_param(config::ParamId::kSIntraSearch),
};

netgen::StreamWorldOptions world_options() {
  netgen::StreamWorldOptions opts;
  opts.seed = 42;
  opts.scale = kScale;
  opts.visits_per_cell = kVisitsPerCell;
  return opts;
}

/// netgen snapshots into the store writer; times the writer's share.
class StoreSink final : public netgen::SnapshotSink {
 public:
  explicit StoreSink(store::StreamingDatasetSink& sink) : sink_(sink) {}
  void snapshot(const std::string& carrier, mmlab::net::CellId cell_id,
                mmlab::spectrum::Rat rat, std::uint32_t channel,
                mmlab::geo::Point position, mmlab::SimTime t,
                const std::vector<config::ParamObservation>& params) override {
    const auto t0 = Clock::now();
    sink_.snapshot(carrier, cell_id, rat, channel, position, t, params);
    write_s += seconds_between(t0, Clock::now());
  }
  double write_s = 0.0;

 private:
  store::StreamingDatasetSink& sink_;
};

/// The same snapshots into an in-memory database: the reference path,
/// which never touches the store.
class DatabaseSink final : public netgen::SnapshotSink {
 public:
  explicit DatabaseSink(core::ConfigDatabase& db) : db_(db) {}
  void snapshot(const std::string& carrier, mmlab::net::CellId cell_id,
                mmlab::spectrum::Rat rat, std::uint32_t channel,
                mmlab::geo::Point position, mmlab::SimTime t,
                const std::vector<config::ParamObservation>& params) override {
    db_.add_snapshot(carrier, cell_id, rat, channel, position, t, params);
  }

 private:
  core::ConfigDatabase& db_;
};

struct Generated {
  store::WriteStats stats;
  double write_s = 0.0;
};

Generated generate_store(const std::string& dir) {
  std::filesystem::remove_all(dir);
  store::WriterOptions wopts;
  wopts.target_block_bytes = kBlockBytes;
  wopts.target_shard_bytes = kShardBytes;
  store::ShardWriter writer(dir, wopts);
  store::StreamingDatasetSink sink(writer);
  StoreSink adapter(sink);
  netgen::stream_world(world_options(), adapter);
  Generated g;
  const auto t0 = Clock::now();
  g.stats = sink.finish();
  g.write_s = adapter.write_s + seconds_between(t0, Clock::now());
  return g;
}

struct PlannedQuery {
  std::string carrier;
  config::ParamKey key;
  store::Query query;
  std::uint64_t expected = 0;  ///< digest of the reference ValueCounts
};

/// The planned query set and every answer the ColumnarView path gives.
struct Reference {
  std::uint64_t db_digest = 0;
  std::vector<std::pair<std::string, std::uint64_t>> products;
  std::vector<PlannedQuery> queries;
  std::string largest;
};

Reference make_reference(const store::MixOptions& mopts) {
  Reference ref;
  core::ConfigDatabase db;
  DatabaseSink sink(db);
  netgen::stream_world(world_options(), sink);
  ref.db_digest = digest_database(db);
  {
    const core::ColumnarView view(db, 1);
    ref.products = reference_products(view, mopts);
  }
  std::size_t most = 0;
  for (const auto& [name, cells] : db.carriers()) {
    if (cells.empty()) continue;
    const std::size_t rows = db.sample_count(name);
    if (rows > most) {
      most = rows;
      ref.largest = name;
    }
    const std::uint32_t first = cells.begin()->first;
    const std::uint32_t span = cells.rbegin()->first - first;
    const std::uint32_t lo = first + span / 4;
    const std::uint32_t hi = first + span / 4 * 3;
    core::ConfigDatabase in_range;
    for (auto it = cells.lower_bound(lo); it != cells.end() && it->first <= hi;
         ++it)
      in_range.upsert_cell(name, it->first) = it->second;
    const core::ColumnarView view(in_range, 1);
    for (const auto key : kKeys) {
      PlannedQuery q;
      q.carrier = name;
      q.key = key;
      q.query.carriers = {name};
      q.query.min_cell = lo;
      q.query.max_cell = hi;
      q.query.params = {key};
      q.expected = digest_values(view.values(name, key));
      ref.queries.push_back(std::move(q));
    }
  }
  return ref;
}

}  // namespace

RunResult run_query_mix(const RunConfig& cfg) {
  RunResult result;
  const ScopedDir dir_guard(cfg.work_dir + "/query_mix");
  const std::string& dir = dir_guard.path;
  // Repeated set-ups write a second store, never the one being queried.
  const ScopedDir repeat_guard(cfg.work_dir + "/query_mix-setup");
  std::vector<double> setup_s, write_s;
  auto setup_into = [&write_s](std::string into) {
    return [&write_s, into] {
      Generated g = generate_store(into);
      write_s.push_back(g.write_s);
      return g;
    };
  };
  const Generated gen = timed_setup(setup_into(dir), setup_s);
  const auto store_digest = digest_directory(dir);

  auto t0 = Clock::now();
  const auto opened = store::ShardSet::open(dir);
  const double open_s = seconds_between(t0, Clock::now());
  const auto& shard_set = must(opened, "open");
  t0 = Clock::now();
  const auto verified = shard_set.verify();
  const double verify_s = seconds_between(t0, Clock::now());
  result.check(verified.ok(), "store verify failed");

  const auto mopts = mix_options();
  const Reference ref = make_reference(mopts);
  const auto order = permutation(ref.queries.size(), cfg.seed);
  store::FoldOptions fopts;
  fopts.threads = kFoldThreads;
  const store::DirectFold direct(shard_set, fopts);
  fopts.threads = kPlannedThreads;
  const store::DirectFold serial(shard_set, fopts);
  store::FoldStats mix_stats;

  const int passes =
      std::max(3, static_cast<int>(cfg.seconds / kNominalPassSeconds + 0.5));
  const PassSet set = run_passes(cfg, passes, [&](PassRecord& rec,
                                                  const Ledger& ledger) {
    std::vector<std::uint64_t> answers(ref.queries.size());
    std::vector<bool> answered(ref.queries.size());
    double largest_ms = 0.0;
    const PassTimer timer;
    const auto mix0 = Clock::now();
    const auto mix = ledger.stage(rec, "fold.mix_s", [&] {
      return store::analyze_query(direct, store::Query{}, mopts);
    });
    rec.figures["mix_s"] = seconds_between(mix0, Clock::now());
    for (std::size_t i : order) {
      const auto& q = ref.queries[i];
      const auto op0 = Clock::now();
      const auto vc = ledger.stage(rec, "fold.planned_s", [&] {
        return serial.values(q.carrier, q.key, q.query);
      });
      const double ms = seconds_between(op0, Clock::now()) * 1e3;
      rec.op_ms.push_back(ms);
      if (q.carrier == ref.largest) largest_ms += ms;
      answered[i] = vc.ok();
      if (vc.ok()) answers[i] = digest_values(vc.value());
    }
    timer.finish(rec);
    rec.figures["largest_carrier_s"] = largest_ms / 1e3;

    // Checks, outside the timed region.
    const auto& qa = must(mix, "analyze_query");
    result.check(qa.carriers.size() == ref.products.size(),
                 "analyze_query carrier set");
    for (std::size_t i = 0; i < qa.carriers.size() && i < ref.products.size();
         ++i)
      result.check(qa.carriers[i] == ref.products[i].first &&
                       digest_products(qa.results[i]) ==
                           ref.products[i].second,
                   "fig11-22 products of " + qa.carriers[i]);
    for (std::size_t i = 0; i < ref.queries.size(); ++i)
      result.check(answered[i] && answers[i] == ref.queries[i].expected,
                   "planned values of " + ref.queries[i].carrier);
    mix_stats = qa.stats;
  }, setup_into(repeat_guard.path), setup_s);

  result.digests["database"] = hex64(ref.db_digest);
  result.digests["store"] = hex64(store_digest);
  Digest answers;
  for (const auto& [name, d] : ref.products) answers.add(name).add(d);
  for (const auto& q : ref.queries) answers.add(q.expected);
  result.digests["answers"] = answers.hex();
  result.info["store_mb"] = static_cast<double>(gen.stats.bytes) / 1e6;
  const double bytes_per_row = static_cast<double>(gen.stats.bytes) /
                               static_cast<double>(gen.stats.rows);
  result.info["rows"] = static_cast<double>(gen.stats.rows);

  if (!cfg.trace) {
    add_end_to_end(result, setup_s, set, bytes_per_row);
    return result;
  }

  const auto& traced = set.traced;
  result.add("store.write_s", median(write_s), "s", write_s.size());
  result.add("store.blocks", static_cast<double>(gen.stats.blocks), "count");
  result.add("store.shards", static_cast<double>(gen.stats.shards), "count");
  result.add("store.bytes_per_row", bytes_per_row, "B/row");
  result.add("store.open_s", open_s, "s");
  result.add("store.verify_s", verify_s, "s");
  result.add("store.verify_mb_per_s",
             static_cast<double>(verified.ok() ? verified.value() : 0) / 1e6 /
                 verify_s,
             "MB/s");
  // Plan accounting over one pass of the query set (planning reads only
  // the manifest; the fold counters come from one extra untimed pass).
  double blocks_skipped = 0, blocks_total = 0, bytes_skipped = 0;
  for (const auto& q : ref.queries) {
    const store::QueryPlan plan(shard_set, q.query);
    blocks_skipped += static_cast<double>(plan.blocks_skipped());
    blocks_total +=
        static_cast<double>(plan.blocks_skipped() + plan.blocks_selected());
    bytes_skipped += static_cast<double>(plan.bytes_skipped());
  }
  const auto before = serial.stats();
  for (const auto& q : ref.queries)
    (void)serial.values(q.carrier, q.key, q.query);
  const auto after = serial.stats();
  store::FoldStats read;
  read.bytes = after.bytes - before.bytes;
  read.values_skipped = after.values_skipped - before.values_skipped;
  result.add("plan.blocks_skipped_ratio", blocks_skipped / blocks_total,
             "ratio");
  result.add("plan.bytes_skipped", bytes_skipped, "B");
  result.add("plan.values_skipped", static_cast<double>(read.values_skipped),
             "count");
  result.add("plan.bytes_read", static_cast<double>(read.bytes_read()), "B");
  result.add("fold.mix_s", stage_median(traced, "fold.mix_s"), "s",
             traced.size());
  result.add("fold.rows", static_cast<double>(mix_stats.rows), "count");
  result.add("fold.blocks", static_cast<double>(mix_stats.blocks), "count");
  result.add("fold.peak_resident_blocks",
             static_cast<double>(mix_stats.peak_resident_blocks), "count");
  result.add("fold.largest_carrier_s",
             figure_median(traced, "largest_carrier_s"), "s", traced.size());
  result.add("fold.planned_s", stage_median(traced, "fold.planned_s"), "s",
             traced.size());
  add_unattributed(result, traced);
  add_trace_overhead(result, set);
  // The decode and ingest layers do not run here: an explicit 0, no samples.
  const std::pair<const char*, const char*> not_run[] = {
      {"diag.parse_s", "s"},          {"diag.records", "count"},
      {"diag.malformed", "count"},    {"rrc.decode_s", "s"},
      {"rrc.messages", "count"},      {"rrc.errors", "count"},
      {"core.extract_s", "s"},        {"core.snapshots", "count"},
      {"ingest.offer_s", "s"},        {"ingest.quiesce_s", "s"},
      {"ingest.drain_s", "s"},        {"ingest.stall_s", "s"},
      {"ingest.queue_high_water", "count"},
      {"ingest.sessions_sealed", "count"},
      {"ingest.sessions_aborted", "count"},
      {"ingest.crc_failures", "count"}};
  for (const auto& [name, unit] : not_run) result.add(name, 0.0, unit, 0);
  return result;
}

}  // namespace mmbench
