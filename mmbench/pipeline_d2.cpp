// pipeline_d2: the whole MMLab path at the paper's D2 scale.
//
// Set-up crawls the D2 world (scale 1.0, 5.5 mean visit rounds) and cuts
// each carrier log into 8 device uploads (240 uploads, ~27 MB of diag
// bytes).  One pass ingests them through a fresh ingest::Service (1
// producer, 3 decode workers, 64 KiB chunks), drains, writes the MMDS v2
// store, opens and verifies it, answers the whole fig11–22 mix with
// store::analyze_query (4 fold threads), and runs one planned query on the
// largest carrier.  The op is that planned query.  The seed permutes the
// upload order; the program promises the output does not depend on it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/ingest/replay.hpp"
#include "mmlab/ingest/service.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/sim/fleet.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "oracle.hpp"

namespace mmbench {

namespace {

namespace core = mmlab::core;
namespace ingest = mmlab::ingest;
namespace store = mmlab::store;
namespace sim = mmlab::sim;

constexpr double kScale = 1.0;
constexpr double kMeanRounds = 5.5;
constexpr unsigned kDevicesPerCarrier = 8;
constexpr std::size_t kChunkBytes = 64 << 10;
constexpr unsigned kDecodeWorkers = 3;
constexpr unsigned kFoldThreads = 4;
// A serial crawl swings with the host's single-core speed (set-up medians
// 0.84-1.20 s in consecutive runs, against 0.49-0.57 s on 4 threads); the
// crawl's output does not depend on its thread count.
constexpr unsigned kCrawlThreads = 4;
constexpr double kNominalPassSeconds = 2.0;

struct Inputs {
  std::vector<sim::CarrierLog> logs;
  std::vector<sim::DeviceUpload> uploads;
};

Inputs make_inputs() {
  mmlab::netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = kScale;
  auto world = mmlab::netgen::generate_world(wopts);
  sim::CrawlOptions copts;
  copts.mean_rounds = kMeanRounds;
  copts.threads = kCrawlThreads;
  auto crawl = sim::run_crawl(world, copts);
  Inputs in;
  in.uploads = sim::split_crawl_uploads(crawl.logs, kDevicesPerCarrier);
  in.logs = std::move(crawl.logs);
  return in;
}

/// The reference: serial extraction of the pooled carrier logs, and the
/// ColumnarView answer to every fig11–22 product per carrier.
struct Reference {
  std::uint64_t db_digest = 0;
  std::vector<std::pair<std::string, std::uint64_t>> products;
  std::string largest;  ///< carrier with the most observations
  std::uint64_t largest_products = 0;
};

Reference make_reference(const std::vector<sim::CarrierLog>& logs,
                         const store::MixOptions& mopts) {
  core::ConfigDatabase db;
  for (const auto& log : logs)
    core::extract_configs(log.acronym, log.diag_log, db);
  Reference ref;
  ref.db_digest = digest_database(db);
  std::size_t most = 0;
  for (const auto& [name, cells] : db.carriers()) {
    const std::size_t rows = db.sample_count(name);
    if (rows > most) {
      most = rows;
      ref.largest = name;
    }
  }
  const core::ColumnarView view(db, 1);
  ref.products = reference_products(view, mopts);
  for (const auto& [name, digest] : ref.products)
    if (name == ref.largest) ref.largest_products = digest;
  return ref;
}

}  // namespace

RunResult run_pipeline_d2(const RunConfig& cfg) {
  RunResult result;
  std::vector<double> setup_s;
  Inputs in = timed_setup(make_inputs, setup_s);
  std::vector<sim::DeviceUpload> uploads;
  for (std::size_t i : permutation(in.uploads.size(), cfg.seed))
    uploads.push_back(std::move(in.uploads[i]));

  const auto mopts = mix_options();
  const Reference ref = make_reference(in.logs, mopts);
  in = Inputs{};
  std::uint64_t diag_bytes = 0;
  for (const auto& u : uploads) diag_bytes += u.diag_log.size();

  const ScopedDir dir_guard(cfg.work_dir + "/pipeline_d2");
  const std::string& dir = dir_guard.path;
  std::uint64_t store_digest = 0;
  double bytes_per_row = 0.0;
  // Counters of the last pass; all but the stall time repeat every pass.
  ingest::Metrics last_ingest;
  store::WriteStats last_write;
  store::FoldStats last_mix, last_planned;
  std::uint64_t verified_bytes = 0;

  const int passes =
      std::max(3, static_cast<int>(cfg.seconds / kNominalPassSeconds + 0.5));
  const PassSet set = run_passes(cfg, passes, [&](PassRecord& rec,
                                                  const Ledger& ledger) {
    ingest::Service::Options sopts;
    sopts.workers = kDecodeWorkers;
    ingest::Service service(sopts);
    std::filesystem::remove_all(dir);

    const PassTimer timer;
    ledger.stage(rec, "ingest.offer_s", [&] {
      ingest::ReplayOptions ropts;
      ropts.chunk_bytes = kChunkBytes;
      ropts.producer_threads = 1;
      ingest::replay_uploads(service, uploads, ropts);
    });
    ledger.stage(rec, "ingest.quiesce_s", [&] { service.wait_quiescent(); });
    const core::ConfigDatabase db =
        ledger.stage(rec, "ingest.drain_s", [&] { return service.drain(); });
    const auto written = ledger.stage(
        rec, "store.write_s", [&] { return store::save_database(db, dir); });
    const auto shards = ledger.stage(
        rec, "store.open_s", [&] { return store::ShardSet::open(dir); });
    const auto& shard_set = must(shards, "open");
    const auto verified = ledger.stage(
        rec, "store.verify_s", [&] { return shard_set.verify(); });
    store::FoldOptions fopts;
    fopts.threads = kFoldThreads;
    const store::DirectFold direct(shard_set, fopts);
    const auto mix0 = Clock::now();
    const auto mix = ledger.stage(rec, "fold.mix_s", [&] {
      return store::analyze_query(direct, store::Query{}, mopts);
    });
    rec.figures["mix_s"] = seconds_between(mix0, Clock::now());
    store::Query largest;
    largest.carriers = {ref.largest};
    const auto op0 = Clock::now();
    const auto planned = ledger.stage(rec, "fold.largest_carrier_s", [&] {
      return store::analyze_query(direct, largest, mopts);
    });
    const auto op1 = Clock::now();
    timer.finish(rec);
    rec.op_ms.push_back(seconds_between(op0, op1) * 1e3);

    // Checks, outside the timed region.
    result.check(digest_database(db) == ref.db_digest,
                 "drained database != serial extract_configs");
    result.check(verified.ok(), "store verify failed");
    const std::uint64_t digest = digest_directory(dir);
    const double bpr =
        static_cast<double>(written.bytes) / static_cast<double>(written.rows);
    if (store_digest == 0) {
      store_digest = digest;
      bytes_per_row = bpr;
    }
    result.check(digest == store_digest && bpr == bytes_per_row,
                 "store bytes differ between passes");
    const auto& qa = must(mix, "analyze_query");
    result.check(qa.carriers.size() == ref.products.size(),
                 "analyze_query carrier set");
    for (std::size_t i = 0; i < qa.carriers.size() && i < ref.products.size();
         ++i)
      result.check(qa.carriers[i] == ref.products[i].first &&
                       digest_products(qa.results[i]) ==
                           ref.products[i].second,
                   "fig11-22 products of " + qa.carriers[i]);
    const auto& pq = must(planned, "planned analyze_query");
    result.check(pq.results.size() == 1 &&
                     digest_products(pq.results[0]) == ref.largest_products,
                 "planned query on " + ref.largest);

    last_ingest = service.metrics();
    last_write = written;
    last_mix = qa.stats;
    last_planned = pq.stats;
    verified_bytes = verified.ok() ? verified.value() : 0;
  }, make_inputs, setup_s);

  result.digests["database"] = hex64(ref.db_digest);
  result.digests["store"] = hex64(store_digest);
  Digest answers;
  for (const auto& [name, d] : ref.products) answers.add(name).add(d);
  result.digests["answers"] = answers.hex();
  result.info["uploads"] = static_cast<double>(uploads.size());
  result.info["diag_mb"] = static_cast<double>(diag_bytes) / 1e6;
  result.info["rows"] = static_cast<double>(last_write.rows);

  if (!cfg.trace) {
    add_end_to_end(result, setup_s, set, bytes_per_row);
    return result;
  }

  std::vector<UploadRef> refs;
  for (const auto& u : uploads) refs.push_back({&u.carrier, &u.diag_log});
  probe_decode_layers(refs, kChunkBytes, result);
  const auto& traced = set.traced;
  for (const char* stage :
       {"ingest.offer_s", "ingest.quiesce_s", "ingest.drain_s",
        "store.write_s", "store.open_s", "store.verify_s", "fold.mix_s",
        "fold.largest_carrier_s"})
    result.add(stage, stage_median(traced, stage), "s", traced.size());
  result.add("fold.planned_s", stage_median(traced, "fold.largest_carrier_s"),
             "s", traced.size());
  result.add("ingest.stall_s", last_ingest.producer_stall_seconds, "s");
  result.add("ingest.queue_high_water",
             static_cast<double>(last_ingest.queue_high_water), "count");
  result.add("ingest.sessions_sealed",
             static_cast<double>(last_ingest.sessions_sealed), "count");
  result.add("ingest.sessions_aborted",
             static_cast<double>(last_ingest.sessions_aborted), "count");
  result.add("ingest.crc_failures",
             static_cast<double>(last_ingest.crc_failures), "count");
  result.add("store.blocks", static_cast<double>(last_write.blocks), "count");
  result.add("store.shards", static_cast<double>(last_write.shards), "count");
  result.add("store.bytes_per_row", bytes_per_row, "B/row");
  result.add("store.verify_mb_per_s",
             static_cast<double>(verified_bytes) / 1e6 /
                 stage_median(traced, "store.verify_s"),
             "MB/s");
  const double total_blocks = static_cast<double>(
      last_planned.blocks + last_planned.blocks_skipped);
  result.add("plan.blocks_skipped_ratio",
             static_cast<double>(last_planned.blocks_skipped) / total_blocks,
             "ratio");
  result.add("plan.bytes_skipped",
             static_cast<double>(last_planned.bytes_skipped), "B");
  result.add("plan.values_skipped",
             static_cast<double>(last_planned.values_skipped), "count");
  result.add("plan.bytes_read", static_cast<double>(last_planned.bytes_read()),
             "B");
  result.add("fold.rows", static_cast<double>(last_mix.rows), "count");
  result.add("fold.blocks", static_cast<double>(last_mix.blocks), "count");
  result.add("fold.peak_resident_blocks",
             static_cast<double>(last_mix.peak_resident_blocks), "count");
  const double share = add_unattributed(result, traced);
  add_trace_overhead(result, set);
  if (share >= 0.05) {
    result.gate_failed = true;
    std::fprintf(stderr, "mmbench: pass.unattributed is %.1f%% of the pass\n",
                 share * 100.0);
  }
  return result;
}

}  // namespace mmbench
