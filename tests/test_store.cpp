// MMDS v2 out-of-core store: property-based round-trips (random and
// codec-edge-case databases -> sharded store -> load and direct fold are
// bit-exact; chunk size and thread count never change results),
// shard-direct answers against the in-memory view on generated data,
// manifest/shard/block corruption rejection, format sniffing, and the
// streaming generator's determinism contract against generate_world.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/columnar.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/direct_fold.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under the gtest temp dir.
class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_store_" + tag))
                  .string()) {
    fs::remove_all(path_);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A random database with adversarial shape: many carriers, duplicate
/// snapshots of the same cell (multi-visit), several RATs, contexts, and
/// value repetition so the dedup paths all fire.
core::ConfigDatabase random_db(std::uint64_t seed, std::size_t carriers = 4,
                               std::size_t cells_per_carrier = 40,
                               int max_visits = 3) {
  Rng rng(seed);
  core::ConfigDatabase db;
  for (std::size_t c = 0; c < carriers; ++c) {
    std::string name = "C";  // (not operator+: GCC 12 -Wrestrict false positive)
    name += std::to_string(c);
    for (std::size_t i = 0; i < cells_per_carrier; ++i) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(1'000'000));
      const auto rat = static_cast<spectrum::Rat>(rng.below(4));
      const auto channel = static_cast<std::uint32_t>(rng.below(66'000));
      const geo::Point pos{rng.uniform(-5e4, 5e4), rng.uniform(-5e4, 5e4)};
      const int visits = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(max_visits)));
      SimTime t{static_cast<Millis>(rng.below(1'000'000))};
      for (int v = 0; v < visits; ++v) {
        std::vector<config::ParamObservation> params;
        const int n = 1 + static_cast<int>(rng.below(6));
        for (int p = 0; p < n; ++p) {
          config::ParamObservation obs;
          obs.key = config::ParamKey{
              rat, static_cast<std::uint16_t>(rng.below(8))};
          obs.value = static_cast<double>(rng.below(5)) - 2.0;
          obs.context =
              rng.chance(0.3) ? static_cast<std::int64_t>(rng.below(100)) : -1;
          params.push_back(obs);
        }
        db.add_snapshot(name, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(1 + rng.below(1'000'000));
      }
    }
  }
  return db;
}

/// A small database exercising the cell codec's edge cases: extreme and
/// denormal doubles, huge coordinates, the largest cell id and context,
/// negative, zero and out-of-order timestamps, and three RATs.
core::ConfigDatabase edge_case_db() {
  core::ConfigDatabase db;
  const auto ps = config::lte_param(config::ParamId::kServingPriority);
  const auto pc = config::lte_param(config::ParamId::kNeighborPriority);
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{-123'456'789},
                  {{ps, std::numeric_limits<double>::denorm_min(), -1}});
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{0},
                  {{pc, -std::numeric_limits<double>::max(),
                    std::numeric_limits<std::int64_t>::max()}});
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{-5}, {{ps, -0.0, 0}});
  db.add_snapshot("X", 1, spectrum::Rat::kUmts, 4'294'967'294u, {-0.0, 0.1},
                  SimTime{std::numeric_limits<Millis>::max() / 2},
                  {{config::ParamKey{spectrum::Rat::kUmts, 2}, 0.1, -1}});
  db.add_snapshot("ZZ", 7, spectrum::Rat::kGsm, 850, {1e-300, -1e-300},
                  SimTime{42},
                  {{config::ParamKey{spectrum::Rat::kGsm, 0}, -7.25, -1}});
  return db;
}

/// Every cell of the store, streamed by whole-carrier direct folds.
core::ConfigDatabase fold_everything(const ShardSet& set) {
  const DirectFold direct(set);
  const QueryPlan plan(set, Query{});
  core::ConfigDatabase out;
  for (const auto& carrier : direct.carriers()) {
    const auto r = direct.fold_planned(
        plan, carrier, [&](std::uint32_t id, const core::CellRecord& rec) {
          out.upsert_cell(carrier, id) = rec;
        });
    EXPECT_TRUE(r.ok()) << r.error_message();
  }
  return out;
}

/// save_database -> ShardSet -> load_database, and -> a direct fold, must
/// each reproduce `db` bit-exactly.
WriteStats expect_round_trip(const core::ConfigDatabase& db,
                             const std::string& tag) {
  StoreDir dir("roundtrip_" + tag);
  // Tiny rotation targets so even a small database spans many blocks and
  // shards — the layout under test, not the happy single-block path.
  WriterOptions wopts;
  wopts.target_block_bytes = 1024;
  wopts.target_shard_bytes = 8192;
  const auto wstats = save_database(db, dir.path(), wopts);
  EXPECT_EQ(wstats.rows, db.total_samples()) << tag;

  auto set = ShardSet::open(dir.path());
  EXPECT_TRUE(set.ok()) << tag << ": " << set.error_message();
  if (!set.ok()) return wstats;
  const auto verified = set.value().verify();
  EXPECT_TRUE(verified.ok()) << tag << ": " << verified.error_message();

  core::ConfigDatabase loaded;
  const auto lstats = load_database(set.value(), loaded);
  EXPECT_TRUE(lstats.ok()) << tag << ": " << lstats.error_message();
  if (lstats.ok()) {
    EXPECT_EQ(lstats.value().rows, db.total_samples()) << tag;
  }
  EXPECT_EQ(loaded, db) << tag;
  EXPECT_EQ(fold_everything(set.value()), db) << tag;
  return wstats;
}

TEST(StoreRoundTrip, RandomDatabasesAreBitExact) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto wstats =
        expect_round_trip(random_db(seed), "seed" + std::to_string(seed));
    EXPECT_GT(wstats.shards, 1u) << "rotation targets too lax to test layout";
  }
}

// The binary dataset format is the v2 store: extreme and denormal values,
// maximal ids and unordered timestamps survive it bit-exactly.
TEST(DatasetBinary, ExtremeValuesRoundTrip) {
  expect_round_trip(edge_case_db(), "edge_cases");
}

TEST(StoreRoundTrip, LoadIsThreadCountInvariant) {
  StoreDir dir("threads");
  const auto db = random_db(77, 6, 60);
  WriterOptions wopts;
  wopts.target_block_bytes = 2048;
  wopts.target_shard_bytes = 16384;
  save_database(db, dir.path(), wopts);
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();

  core::ConfigDatabase serial;
  ASSERT_TRUE(load_database(set.value(), serial, 1).ok());
  EXPECT_EQ(serial, db);
  for (unsigned threads : {2u, 4u, 0u}) {
    core::ConfigDatabase parallel;
    ASSERT_TRUE(load_database(set.value(), parallel, threads).ok());
    EXPECT_EQ(parallel, serial) << "threads " << threads;
  }
}

// --- save_database: the parallel writer --------------------------------------

/// Every file of a store directory, by name.
std::map<std::string, std::vector<std::uint8_t>> store_files(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(read_file_bytes(entry.path().string(), bytes));
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

/// save_database on every thread count must write exactly the bytes of
/// the serial writer: ShardWriter fed each cell in (carrier, id) order.
void expect_serial_writer_bytes(const core::ConfigDatabase& db,
                                WriterOptions wopts, const std::string& tag) {
  StoreDir serial_dir("save_serial_" + tag);
  {
    ShardWriter writer(serial_dir.path(), wopts);
    for (const auto& [carrier, cells] : db.carriers())
      for (const auto& [id, rec] : cells) writer.add_cell(carrier, id, rec);
    writer.finish();
  }
  const auto expected = store_files(serial_dir.path());
  for (unsigned threads : {1u, 2u, 4u, 0u}) {
    StoreDir dir("save_" + tag + "_" + std::to_string(threads));
    const auto stats = save_database(db, dir.path(), wopts, threads);
    EXPECT_EQ(stats.rows, db.total_samples()) << tag;
    EXPECT_TRUE(store_files(dir.path()) == expected)
        << tag << ": threads " << threads << " changed the store's bytes";
  }
}

TEST(StoreWrite, SaveIsThreadCountInvariant) {
  // Tiny targets rotate blocks and shards inside one carrier and across
  // carriers; the default targets give one block per carrier.
  WriterOptions tiny;
  tiny.target_block_bytes = 700;
  tiny.target_shard_bytes = 5000;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto db = random_db(seed, 2 + seed, 30 + 10 * seed);
    StoreDir probe("save_probe");
    save_database(db, probe.path(), tiny, 3);
    auto set = ShardSet::open(probe.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    EXPECT_GT(set.value().manifest().shards.size(), 1u);
    EXPECT_GT(set.value().blocks().size(),
              2 * set.value().manifest().carriers.size());
    expect_serial_writer_bytes(db, tiny, "tiny" + std::to_string(seed));
    expect_serial_writer_bytes(db, {}, "default" + std::to_string(seed));
  }
  expect_serial_writer_bytes(edge_case_db(), tiny, "edge");
  expect_serial_writer_bytes(core::ConfigDatabase{}, {}, "empty");
}

TEST(StoreWrite, ParameterFirstSeenInALaterCarrier) {
  const auto ps = config::lte_param(config::ParamId::kServingPriority);
  const auto hs = config::lte_param(config::ParamId::kQHyst);
  const config::ParamKey umts{spectrum::Rat::kUmts, 2};
  core::ConfigDatabase db;
  for (std::uint32_t id = 1; id <= 20; ++id)
    db.add_snapshot("A", id, spectrum::Rat::kLte, 850, {1, 2}, SimTime{id},
                    {{ps, 1.0, -1}});
  for (std::uint32_t id = 1; id <= 20; ++id)
    db.add_snapshot("B", id, spectrum::Rat::kLte, 850, {1, 2}, SimTime{id},
                    {{ps, 2.0, -1}, {hs, 3.0, -1}});
  db.add_snapshot("C", 7, spectrum::Rat::kUmts, 10, {3, 4}, SimTime{5},
                  {{umts, 4.0, 1}, {hs, 5.0, -1}});
  StoreDir dir("save_first_seen");
  save_database(db, dir.path(), {}, 4);
  const auto manifest = read_manifest(dir.path());
  ASSERT_TRUE(manifest.ok()) << manifest.error_message();
  EXPECT_EQ(manifest.value().params,
            (std::vector<std::string>{config::param_name(ps),
                                      config::param_name(hs),
                                      config::param_name(umts)}));
  WriterOptions tiny;
  tiny.target_block_bytes = 64;
  tiny.target_shard_bytes = 256;
  expect_serial_writer_bytes(db, tiny, "first_seen");
}

TEST(StoreWrite, SingleCellCarriersAndObservationlessCells) {
  core::ConfigDatabase db = random_db(5, 3, 25);
  db.add_snapshot("Solo", 42, spectrum::Rat::kGsm, 850, {7, 8}, SimTime{1},
                  {{config::ParamKey{spectrum::Rat::kGsm, 1}, 9.0, -1}});
  auto& bare = db.upsert_cell("Bare", 3);  // a cell with no observations
  bare.cell_id = 3;
  bare.channel = 600;
  WriterOptions tiny;
  tiny.target_block_bytes = 300;
  tiny.target_shard_bytes = 1000;
  expect_serial_writer_bytes(db, tiny, "single_cell");
  expect_serial_writer_bytes(db, {}, "single_cell_default");
}

TEST(StoreWrite, TwoByteParameterIndexes) {
  // Over 128 distinct parameters: later table indexes take two varint
  // bytes, so the writer must size cells with the real table.
  Rng rng(8);
  core::ConfigDatabase db;
  for (std::uint32_t id = 1; id <= 60; ++id) {
    std::vector<config::ParamObservation> params;
    for (int p = 0; p < 6; ++p)
      params.push_back({config::ParamKey{spectrum::Rat::kUmts,
                                         static_cast<std::uint16_t>(
                                             10 + rng.below(300))},
                        static_cast<double>(p), -1});
    std::string carrier = "K";
    carrier += std::to_string(id % 3);
    db.add_snapshot(carrier, id, spectrum::Rat::kUmts, 10, {0, 0},
                    SimTime{id}, params);
  }
  StoreDir dir("save_two_byte");
  save_database(db, dir.path(), {}, 2);
  const auto manifest = read_manifest(dir.path());
  ASSERT_TRUE(manifest.ok()) << manifest.error_message();
  ASSERT_GT(manifest.value().params.size(), 128u);
  WriterOptions tiny;
  tiny.target_block_bytes = 200;
  tiny.target_shard_bytes = 900;
  expect_serial_writer_bytes(db, tiny, "two_byte");
  expect_round_trip(db, "two_byte");
}

TEST(StoreWrite, EncodedSizeMatchesTheEncoder) {
  for (const auto& db : {random_db(3), edge_case_db()}) {
    for (const std::uint32_t base : {0u, 127u, 16'383u, 2'097'151u}) {
      mmds::ParamIndexMap params;
      std::uint32_t next = base;
      for (const auto& [carrier, cells] : db.carriers())
        for (const auto& [id, rec] : cells)
          for (const auto& obs : rec.observations) params.set(obs.key, next++);
      for (const auto& [carrier, cells] : db.carriers())
        for (const auto& [id, rec] : cells) {
          ByteWriter out;
          mmds::encode_cell(out, id, rec, params);
          EXPECT_EQ(mmds::encoded_size(id, rec, params), out.size())
              << carrier << "/" << id << " base " << base;
        }
    }
  }
}

/// Replays a database's snapshots (carrier name order, cells ascending,
/// observations in time order) into a StreamingDatasetSink — the same
/// per-cell nondecreasing-time contract the generator satisfies.
WriteStats replay_into_sink(const core::ConfigDatabase& db,
                            StreamingDatasetSink& sink) {
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& [id, rec] : cells) {
      // Group the flat observation list back into snapshots: the encoder
      // stored them in arrival order, so consecutive equal timestamps of
      // one visit stay adjacent.
      std::size_t i = 0;
      while (i < rec.observations.size()) {
        std::size_t j = i;
        std::vector<config::ParamObservation> params;
        while (j < rec.observations.size() &&
               rec.observations[j].t == rec.observations[i].t) {
          params.push_back({rec.observations[j].key, rec.observations[j].value,
                            rec.observations[j].context});
          ++j;
        }
        sink.snapshot(carrier, id, rec.rat, rec.channel, rec.position,
                      rec.observations[i].t, params);
        i = j;
      }
    }
  }
  return sink.finish();
}

TEST(StoreRoundTrip, ChunkSizeNeverChangesTheStore) {
  // The spill contract: any chunk size yields a store that loads back to
  // the identical database (visit-grouped replay keeps per-cell times
  // nondecreasing, the documented sufficient condition).
  Rng rng(99);
  core::ConfigDatabase reference_db = random_db(13, 3, 30);
  core::ConfigDatabase first_loaded;
  bool have_first = false;
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t chunk_rows =
        trial == 0 ? 1 : 1 + rng.below(400);  // 1 = spill every snapshot
    StoreDir dir("chunk_" + std::to_string(trial));
    WriterOptions wopts;
    wopts.target_block_bytes = 1536;
    wopts.target_shard_bytes = 8192;
    ShardWriter writer(dir.path(), wopts);
    StreamingDatasetSink sink(writer, chunk_rows);
    replay_into_sink(reference_db, sink);

    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    core::ConfigDatabase loaded;
    ASSERT_TRUE(load_database(set.value(), loaded, 1 + trial % 3).ok());
    EXPECT_EQ(loaded, reference_db) << "chunk_rows " << chunk_rows;
    if (!have_first) {
      first_loaded = loaded;
      have_first = true;
    } else {
      EXPECT_EQ(loaded, first_loaded);
    }
  }
}

TEST(StoreColumnar, ChunkedStreamFromGeneratorMatchesDirectDatabase) {
  // End to end on real generated data: stream_world -> chunked v2 store ->
  // shard-direct folds must answer the analysis queries exactly like a
  // database assembled by add_snapshot-ing the identical stream.
  class Both final : public netgen::SnapshotSink {
   public:
    Both(StreamingDatasetSink& sink, core::ConfigDatabase& db)
        : sink_(sink), db_(db) {}
    void snapshot(const std::string& carrier, net::CellId cell_id,
                  spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                  SimTime t,
                  const std::vector<config::ParamObservation>& params) override {
      sink_.snapshot(carrier, cell_id, rat, channel, position, t, params);
      db_.add_snapshot(carrier, cell_id, rat, channel, position, t, params);
    }

   private:
    StreamingDatasetSink& sink_;
    core::ConfigDatabase& db_;
  };

  StoreDir dir("stream");
  core::ConfigDatabase db;
  WriterOptions wopts;
  wopts.target_block_bytes = 4096;
  wopts.target_shard_bytes = 32768;
  ShardWriter writer(dir.path(), wopts);
  StreamingDatasetSink sink(writer, 500);  // many chunks
  Both both(sink, db);
  netgen::StreamWorldOptions gopts;
  gopts.seed = 5;
  gopts.scale = 0.02;
  gopts.visits_per_cell = 3;
  const auto gstats = netgen::stream_world(gopts, both);
  const auto wstats = sink.finish();
  EXPECT_EQ(wstats.rows, gstats.rows);
  EXPECT_EQ(db.total_samples(), gstats.rows);

  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  core::ConfigDatabase loaded;
  ASSERT_TRUE(load_database(set.value(), loaded, 2).ok());
  EXPECT_EQ(loaded, db);

  FoldOptions fopts;
  fopts.threads = 2;
  const DirectFold direct(set.value(), fopts);
  const core::ColumnarView reference(db, 1);
  for (const auto& carrier : reference.carriers()) {
    const auto ref_div = core::diversity_by_param(reference, carrier.name);
    const auto div = store::diversity_by_param(direct, carrier.name);
    ASSERT_TRUE(div.ok()) << div.error_message();
    const auto& ooc_div = div.value();
    ASSERT_EQ(ref_div.size(), ooc_div.size()) << carrier.name;
    for (std::size_t i = 0; i < ref_div.size(); ++i) {
      EXPECT_EQ(ref_div[i].key, ooc_div[i].key);
      EXPECT_EQ(ref_div[i].measures.richness, ooc_div[i].measures.richness);
      EXPECT_EQ(ref_div[i].cells, ooc_div[i].cells);
    }
    const auto pri = store::priority_by_channel(direct, carrier.name, false);
    ASSERT_TRUE(pri.ok()) << pri.error_message();
    EXPECT_EQ(core::priority_by_channel(reference, carrier.name, false, 1),
              pri.value());
  }
}

// --- corruption ---------------------------------------------------------------

void populate_store(const StoreDir& dir, std::string* manifest_path,
                    std::string* shard_path) {
  const auto db = random_db(31, 2, 20);
  save_database(db, dir.path());
  *manifest_path =
      (fs::path(dir.path()) / kMmds2ManifestName).string();
  *shard_path = (fs::path(dir.path()) / "shard-0000.mmds2").string();
}

void flip_byte(const std::string& path, std::size_t offset_from_end) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, offset_from_end);
  const auto pos = static_cast<std::streamoff>(size - 1 - offset_from_end);
  f.seekg(pos);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(pos);
  f.write(&b, 1);
}

TEST(StoreManifest, RejectsBadMagic) {
  StoreDir dir("corrupt_magic");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  {
    std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, RejectsCorruptedManifest) {
  StoreDir dir("corrupt_mancrc");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  flip_byte(manifest, 10);  // inside the payload; the CRC trailer catches it
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, VerifyCatchesShardBitFlip) {
  StoreDir dir("corrupt_shardcrc");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  flip_byte(shard, 5);
  auto set = ShardSet::open(dir.path());
  // Open maps and size-checks only; the payload CRC is verify()'s job.
  ASSERT_TRUE(set.ok()) << set.error_message();
  EXPECT_FALSE(set.value().verify().ok());
}

TEST(StoreManifest, RejectsTruncatedShard) {
  StoreDir dir("corrupt_trunc");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  fs::resize_file(shard, fs::file_size(shard) - 1);
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, RejectsMissingShard) {
  StoreDir dir("corrupt_missing");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  fs::remove(shard);
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, RejectsEscapingShardFilename) {
  Manifest m;
  m.carriers = {"C"};
  ShardInfo shard;
  shard.filename = "../evil.mmds2";
  shard.file_size = 8;
  m.shards.push_back(shard);
  StoreDir dir("escape");
  fs::create_directories(dir.path());
  write_manifest(dir.path(), m);
  auto r = read_manifest(dir.path());
  EXPECT_FALSE(r.ok());
}

TEST(StoreManifest, RejectsUnknownParamNameWithValidCrc) {
  StoreDir dir("unknown_param");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file_bytes(manifest, bytes));
  // Patch the first param-table entry to an unknown name of equal length,
  // then fix up the CRC trailer so only the name is wrong.
  auto m = read_manifest(dir.path());
  ASSERT_TRUE(m.ok()) << m.error_message();
  const std::string& name = m.value().params.front();
  auto it = std::search(bytes.begin(), bytes.end(), name.begin(), name.end());
  ASSERT_NE(it, bytes.end());
  *it = '?';
  const std::size_t payload = bytes.size() - 2;
  const std::uint16_t crc = crc16_ccitt(bytes.data(), payload);
  bytes[payload] = static_cast<std::uint8_t>(crc & 0xFF);
  bytes[payload + 1] = static_cast<std::uint8_t>(crc >> 8);
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const auto r = ShardSet::open(dir.path());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("parameter"), std::string::npos)
      << r.error_message();
}

TEST(StoreLoad, EveryCorruptedBlockByteIsDetected) {
  // load_database checks each block body's CRC before parsing it: one
  // flipped byte anywhere in any block fails the whole load, even where the
  // damaged bytes would still parse (a value payload, say).
  StoreDir dir("load_corrupt");
  const auto db = random_db(37, 2, 8, 2);
  WriterOptions wopts;
  wopts.target_block_bytes = 256;
  wopts.target_shard_bytes = 1024;
  save_database(db, dir.path(), wopts);
  auto probe = ShardSet::open(dir.path());
  ASSERT_TRUE(probe.ok()) << probe.error_message();
  ASSERT_GT(probe.value().blocks().size(), 2u);
  ASSERT_GT(probe.value().manifest().shards.size(), 1u);

  std::size_t flipped = 0;
  for (const auto& ref : probe.value().blocks()) {
    const auto path =
        (fs::path(dir.path()) /
         probe.value().manifest().shards[ref.shard].filename)
            .string();
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    const auto flip = [&f](std::uint64_t pos) {
      char b = 0;
      f.seekg(static_cast<std::streamoff>(pos));
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x5A);
      f.seekp(static_cast<std::streamoff>(pos));
      f.write(&b, 1);
      f.flush();
    };
    for (std::uint64_t i = 0; i < ref.info->length; ++i) {
      const std::uint64_t pos = ref.info->offset + i;
      flip(pos);
      auto set = ShardSet::open(dir.path());
      ASSERT_TRUE(set.ok()) << set.error_message();
      core::ConfigDatabase loaded;
      const auto r = load_database(set.value(), loaded, 1 + i % 2);
      EXPECT_FALSE(r.ok()) << "undetected corruption at " << path << "+"
                           << pos;
      flip(pos);  // restore
      ++flipped;
    }
  }
  EXPECT_GT(flipped, 500u);

  // Every flip was undone: the store loads back to the original.
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  core::ConfigDatabase loaded;
  ASSERT_TRUE(load_database(set.value(), loaded).ok());
  EXPECT_EQ(loaded, db);
}

TEST(StoreFormat, DirectoryDetectsAsMmds2) {
  StoreDir dir("corrupt_detect");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  for (const auto& path : {dir.path(), manifest}) {
    const auto format = detect_dataset_format(path);
    ASSERT_TRUE(format.ok()) << format.error_message();
    EXPECT_EQ(format.value(), DatasetFormat::kMmds2) << path;
  }
}

TEST(StoreFormat, BareManifestPathOpensItsStore) {
  // detect_dataset_format sniffs both spellings as a store, so both must
  // open it: a path naming manifest.mmds2 resolves to its directory.
  StoreDir dir("bare_manifest");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  EXPECT_EQ(store_directory(manifest), dir.path());
  EXPECT_EQ(store_directory(dir.path()), dir.path());
  auto by_dir = ShardSet::open(dir.path());
  auto by_manifest = ShardSet::open(manifest);
  ASSERT_TRUE(by_dir.ok()) << by_dir.error_message();
  ASSERT_TRUE(by_manifest.ok()) << by_manifest.error_message();
  EXPECT_EQ(by_manifest.value().dir(), dir.path());
  EXPECT_TRUE(by_manifest.value().verify().ok());
  core::ConfigDatabase a, b;
  ASSERT_TRUE(load_database(by_dir.value(), a).ok());
  ASSERT_TRUE(load_database(by_manifest.value(), b).ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, random_db(31, 2, 20));
}

TEST(StoreFormat, OtherMmdsVersionsFailNamingTheVersion) {
  // A file with the MMDS magic and another version byte — the retired v1
  // single file among them — is an error, never CSV input.
  StoreDir dir("v1_file");
  fs::create_directories(dir.path());
  const auto path = (fs::path(dir.path()) / "old.mmds").string();
  for (const std::uint8_t version : {1, 3}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(kMmdsMagic), sizeof(kMmdsMagic));
      const char tail[] = {static_cast<char>(version), 0, 0, 0};
      out.write(tail, sizeof(tail));
    }
    const auto format = detect_dataset_format(path);
    ASSERT_FALSE(format.ok()) << "version " << int{version};
    EXPECT_NE(format.error_message().find("unsupported MMDS version " +
                                          std::to_string(version)),
              std::string::npos)
        << format.error_message();
  }
  // Anything without the magic is left to the CSV loader.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "carrier,cell_id\n";
  }
  const auto csv = detect_dataset_format(path);
  ASSERT_TRUE(csv.ok()) << csv.error_message();
  EXPECT_EQ(csv.value(), DatasetFormat::kCsv);
}

// --- streaming generator ------------------------------------------------------

TEST(StreamGen, MatchesGenerateWorld) {
  // Determinism contract: the streamed cells are generate_world's cells —
  // same ids, channels, positions; and for cells with no reconfiguration
  // before their first visit, the first snapshot's parameters are exactly
  // extract_parameters of the generated config.
  netgen::WorldOptions wopts;
  wopts.seed = 11;
  wopts.scale = 0.02;
  const auto world = netgen::generate_world(wopts);

  struct Rec {
    std::uint32_t channel;
    spectrum::Rat rat;
    geo::Point pos;
    SimTime t;
    std::vector<config::ParamObservation> params;
  };
  class Recorder final : public netgen::SnapshotSink {
   public:
    std::map<net::CellId, Rec> first;
    std::size_t snapshots = 0;
    void snapshot(const std::string&, net::CellId cell_id, spectrum::Rat rat,
                  std::uint32_t channel, geo::Point position, SimTime t,
                  const std::vector<config::ParamObservation>& params) override {
      ++snapshots;
      first.emplace(cell_id, Rec{channel, rat, position, t, params});
    }
  };

  Recorder rec;
  netgen::StreamWorldOptions gopts;
  gopts.seed = wopts.seed;
  gopts.scale = wopts.scale;
  gopts.visits_per_cell = 2;
  const auto stats = netgen::stream_world(gopts, rec);
  ASSERT_EQ(stats.cells, world.network.cells().size());
  EXPECT_EQ(stats.snapshots, rec.snapshots);
  EXPECT_EQ(stats.snapshots, stats.cells * 2);

  std::size_t pristine_checked = 0;
  for (std::size_t i = 0; i < world.network.cells().size(); ++i) {
    const auto& cell = world.network.cells()[i];
    const auto it = rec.first.find(cell.id);
    ASSERT_NE(it, rec.first.end()) << "cell " << cell.id << " never streamed";
    EXPECT_EQ(it->second.channel, cell.channel.number);
    EXPECT_EQ(it->second.rat, cell.channel.rat);
    EXPECT_EQ(it->second.pos.x, cell.position.x);
    EXPECT_EQ(it->second.pos.y, cell.position.y);

    const auto& schedule = world.update_schedule[i];
    const bool pristine =
        schedule.empty() ||
        SimTime::from_days(schedule.front().day) > it->second.t;
    if (!pristine) continue;
    ++pristine_checked;
    const auto expected =
        cell.is_lte() ? config::extract_parameters(cell.lte_config)
                      : config::extract_parameters(cell.legacy_config);
    ASSERT_EQ(it->second.params.size(), expected.size()) << "cell " << cell.id;
    for (std::size_t p = 0; p < expected.size(); ++p) {
      EXPECT_EQ(it->second.params[p].key, expected[p].key);
      EXPECT_EQ(it->second.params[p].value, expected[p].value);
      EXPECT_EQ(it->second.params[p].context, expected[p].context);
    }
  }
  EXPECT_GT(pristine_checked, stats.cells / 2);
}

TEST(StreamGen, VisitCountDoesNotPerturbTheWorld) {
  // Visit times draw from an independent stream: the set of cells and
  // their first-visit configs are identical whatever visits_per_cell is.
  class IdsOnly final : public netgen::SnapshotSink {
   public:
    std::map<net::CellId, std::uint32_t> channel_of;
    void snapshot(const std::string&, net::CellId cell_id, spectrum::Rat,
                  std::uint32_t channel, geo::Point, SimTime,
                  const std::vector<config::ParamObservation>&) override {
      channel_of.emplace(cell_id, channel);
    }
  };
  netgen::StreamWorldOptions gopts;
  gopts.seed = 9;
  gopts.scale = 0.01;
  gopts.visits_per_cell = 1;
  IdsOnly one;
  netgen::stream_world(gopts, one);
  gopts.visits_per_cell = 4;
  IdsOnly four;
  netgen::stream_world(gopts, four);
  EXPECT_EQ(one.channel_of, four.channel_of);
}

}  // namespace
}  // namespace mmlab::store
