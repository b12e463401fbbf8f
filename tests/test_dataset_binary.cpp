// MMDS v1 binary dataset format: round-trip properties (crawl == reloaded,
// re-save byte-identical) and malformed-input rejection (bad magic, wrong
// version, truncation, corruption, mid-varint damage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "mmlab/core/dataset_io.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"

namespace mmlab::core {
namespace {

using config::ParamId;

ConfigDatabase crawled_db() {
  auto world = netgen::generate_world({.seed = 3, .scale = 0.01});
  sim::CrawlOptions copts;
  auto crawl = sim::run_crawl(world, copts);
  ConfigDatabase db;
  for (const auto& log : crawl.logs)
    extract_configs(log.acronym, log.diag_log, db);
  return db;
}

/// A small database exercising the encoder's edge cases: extreme and
/// denormal doubles, huge coordinates, negative/zero/out-of-order
/// timestamps, multiple RATs, large ids and contexts.
ConfigDatabase edge_case_db() {
  ConfigDatabase db;
  const auto ps = config::lte_param(ParamId::kServingPriority);
  const auto pc = config::lte_param(ParamId::kNeighborPriority);
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{-123'456'789},
                  {{ps, std::numeric_limits<double>::denorm_min(), -1}});
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{0},
                  {{pc, -std::numeric_limits<double>::max(),
                    std::numeric_limits<std::int64_t>::max()}});
  db.add_snapshot("X", 1, spectrum::Rat::kUmts, 4'294'967'294u, {-0.0, 0.1},
                  SimTime{std::numeric_limits<Millis>::max() / 2},
                  {{config::ParamKey{spectrum::Rat::kUmts, 2}, 0.1, -1}});
  db.add_snapshot("ZZ", 7, spectrum::Rat::kGsm, 850, {1e-300, -1e-300},
                  SimTime{42},
                  {{config::ParamKey{spectrum::Rat::kGsm, 0}, -7.25, -1}});
  return db;
}

TEST(DatasetBinary, RoundTripIsExact) {
  const auto db = crawled_db();
  std::vector<std::uint8_t> bytes;
  save_dataset_binary(db, bytes);

  ConfigDatabase loaded;
  const auto stats = load_dataset_binary(bytes.data(), bytes.size(), loaded);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(stats.value().rows, db.total_samples());
  EXPECT_EQ(stats.value().bad_rows, 0u);
  // The whole database round-trips bit-exactly, not just its statistics.
  EXPECT_EQ(loaded, db);
}

TEST(DatasetBinary, ResaveIsByteIdentical) {
  const auto db = crawled_db();
  std::vector<std::uint8_t> first;
  save_dataset_binary(db, first);
  ConfigDatabase loaded;
  ASSERT_TRUE(load_dataset_binary(first.data(), first.size(), loaded).ok());
  std::vector<std::uint8_t> second;
  save_dataset_binary(loaded, second);
  EXPECT_EQ(first, second);
}

TEST(DatasetBinary, ExtremeValuesRoundTrip) {
  const auto db = edge_case_db();
  std::vector<std::uint8_t> bytes;
  save_dataset_binary(db, bytes);
  ConfigDatabase loaded;
  const auto stats = load_dataset_binary(bytes.data(), bytes.size(), loaded);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(loaded, db);
}

TEST(DatasetBinary, ParallelLoadMatchesSerial) {
  const auto db = crawled_db();
  std::vector<std::uint8_t> bytes;
  save_dataset_binary(db, bytes);
  ConfigDatabase serial, sharded;
  ASSERT_TRUE(load_dataset_binary(bytes.data(), bytes.size(), serial, 1).ok());
  const auto stats = load_dataset_binary(bytes.data(), bytes.size(), sharded, 4);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(stats.value().rows, db.total_samples());
  EXPECT_EQ(sharded, serial);
}

TEST(DatasetBinary, FileRoundTrip) {
  const auto db = crawled_db();
  const auto path =
      (std::filesystem::temp_directory_path() / "mmlab_dataset_test.mmds")
          .string();
  save_dataset_binary(db, path);
  EXPECT_EQ(detect_dataset_format(path), DatasetFormat::kBinary);

  // The streamed file is identical to the in-memory serialization.
  std::vector<std::uint8_t> streamed, in_memory;
  ASSERT_TRUE(read_file_bytes(path, streamed));
  save_dataset_binary(db, in_memory);
  EXPECT_EQ(streamed, in_memory);

  ConfigDatabase loaded;
  const auto stats = load_dataset_any(path, loaded);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(loaded, db);
  std::filesystem::remove(path);
}

TEST(DatasetBinary, SaveToAFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(save_dataset_binary(edge_case_db(), "/dev/full"),
               std::runtime_error);
}

// --- malformed input ---------------------------------------------------------

std::vector<std::uint8_t> valid_image() {
  std::vector<std::uint8_t> bytes;
  save_dataset_binary(edge_case_db(), bytes);
  return bytes;
}

/// Re-stamp the trailing CRC so damage *before* it reaches the parser
/// instead of tripping the checksum.
void restamp_crc(std::vector<std::uint8_t>& bytes) {
  const std::uint16_t crc = crc16_ccitt(bytes.data(), bytes.size() - 2);
  bytes[bytes.size() - 2] = static_cast<std::uint8_t>(crc & 0xFF);
  bytes[bytes.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
}

bool load_fails(const std::vector<std::uint8_t>& bytes,
                std::string* message = nullptr) {
  ConfigDatabase db;
  const auto r = load_dataset_binary(bytes.data(), bytes.size(), db);
  if (message) *message = r.ok() ? "" : r.error_message();
  return !r.ok();
}

TEST(DatasetBinaryMalformed, TruncatedHeader) {
  auto bytes = valid_image();
  bytes.resize(3);  // not even the magic survives
  EXPECT_TRUE(load_fails(bytes));
}

TEST(DatasetBinaryMalformed, BadMagic) {
  auto bytes = valid_image();
  bytes[0] = 'X';
  std::string msg;
  EXPECT_TRUE(load_fails(bytes, &msg));
  EXPECT_NE(msg.find("magic"), std::string::npos) << msg;
}

TEST(DatasetBinaryMalformed, WrongVersion) {
  auto bytes = valid_image();
  bytes[4] = kMmdsVersion + 1;
  restamp_crc(bytes);
  std::string msg;
  EXPECT_TRUE(load_fails(bytes, &msg));
  EXPECT_NE(msg.find("version"), std::string::npos) << msg;
}

TEST(DatasetBinaryMalformed, TruncatedFileFailsCrc) {
  auto bytes = valid_image();
  bytes.resize(bytes.size() - 10);
  std::string msg;
  EXPECT_TRUE(load_fails(bytes, &msg));
  EXPECT_NE(msg.find("CRC"), std::string::npos) << msg;
}

TEST(DatasetBinaryMalformed, EveryCorruptedByteIsDetected) {
  const auto pristine = valid_image();
  // Flip one byte at a time across the whole image (it is small): the CRC
  // (or, for trailer bytes, the comparison itself) must catch every one.
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    auto bytes = pristine;
    bytes[i] ^= 0x5A;
    ConfigDatabase db;
    const auto r = load_dataset_binary(bytes.data(), bytes.size(), db);
    EXPECT_FALSE(r.ok()) << "undetected corruption at byte " << i;
  }
}

TEST(DatasetBinaryMalformed, MidVarintTruncationWithValidCrc) {
  // A structurally truncated body whose CRC is correct: magic + version +
  // flags + a carrier count varint that promises more bytes than exist.
  std::vector<std::uint8_t> bytes(kMmdsMagic, kMmdsMagic + 4);
  bytes.push_back(kMmdsVersion);
  bytes.push_back(0);     // flags
  bytes.push_back(0x80);  // varint with continuation bit, then EOF
  bytes.push_back(0);     // CRC placeholder
  bytes.push_back(0);
  restamp_crc(bytes);
  std::string msg;
  EXPECT_TRUE(load_fails(bytes, &msg));
  EXPECT_NE(msg.find("varint"), std::string::npos) << msg;
}

TEST(DatasetBinaryMalformed, UnknownParamNameWithValidCrc) {
  auto db = edge_case_db();
  std::vector<std::uint8_t> bytes;
  save_dataset_binary(db, bytes);
  // Patch the first param-table entry to an unknown name of equal length.
  const std::string original = config::param_name(
      config::lte_param(ParamId::kServingPriority));
  auto it = std::search(bytes.begin(), bytes.end(), original.begin(),
                        original.end());
  ASSERT_NE(it, bytes.end());
  *it = '?';
  restamp_crc(bytes);
  std::string msg;
  EXPECT_TRUE(load_fails(bytes, &msg));
  EXPECT_NE(msg.find("parameter"), std::string::npos) << msg;
}

TEST(DatasetBinaryMalformed, MissingFile) {
  ConfigDatabase db;
  EXPECT_FALSE(load_dataset_binary("/nonexistent/path/x.mmds", db).ok());
}

}  // namespace
}  // namespace mmlab::core
