#include "mmlab/store/shard_writer.hpp"

#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "mmlab/util/crc.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::store {

namespace {

std::string shard_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu.mmds2", index);
  return buf;
}

}  // namespace

// --- BlockAppender -----------------------------------------------------------

BlockAppender::BlockAppender(std::string dir, WriterOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("store writer: cannot create " + dir_ + ": " +
                             ec.message());
}

void BlockAppender::append(BlockInfo info, const std::uint8_t* body) {
  if (shard_ && shard_->bytes_written() >= options_.target_shard_bytes)
    close_shard();
  if (!shard_) {
    const std::string name = shard_name(manifest_.shards.size());
    shard_ = std::make_unique<BufferedFileWriter>(
        (std::filesystem::path(dir_) / name).string());
    shard_->write(kShardMagic, sizeof(kShardMagic));
    manifest_.shards.push_back({name, 0, 0, {}});
  }
  info.offset = shard_->bytes_written();
  shard_->write_checksummed(body, static_cast<std::size_t>(info.length),
                            info.crc16);
  manifest_.shards.back().blocks.push_back(info);
  stats_.rows += info.row_count;
  stats_.cells += info.cell_count;
  ++stats_.blocks;
}

void BlockAppender::close_shard() {
  if (!shard_) return;
  ShardInfo& info = manifest_.shards.back();
  info.file_size = shard_->bytes_written();
  info.crc16 = shard_->crc16();
  stats_.bytes += info.file_size;
  shard_->close();
  shard_.reset();
}

WriteStats BlockAppender::finish() {
  if (finished_) return stats_;
  close_shard();
  stats_.shards = manifest_.shards.size();
  write_manifest(dir_, manifest_);
  finished_ = true;
  return stats_;
}

// --- ShardWriter -------------------------------------------------------------

ShardWriter::ShardWriter(std::string dir, WriterOptions options)
    : options_(options), out_(std::move(dir), options) {}

void ShardWriter::add_cell(const std::string& carrier, std::uint32_t id,
                           const core::CellRecord& rec) {
  if (finished_) throw std::logic_error("ShardWriter: add_cell after finish");
  Manifest& manifest = out_.manifest();
  const auto [cit, new_carrier] =
      carrier_index_.try_emplace(carrier, manifest.carriers.size());
  if (new_carrier) manifest.carriers.push_back(carrier);
  for (const auto& obs : rec.observations) {
    if (seen_params_.insert(obs.key).second) {
      param_index_.set(obs.key,
                       static_cast<std::uint32_t>(manifest.params.size()));
      manifest.params.push_back(config::param_name(obs.key));
    }
  }

  // A carrier switch or a non-ascending id means a new run; readers rely on
  // ids ascending *within* a block to drive the k-way cell merge.
  if (in_block_ &&
      (block_carrier_ != cit->second || id <= last_id_ ||
       block_.size() >= options_.target_block_bytes))
    flush_block();
  if (!in_block_) {
    in_block_ = true;
    block_carrier_ = cit->second;
    block_first_id_ = id;
    block_cells_ = 0;
    block_rows_ = 0;
  }
  mmds::encode_cell(block_, id, rec, param_index_);
  last_id_ = id;
  ++block_cells_;
  block_rows_ += rec.observations.size();
}

void ShardWriter::flush_block() {
  if (!in_block_) return;
  BlockInfo info;
  info.carrier_index = block_carrier_;
  info.length = block_.size();
  info.cell_count = block_cells_;
  info.row_count = block_rows_;
  info.crc16 = crc16_ccitt(block_.buffer().data(), block_.size());
  info.first_cell = block_first_id_;
  info.last_cell = last_id_;
  out_.append(info, block_.buffer().data());
  block_.clear();
  in_block_ = false;
}

WriteStats ShardWriter::finish() {
  if (!finished_) flush_block();
  finished_ = true;
  return out_.finish();
}

// --- StreamingDatasetSink ----------------------------------------------------

StreamingDatasetSink::StreamingDatasetSink(ShardWriter& writer,
                                           std::size_t chunk_rows)
    : writer_(writer), chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {}

void StreamingDatasetSink::snapshot(
    const std::string& carrier, std::uint32_t cell_id, spectrum::Rat rat,
    std::uint32_t channel, geo::Point position, SimTime t,
    const std::vector<config::ParamObservation>& params) {
  chunk_.add_snapshot(carrier, cell_id, rat, channel, position, t, params);
  buffered_rows_ += params.size();
  if (buffered_rows_ >= chunk_rows_) flush();
}

void StreamingDatasetSink::flush() {
  for (const auto& [carrier, cells] : chunk_.carriers())
    for (const auto& [id, rec] : cells) writer_.add_cell(carrier, id, rec);
  chunk_ = core::ConfigDatabase{};
  buffered_rows_ = 0;
}

WriteStats StreamingDatasetSink::finish() {
  flush();
  return writer_.finish();
}

// --- save_database -----------------------------------------------------------

namespace {

using CellMap = core::ConfigDatabase::CellMap;

/// One carrier's parameters in first-sight order, and each cell's encoded
/// size (ascending id) — exact once the parameter table is known to fit
/// one-byte indexes (see save_database).
struct CarrierScan {
  std::vector<config::ParamKey> first_seen;
  std::vector<std::size_t> cell_bytes;
};

/// Every index 0: sizes cells as if each parameter index were one varint
/// byte, as it is whenever the whole table has at most 128 entries.
const mmds::ParamIndexMap& one_byte_indexes() {
  static const mmds::ParamIndexMap zeros;
  return zeros;
}

CarrierScan scan_carrier(const CellMap& cells) {
  constexpr std::size_t kSlots = (std::size_t{mmds::kMaxRat} + 1) << 16;
  std::vector<std::uint64_t> seen(kSlots / 64);
  CarrierScan scan;
  scan.cell_bytes.reserve(cells.size());
  for (const auto& [id, rec] : cells) {
    for (const auto& obs : rec.observations) {
      const std::size_t slot =
          (static_cast<std::size_t>(obs.key.rat) << 16) | obs.key.id;
      const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
      if (seen[slot / 64] & bit) continue;
      seen[slot / 64] |= bit;
      scan.first_seen.push_back(obs.key);
    }
    // While the cell is still in cache.
    scan.cell_bytes.push_back(mmds::encoded_size(id, rec, one_byte_indexes()));
  }
  return scan;
}

/// `cells` consecutive cells of one carrier starting at `first`, whose
/// encodings add up to exactly `bytes`.
struct PlannedBlock {
  CellMap::const_iterator first;
  std::uint32_t carrier_index = 0;
  std::uint64_t cells = 0;
  std::uint64_t rows = 0;
  std::size_t bytes = 0;
  std::uint32_t first_cell = 0;
  std::uint32_t last_cell = 0;
};

/// Cut one carrier's cells into blocks where ShardWriter::add_cell would:
/// a block closes before the next cell once its body holds `target` bytes.
void plan_blocks(std::uint32_t carrier_index, const CellMap& cells,
                 const std::vector<std::size_t>& cell_bytes,
                 std::size_t target, std::vector<PlannedBlock>& blocks) {
  const std::size_t first_block = blocks.size();
  std::size_t i = 0;
  for (auto it = cells.begin(); it != cells.end(); ++it, ++i) {
    if (blocks.size() == first_block || blocks.back().bytes >= target) {
      blocks.emplace_back();
      blocks.back().first = it;
      blocks.back().carrier_index = carrier_index;
      blocks.back().first_cell = it->first;
    }
    PlannedBlock& b = blocks.back();
    b.bytes += cell_bytes[i];
    ++b.cells;
    b.rows += it->second.observations.size();
    b.last_cell = it->first;
  }
}

/// One encoded block waiting for the calling thread to append it.
struct EncodedBlock {
  ByteWriter body;  ///< capacity is reused by the slot's later blocks
  std::uint16_t crc16 = 0;
  std::exception_ptr error;
  bool ready = false;  ///< guarded by the pipeline mutex
};

void encode_block(const PlannedBlock& plan, const mmds::ParamIndexMap& params,
                  EncodedBlock& out) {
  out.body.clear();
  out.body.reserve(plan.bytes);
  auto it = plan.first;
  for (std::uint64_t i = 0; i < plan.cells; ++i, ++it)
    mmds::encode_cell(out.body, it->first, it->second, params);
  if (out.body.size() != plan.bytes)
    throw std::logic_error(
        "save_database: mmds::encoded_size disagrees with encode_cell");
  out.crc16 = crc16_ccitt(out.body.buffer().data(), out.body.size());
}

}  // namespace

WriteStats save_database(const core::ConfigDatabase& db,
                         const std::string& dir, WriterOptions options,
                         unsigned threads) {
  if (threads == 0) threads = WorkerPool::default_thread_count();
  BlockAppender out(dir, options);
  Manifest& manifest = out.manifest();

  // Only carriers with cells get an index, as in ShardWriter.
  std::vector<const CellMap*> carriers;
  for (const auto& [name, cells] : db.carriers()) {
    if (cells.empty()) continue;
    manifest.carriers.push_back(name);
    carriers.push_back(&cells);
  }

  // 1. The parameter table, and the cells' sizes.
  std::vector<CarrierScan> scans(carriers.size());
  parallel_for_index(threads, carriers.size(), [&](std::size_t c) {
    scans[c] = scan_carrier(*carriers[c]);
  });
  mmds::ParamIndexMap param_index;
  std::set<config::ParamKey> indexed;
  for (const auto& scan : scans)
    for (const auto key : scan.first_seen)
      if (indexed.insert(key).second) {
        param_index.set(key, static_cast<std::uint32_t>(manifest.params.size()));
        manifest.params.push_back(config::param_name(key));
      }
  if (manifest.params.size() > 128)  // some index takes two varint bytes
    parallel_for_index(threads, carriers.size(), [&](std::size_t c) {
      std::size_t i = 0;
      for (const auto& [id, rec] : *carriers[c])
        scans[c].cell_bytes[i++] = mmds::encoded_size(id, rec, param_index);
    });

  // 2. The block cuts.
  std::vector<PlannedBlock> blocks;
  for (std::size_t c = 0; c < carriers.size(); ++c)
    plan_blocks(static_cast<std::uint32_t>(c), *carriers[c],
                scans[c].cell_bytes, options.target_block_bytes, blocks);

  // 3. Encode on the pool, append in manifest order.  Block b lives in
  // slot b % window from its encode job until the append; the next block
  // for that slot is submitted only after it.
  const std::size_t window =
      std::min<std::size_t>(threads == 1 ? 1 : 2 * threads, blocks.size());
  std::vector<EncodedBlock> slots(window);
  std::mutex mu;
  std::condition_variable ready;
  const auto encode = [&](std::size_t b) {
    EncodedBlock& slot = slots[b % window];
    try {
      encode_block(blocks[b], param_index, slot);
    } catch (...) {
      slot.error = std::current_exception();
    }
    {
      std::lock_guard lock(mu);
      slot.ready = true;
    }
    ready.notify_all();
  };
  // Declared last so it is destroyed (its queued jobs drained) before
  // anything those jobs touch.
  std::optional<WorkerPool> pool;
  if (threads > 1 && window > 1)
    pool.emplace(static_cast<unsigned>(std::min<std::size_t>(threads, window)));
  const auto submit = [&](std::size_t b) {
    if (pool)
      pool->submit([&encode, b] { encode(b); });
    else
      encode(b);
  };
  for (std::size_t b = 0; b < window; ++b) submit(b);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EncodedBlock& slot = slots[b % window];
    {
      std::unique_lock lock(mu);
      ready.wait(lock, [&slot] { return slot.ready; });
      slot.ready = false;
    }
    if (slot.error) std::rethrow_exception(slot.error);
    const PlannedBlock& plan = blocks[b];
    BlockInfo info;
    info.carrier_index = plan.carrier_index;
    info.length = plan.bytes;
    info.cell_count = plan.cells;
    info.row_count = plan.rows;
    info.crc16 = slot.crc16;
    info.first_cell = plan.first_cell;
    info.last_cell = plan.last_cell;
    out.append(info, slot.body.buffer().data());
    if (b + window < blocks.size()) submit(b + window);
  }
  return out.finish();
}

}  // namespace mmlab::store
