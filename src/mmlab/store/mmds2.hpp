// MMDS v2: the sharded out-of-core dataset layout (DESIGN.md §11), and the
// only binary form of an MMLab dataset (CSV, core/dataset_io, is the
// release form).
//
// A v2 store is a directory:
//
//   <dir>/manifest.mmds2        the only file parsed up front
//   <dir>/shard-0000.mmds2      raw carrier-run payloads
//   <dir>/shard-0001.mmds2      ...
//
// Shard file layout: an 8-byte magic "MMS2SHRD" followed by concatenated
// *block bodies* — nothing else.  A block body is a run of cells of one
// carrier with ascending cell ids, with no leading cell count and no
// per-block framing: every structural fact (owning carrier, byte offset,
// byte length, cell count, row count) lives in the manifest, so the writer
// streams cells straight to disk in a single pass and a reader can map a
// shard and jump to any block without scanning.
//
// Cell encoding (the mmds:: codec below; varint = LEB128, svarint = zigzag
// varint, f64 = little-endian IEEE-754 bits, so every value round-trips
// exactly):
//
//   varint cell_id, u8 rat, varint channel, f64 x, f64 y, varint n_obs,
//   then per observation (stored order):
//     svarint delta_t_ms         vs. the previous observation (first vs. 0)
//     varint  param_index        into the manifest's param table
//     f64     value
//     svarint context
//
// Manifest layout (little-endian):
//
//   [4]  magic "MMDS"
//   [1]  version (= 2)
//   [1]  flags (bit 0 = per-block extras, required; other bits reserved)
//   carrier table: varint N, then N strings        first-seen order
//   param table:   varint P, then P registry names  first-seen order
//   varint shard_count, then per shard:
//     str    filename             relative to the store directory
//     varint file_size            bytes, magic included
//     u16le  crc16                CRC-16/CCITT of the whole shard file
//     varint block_count, then per block:
//       varint carrier_index
//       varint offset             into the shard file (>= 8, past the magic)
//       varint length             block body bytes
//       varint cell_count
//       varint row_count          observations
//       u16le  crc16              CRC-16/CCITT of the block body alone
//       varint first_cell         lowest cell id in the block
//       varint last_cell          highest cell id in the block
//   [2]  CRC-16/CCITT over every preceding manifest byte
//
// Readers reject versions they don't know (version 1, the retired
// single-file format, included); unknown flag bits are likewise rejected
// (no silent best-effort).
// Flags bit 0 marks the per-block extras (body CRC + cell-id range) and is
// required: they let every reader checksum each block right before parsing
// it (corruption rejection without a whole-store verify pass) and let the
// direct fold bound its merge window by cell-id range.  A manifest
// without it (flags = 0, a store written before the extras existed) is
// rejected; such a store must be regenerated.
// A cell may appear in many blocks (each flush of the streaming writer
// emits a new run); readers merge runs under the ConfigDatabase::merge
// contract, in (shard, block) manifest order, which keeps every downstream
// result independent of chunking and thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/result.hpp"

namespace mmlab::store {

inline constexpr std::uint8_t kMmdsMagic[4] = {'M', 'M', 'D', 'S'};
inline constexpr std::uint8_t kMmds2Version = 2;
/// Name of the manifest file inside an MMDS v2 store directory.
inline constexpr char kMmds2ManifestName[] = "manifest.mmds2";
inline constexpr std::uint8_t kShardMagic[8] = {'M', 'M', 'S', '2',
                                                'S', 'H', 'R', 'D'};

// --- cell codec ---------------------------------------------------------------
// The one wire encoding of a cell (layout above).  The shard writer encodes
// through encode_cell; load_database decodes through parse_cell and the
// direct fold through parse_cell_filtered.

namespace mmds {

inline constexpr std::uint8_t kMaxRat = 4;  // spectrum::Rat::kCdma1x

/// Dense (rat, param-id) -> table-index map; the shard writer assigns
/// indices on first sight.  Slot 0 is the unset default, so set() must
/// cover every key that get() will see (the writer guarantees this by
/// construction).
class ParamIndexMap {
 public:
  ParamIndexMap()
      : index_((static_cast<std::size_t>(kMaxRat) + 1) << 16, 0) {}
  void set(config::ParamKey key, std::uint32_t index) {
    index_[slot(key)] = index;
  }
  std::uint32_t get(config::ParamKey key) const { return index_[slot(key)]; }

 private:
  static std::size_t slot(config::ParamKey key) {
    return (static_cast<std::size_t>(key.rat) << 16) | key.id;
  }
  std::vector<std::uint32_t> index_;
};

/// Append one cell's encoding to `out`.
void encode_cell(ByteWriter& out, std::uint32_t id,
                 const core::CellRecord& rec, const ParamIndexMap& params);

/// The exact number of bytes encode_cell appends for the same arguments,
/// computed without encoding (save_database cuts blocks with it before any
/// byte is written).
std::size_t encoded_size(std::uint32_t id, const core::CellRecord& rec,
                         const ParamIndexMap& params);

/// Parse one cell into `out` (upsert semantics: observations append, cell
/// identity metadata is taken only when the record was fresh).  Returns the
/// observation count.  Throws std::runtime_error subclasses on structural
/// damage (bad rat, out-of-range param index, implausible counts).
std::size_t parse_cell(ByteReader& r, const std::string& carrier,
                       const std::vector<config::ParamKey>& params,
                       core::ConfigDatabase& out);

/// Wire-level facts parse_cell_filtered reports about the *unfiltered* cell
/// run it just scanned — everything a filtering reader needs to (a) validate
/// raw counts against the manifest and (b) preserve the merge contract's
/// metadata tie-break, which is defined over unfiltered runs.
struct CellScan {
  std::uint64_t rows = 0;            ///< observations on the wire
  std::uint64_t values_skipped = 0;  ///< 8-byte value payloads not decoded
  std::int64_t front_t_ms = 0;  ///< first wire observation's t (has_front)
  bool has_front = false;       ///< the run had at least one observation
};

/// Parse one cell into a standalone record (the shard-direct read path,
/// where no database exists), with predicate push-down.  `rec` is reset
/// first (its observation capacity is kept); rec.cell_id is filled and the
/// cell id returned.  The cell's full wire structure is decoded (every
/// varint must be walked to find the next cell), but only observations
/// whose param-table index is set in `keep` materialize — the 8-byte value
/// payload of a filtered observation is *skipped*, never loaded, and
/// counted in CellScan::values_skipped.  An empty `keep` keeps every
/// observation.  When the returned id falls outside [min_cell, max_cell]
/// nothing is materialized at all (the caller drops the cell); `rec` still
/// carries the header metadata either way.  Same structural-damage errors
/// as parse_cell.
std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell,
                                  core::CellRecord& rec, CellScan& scan);

}  // namespace mmds

// --- manifest -----------------------------------------------------------------

struct BlockInfo {
  std::uint32_t carrier_index = 0;
  std::uint64_t offset = 0;  ///< into the shard file, past the magic
  std::uint64_t length = 0;
  std::uint64_t cell_count = 0;
  std::uint64_t row_count = 0;
  // Per-block extras.
  std::uint16_t crc16 = 0;        ///< CRC-16/CCITT of the block body alone
  std::uint32_t first_cell = 0;   ///< lowest cell id in the block
  std::uint32_t last_cell = 0;    ///< highest cell id in the block

  /// The block's cell-id range intersects [min_cell, max_cell].  A
  /// non-overlapping block cannot contain any in-range cell (ids within a
  /// block lie inside [first_cell, last_cell]), so a range query may skip
  /// it entirely.
  bool overlaps(std::uint32_t min_cell, std::uint32_t max_cell) const {
    return last_cell >= min_cell && first_cell <= max_cell;
  }
};

struct ShardInfo {
  std::string filename;  ///< relative to the store directory
  std::uint64_t file_size = 0;
  std::uint16_t crc16 = 0;  ///< finalized CRC of the whole file
  std::vector<BlockInfo> blocks;
};

struct Manifest {
  std::vector<std::string> carriers;  ///< first-seen order
  std::vector<std::string> params;    ///< registry names, first-seen order
  std::vector<ShardInfo> shards;

  std::uint64_t total_rows() const;
  std::uint64_t total_blocks() const;
};

/// Serialize `m` to <dir>/manifest.mmds2 (CRC trailer included).  Throws
/// std::runtime_error on I/O failure.
void write_manifest(const std::string& dir, const Manifest& m);

/// Parse <dir>/manifest.mmds2.  Structural damage (magic/version/CRC,
/// out-of-range indices, blocks outside their shard's size) fails the load,
/// as does a manifest without the per-block extras (flags bit 0).
Result<Manifest> read_manifest(const std::string& dir);

// --- format dispatch ----------------------------------------------------------

enum class DatasetFormat { kCsv, kMmds2 };

/// The store directory `path` names: `path` itself, or the directory of
/// the manifest file when `path` names a manifest.mmds2 file.
/// ShardSet::open resolves its argument through this, so every reader takes
/// both spellings that detect_dataset_format sniffs as kMmds2.
std::string store_directory(const std::string& path);

/// Sniff a path: a directory holding a manifest.mmds2, or a bare manifest
/// file, is kMmds2; any other path is kCsv (the CSV loader reports its own
/// open or header failure).  A file that starts with the MMDS magic but
/// carries another version is an error naming that version, so a retired
/// v1 single file fails loudly instead of reaching the CSV parser.
Result<DatasetFormat> detect_dataset_format(const std::string& path);

}  // namespace mmlab::store
