#include "mmlab/store/mmds2.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "mmlab/util/crc.hpp"

namespace mmlab::store {

// --- cell codec ---------------------------------------------------------------

namespace mmds {

namespace {

class MmdsError : public std::runtime_error {
 public:
  explicit MmdsError(const std::string& what) : std::runtime_error(what) {}
};

std::uint32_t checked_u32(std::uint64_t v, const char* what) {
  if (v > 0xFFFFFFFFull)
    throw MmdsError(std::string(what) + " out of 32-bit range");
  return static_cast<std::uint32_t>(v);
}

/// The fixed per-cell prefix shared by parse_cell and parse_cell_filtered.
struct CellHeader {
  std::uint32_t id;
  std::uint8_t rat_raw;
  std::uint32_t channel;
  double x, y;
  std::uint64_t n_obs;
};

CellHeader parse_cell_header(ByteReader& r) {
  CellHeader h;
  h.id = checked_u32(r.varint(), "cell_id");
  h.rat_raw = r.u8();
  if (h.rat_raw > kMaxRat) throw MmdsError("rat out of range");
  h.channel = checked_u32(r.varint(), "channel");
  h.x = r.f64le();
  h.y = r.f64le();
  h.n_obs = r.varint();
  // Each observation is at least 11 bytes; a count beyond that is
  // corruption — catch it before reserve() tries to allocate it.
  if (h.n_obs > r.remaining() / 11 + 1)
    throw MmdsError("observation count exceeds block size");
  return h;
}

void parse_observations(ByteReader& r, std::uint64_t n_obs,
                        const std::vector<config::ParamKey>& params,
                        std::vector<core::Observation>& out) {
  out.reserve(out.size() + static_cast<std::size_t>(n_obs));
  std::int64_t t_ms = 0;
  for (std::uint64_t i = 0; i < n_obs; ++i) {
    t_ms += r.svarint();
    const std::uint64_t param_index = r.varint();
    if (param_index >= params.size())
      throw MmdsError("param index out of range");
    const double value = r.f64le();
    const std::int64_t context = r.svarint();
    out.push_back({params[param_index], value, SimTime{t_ms}, context});
  }
}

}  // namespace

void encode_cell(ByteWriter& out, std::uint32_t id,
                 const core::CellRecord& rec, const ParamIndexMap& params) {
  out.varint(id);
  out.u8(static_cast<std::uint8_t>(rec.rat));
  out.varint(rec.channel);
  out.f64le(rec.position.x);
  out.f64le(rec.position.y);
  out.varint(rec.observations.size());
  std::int64_t prev_t = 0;
  for (const auto& obs : rec.observations) {
    out.svarint(obs.t.ms - prev_t);
    prev_t = obs.t.ms;
    out.varint(params.get(obs.key));
    out.f64le(obs.value);
    out.svarint(obs.context);
  }
}

std::size_t encoded_size(std::uint32_t id, const core::CellRecord& rec,
                         const ParamIndexMap& params) {
  std::size_t n = varint_size(id) + 1 + varint_size(rec.channel) + 16 +
                  varint_size(rec.observations.size());
  std::int64_t prev_t = 0;
  for (const auto& obs : rec.observations) {
    n += varint_size(zigzag_encode(obs.t.ms - prev_t)) +
         varint_size(params.get(obs.key)) + 8 +
         varint_size(zigzag_encode(obs.context));
    prev_t = obs.t.ms;
  }
  return n;
}

std::size_t parse_cell(ByteReader& r, const std::string& carrier,
                       const std::vector<config::ParamKey>& params,
                       core::ConfigDatabase& out) {
  const CellHeader h = parse_cell_header(r);
  core::CellRecord& rec = out.upsert_cell(carrier, h.id);
  if (rec.observations.empty()) {
    rec.cell_id = h.id;
    rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
    rec.channel = h.channel;
    rec.position = {h.x, h.y};
  }
  parse_observations(r, h.n_obs, params, rec.observations);
  return static_cast<std::size_t>(h.n_obs);
}

std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell,
                                  core::CellRecord& rec, CellScan& scan) {
  const CellHeader h = parse_cell_header(r);
  rec.observations.clear();  // keep capacity for a reused record
  rec.cell_id = h.id;
  rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
  rec.channel = h.channel;
  rec.position = {h.x, h.y};
  scan.rows = h.n_obs;
  scan.values_skipped = 0;
  scan.front_t_ms = 0;
  scan.has_front = h.n_obs > 0;
  const bool in_range = h.id >= min_cell && h.id <= max_cell;
  if (in_range && keep.empty()) {
    parse_observations(r, h.n_obs, params, rec.observations);
    if (!rec.observations.empty()) scan.front_t_ms = rec.observations.front().t.ms;
    return h.id;
  }
  std::int64_t t_ms = 0;
  for (std::uint64_t i = 0; i < h.n_obs; ++i) {
    t_ms += r.svarint();
    if (i == 0) scan.front_t_ms = t_ms;
    const std::uint64_t param_index = r.varint();
    if (param_index >= params.size())
      throw MmdsError("param index out of range");
    if (in_range && (keep.empty() || keep[param_index])) {
      const double value = r.f64le();
      rec.observations.push_back(
          {params[param_index], value, SimTime{t_ms}, r.svarint()});
    } else {
      r.skip(8);
      ++scan.values_skipped;
      (void)r.svarint();  // context: varint-decoded only to advance
    }
  }
  return h.id;
}

}  // namespace mmds

// --- manifest -----------------------------------------------------------------

namespace {

/// Manifest flags bit 0: the per-block extras, required by every reader.
constexpr std::uint8_t kFlagBlockExtras = 0x01;

std::string manifest_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kMmds2ManifestName).string();
}

}  // namespace

std::uint64_t Manifest::total_rows() const {
  std::uint64_t n = 0;
  for (const auto& s : shards)
    for (const auto& b : s.blocks) n += b.row_count;
  return n;
}

std::uint64_t Manifest::total_blocks() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.blocks.size();
  return n;
}

void write_manifest(const std::string& dir, const Manifest& m) {
  ByteWriter w;
  w.raw(kMmdsMagic, sizeof(kMmdsMagic));
  w.u8(kMmds2Version);
  w.u8(kFlagBlockExtras);
  w.varint(m.carriers.size());
  for (const auto& c : m.carriers) w.str(c);
  w.varint(m.params.size());
  for (const auto& p : m.params) w.str(p);
  w.varint(m.shards.size());
  for (const auto& s : m.shards) {
    w.str(s.filename);
    w.varint(s.file_size);
    w.u16le(s.crc16);
    w.varint(s.blocks.size());
    for (const auto& b : s.blocks) {
      w.varint(b.carrier_index);
      w.varint(b.offset);
      w.varint(b.length);
      w.varint(b.cell_count);
      w.varint(b.row_count);
      w.u16le(b.crc16);
      w.varint(b.first_cell);
      w.varint(b.last_cell);
    }
  }

  BufferedFileWriter out(manifest_path(dir));
  out.write(w.buffer().data(), w.buffer().size());
  const std::uint16_t crc = out.crc16();
  const std::uint8_t trailer[2] = {static_cast<std::uint8_t>(crc & 0xFF),
                                   static_cast<std::uint8_t>(crc >> 8)};
  out.write(trailer, sizeof(trailer));
  out.close();
}

Result<Manifest> read_manifest(const std::string& dir) {
  using R = Result<Manifest>;
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(manifest_path(dir), bytes))
    return R::error("read_manifest: cannot open " + manifest_path(dir));
  if (bytes.size() < sizeof(kMmdsMagic) + 2 + 2)
    return R::error("read_manifest: file too small for a manifest header");
  if (std::memcmp(bytes.data(), kMmdsMagic,
                  sizeof(kMmdsMagic)) != 0)
    return R::error("read_manifest: bad magic (not an MMDS manifest)");
  if (bytes[4] != kMmds2Version)
    return R::error("read_manifest: unsupported version " +
                    std::to_string(bytes[4]) + " (expected " +
                    std::to_string(kMmds2Version) + ")");
  // Same policy as the version byte: a flag bit we don't know changes the
  // block-entry layout, so refusing is the only safe reading.
  if (bytes[5] & ~kFlagBlockExtras)
    return R::error("read_manifest: unknown flag bits " +
                    std::to_string(bytes[5]));
  if (!(bytes[5] & kFlagBlockExtras))
    return R::error(
        "read_manifest: flag bits " + std::to_string(bytes[5]) +
        " lack the per-block extras; the store predates them and must be "
        "regenerated");
  const std::size_t size = bytes.size();
  const std::uint16_t stored_crc = static_cast<std::uint16_t>(
      bytes[size - 2] | (static_cast<std::uint16_t>(bytes[size - 1]) << 8));
  if (crc16_ccitt(bytes.data(), size - 2) != stored_crc)
    return R::error(
        "read_manifest: CRC mismatch (manifest truncated or corrupted)");

  try {
    ByteReader r(bytes.data(), size - 2);
    r.skip(sizeof(kMmdsMagic) + 2);
    Manifest m;
    m.carriers.resize(r.varint());
    for (auto& c : m.carriers) c = std::string(r.str());
    m.params.resize(r.varint());
    for (auto& p : m.params) p = std::string(r.str());
    m.shards.resize(r.varint());
    for (auto& s : m.shards) {
      s.filename = std::string(r.str());
      if (s.filename.empty() ||
          s.filename.find('/') != std::string::npos ||
          s.filename.find('\\') != std::string::npos)
        return R::error("read_manifest: shard filename escapes the store: " +
                        s.filename);
      s.file_size = r.varint();
      s.crc16 = r.u16le();
      s.blocks.resize(r.varint());
      std::uint64_t cursor = sizeof(kShardMagic);
      for (auto& b : s.blocks) {
        const std::uint64_t carrier_index = r.varint();
        if (carrier_index >= m.carriers.size())
          return R::error("read_manifest: carrier index out of range");
        b.carrier_index = static_cast<std::uint32_t>(carrier_index);
        b.offset = r.varint();
        b.length = r.varint();
        b.cell_count = r.varint();
        b.row_count = r.varint();
        b.crc16 = r.u16le();
        const std::uint64_t first = r.varint();
        const std::uint64_t last = r.varint();
        if (first > last || last > 0xFFFFFFFFull)
          return R::error("read_manifest: bad block cell-id range in " +
                          s.filename);
        b.first_cell = static_cast<std::uint32_t>(first);
        b.last_cell = static_cast<std::uint32_t>(last);
        // Blocks are written back to back; the manifest must agree, or the
        // offsets were corrupted in a way the CRC (of the manifest, not the
        // shard) cannot see.
        if (b.offset != cursor || b.offset + b.length > s.file_size)
          return R::error("read_manifest: block offsets inconsistent in " +
                          s.filename);
        cursor = b.offset + b.length;
      }
      if (cursor != s.file_size)
        return R::error("read_manifest: shard size disagrees with blocks: " +
                        s.filename);
    }
    if (r.remaining() != 0)
      return R::error("read_manifest: trailing bytes after shard table");
    return m;
  } catch (const std::exception& e) {
    return R::error("read_manifest: " + std::string(e.what()));
  }
}

// --- format dispatch ----------------------------------------------------------

std::string store_directory(const std::string& path) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.filename() == kMmds2ManifestName &&
      std::filesystem::is_regular_file(p, ec)) {
    const std::filesystem::path parent = p.parent_path();
    return parent.empty() ? "." : parent.string();
  }
  return path;
}

Result<DatasetFormat> detect_dataset_format(const std::string& path) {
  using R = Result<DatasetFormat>;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    // A v2 store is a directory; only the manifest marks it as one (any
    // other directory falls through to the CSV loader's open failure).
    if (std::filesystem::exists(std::filesystem::path(path) /
                                    kMmds2ManifestName,
                                ec))
      return DatasetFormat::kMmds2;
    return DatasetFormat::kCsv;
  }
  std::ifstream in(path, std::ios::binary);
  char head[sizeof(kMmdsMagic) + 1] = {};
  in.read(head, sizeof(head));
  if (in.gcount() < static_cast<std::streamsize>(sizeof(kMmdsMagic)) ||
      std::memcmp(head, kMmdsMagic, sizeof(kMmdsMagic)) != 0)
    return DatasetFormat::kCsv;
  if (in.gcount() < static_cast<std::streamsize>(sizeof(head)))
    return R::error(path + ": truncated MMDS header");
  const auto version = static_cast<std::uint8_t>(head[4]);
  if (version == kMmds2Version) return DatasetFormat::kMmds2;
  return R::error(path + ": unsupported MMDS version " +
                  std::to_string(version) +
                  " (only version-2 store directories are read)");
}

}  // namespace mmlab::store
