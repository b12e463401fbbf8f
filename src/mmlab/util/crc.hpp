// CRC-16/CCITT (X.25 variant) — the checksum used by the Qualcomm diag
// protocol our diag-log framing emulates: polynomial 0x1021 reflected
// (0x8408), initial value 0xFFFF, final XOR 0xFFFF.
#pragma once

#include <cstdint>
#include <cstddef>

namespace mmlab {

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size);

// Incremental interface for streaming writers (util/byteio): thread the
// state through successive update calls, then finalize once.  Equivalent to
// crc16_ccitt over the concatenated chunks.
inline constexpr std::uint16_t kCrc16CcittInit = 0xFFFF;
std::uint16_t crc16_ccitt_update(std::uint16_t state, const std::uint8_t* data,
                                 std::size_t size);

/// The textbook byte-at-a-time update.  crc16_ccitt_update runs a
/// slice-by-8 variant (8 bytes per table round); this one is kept as the
/// test oracle the fast path is property-checked against.
std::uint16_t crc16_ccitt_update_reference(std::uint16_t state,
                                           const std::uint8_t* data,
                                           std::size_t size);
constexpr std::uint16_t crc16_ccitt_finalize(std::uint16_t state) {
  return static_cast<std::uint16_t>(state ^ 0xFFFF);
}

/// The update state after `size` bytes whose crc16_ccitt is `crc` follow
/// `state` — equal to crc16_ccitt_update(state, bytes, size) without
/// reading the bytes (zlib's crc32_combine, for this CRC): O(log size).
std::uint16_t crc16_ccitt_combine(std::uint16_t state, std::uint16_t crc,
                                  std::uint64_t size);

}  // namespace mmlab
