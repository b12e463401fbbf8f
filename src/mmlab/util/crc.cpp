#include "mmlab/util/crc.hpp"

#include <array>

namespace mmlab {
namespace {

// kTables[0] is the classic one-byte table; kTables[k][i] is the state
// reached by pushing k further zero bytes through kTables[k-1][i].  Because
// the CRC update is GF(2)-linear, eight bytes then fold in one round:
//
//   s' = T7[(s ^ b0) & 0xFF] ^ T6[((s >> 8) ^ b1) & 0xFF]
//      ^ T5[b2] ^ T4[b3] ^ T3[b4] ^ T2[b5] ^ T1[b6] ^ T0[b7]
//
// (the 16-bit state only overlaps the first two bytes; b2..b7 enter with
// zero state so their table lookups need no state mixing).  Shard
// checksumming in the out-of-core store pushes hundreds of MB through this,
// hence slice-by-8 rather than slice-by-4 (ROADMAP item 5); the bytewise
// reference below stays as the property-test oracle.
constexpr std::size_t kSlice = 8;

constexpr std::array<std::array<std::uint16_t, 256>, kSlice> make_tables() {
  std::array<std::array<std::uint16_t, 256>, kSlice> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i);
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) ? static_cast<std::uint16_t>((crc >> 1) ^ 0x8408)
                       : static_cast<std::uint16_t>(crc >> 1);
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < kSlice; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = static_cast<std::uint16_t>((t[k - 1][i] >> 8) ^
                                           t[0][t[k - 1][i] & 0xFF]);
  return t;
}

constexpr auto kTables = make_tables();

}  // namespace

std::uint16_t crc16_ccitt_update_reference(std::uint16_t state,
                                           const std::uint8_t* data,
                                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i)
    state = static_cast<std::uint16_t>((state >> 8) ^
                                       kTables[0][(state ^ data[i]) & 0xFF]);
  return state;
}

std::uint16_t crc16_ccitt_update(std::uint16_t state, const std::uint8_t* data,
                                 std::size_t size) {
  while (size >= 8) {
    state = static_cast<std::uint16_t>(
        kTables[7][(state ^ data[0]) & 0xFF] ^
        kTables[6][((state >> 8) ^ data[1]) & 0xFF] ^ kTables[5][data[2]] ^
        kTables[4][data[3]] ^ kTables[3][data[4]] ^ kTables[2][data[5]] ^
        kTables[1][data[6]] ^ kTables[0][data[7]]);
    data += 8;
    size -= 8;
  }
  return crc16_ccitt_update_reference(state, data, size);
}

namespace {

// A GF(2)-linear map of the 16-bit state, as the images of its 16 bits.
using Gf2Matrix = std::array<std::uint16_t, 16>;

std::uint16_t gf2_apply(const Gf2Matrix& m, std::uint16_t v) {
  std::uint16_t out = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1)
    if (v & 1u) out ^= m[i];
  return out;
}

Gf2Matrix gf2_square(const Gf2Matrix& m) {
  Gf2Matrix out{};
  for (std::size_t i = 0; i < 16; ++i) out[i] = gf2_apply(m, m[i]);
  return out;
}

}  // namespace

std::uint16_t crc16_ccitt_combine(std::uint16_t state, std::uint16_t crc,
                                  std::uint64_t size) {
  // Updating is affine in the state: update(s, B) = Z(s) ^ update(0, B),
  // where the linear map Z feeds |B| zero bytes.  crc = update(init, B) ^
  // 0xFFFF gives update(0, B) = Z(init) ^ crc ^ 0xFFFF, so
  // update(s, B) = Z(s ^ init) ^ crc ^ 0xFFFF.
  std::uint16_t zeros = static_cast<std::uint16_t>(state ^ kCrc16CcittInit);
  // The operator for one zero bit (reflected polynomial), squared up to one
  // byte, then square-and-multiply over the byte count.
  Gf2Matrix op{};
  op[0] = 0x8408;
  for (std::size_t i = 1; i < 16; ++i)
    op[i] = static_cast<std::uint16_t>(1u << (i - 1));
  for (int i = 0; i < 3; ++i) op = gf2_square(op);
  for (std::uint64_t n = size; n != 0 && zeros != 0; n >>= 1) {
    if (n & 1u) zeros = gf2_apply(op, zeros);
    if (n > 1) op = gf2_square(op);
  }
  return static_cast<std::uint16_t>(zeros ^ crc ^ 0xFFFF);
}

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size) {
  return crc16_ccitt_finalize(crc16_ccitt_update(kCrc16CcittInit, data, size));
}

}  // namespace mmlab
