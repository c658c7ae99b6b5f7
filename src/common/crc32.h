// CRC-32 (IEEE 802.3, the zlib polynomial) over arbitrary bytes.
//
// The one checksum of the repository, shared by its three users: binary
// wire frames (src/net/wire.h) carry the CRC of their payload, write-ahead
// journal records (src/durability) carry the CRC of theirs, and HTTB
// surrogate tables (src/surrogate/table.h) carry the CRC of their whole
// payload. A torn or bit-rotted frame, record or table is detected by
// checksum mismatch rather than parsed as garbage.
//
// Slicing-by-8: eight 256-entry tables fold eight input bytes per step
// (Kounavis & Berry), with a byte-at-a-time tail. Input is read byte by
// byte and assembled little-endian, so the result is byte-order and
// alignment independent. Dependency-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hypertune {

/// CRC-32 of `size` bytes starting at `data` (initial value 0).
std::uint32_t Crc32(const void* data, std::size_t size);

inline std::uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace hypertune
