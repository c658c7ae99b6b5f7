// Crc32: the shared slicing-by-8 checksum matches the CRC-32 check value
// and a byte-at-a-time reference at every short length and alignment, and
// the committed HTTB tables still verify with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/crc32.h"
#include "surrogate/table.h"

namespace hypertune {
namespace {

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), one byte at a time.
std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
}

TEST(Crc32, MatchesByteAtATimeAtEveryLengthAndOffset) {
  unsigned char buffer[64 + 8];
  for (std::size_t i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<unsigned char>((i * 167 + 13) ^ (i >> 2));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 64; ++size) {
      EXPECT_EQ(Crc32(buffer + offset, size),
                ReferenceCrc32(buffer + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32, CommittedHttbTablesVerify) {
  for (const char* name : {"cifar_convnet.httb", "ptb_lstm.httb"}) {
    const std::string path = std::string(HT_GOLDEN_TABLES_DIR) + "/" + name;
    EXPECT_NO_THROW(VerifyTableFile(path)) << path;
  }
}

}  // namespace
}  // namespace hypertune
