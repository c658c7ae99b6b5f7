#include "net/wire.h"

#include <cstring>

#include "common/check.h"
#include "common/crc32.h"

namespace hypertune {

namespace {

/// Appends the low N bytes of `value`, little-endian, as one chunk.
template <std::size_t N>
void AppendLe(std::string& out, std::uint64_t value) {
  char bytes[N];
  for (std::size_t i = 0; i < N; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  out.append(bytes, N);
}

}  // namespace

void WireWriter::U8(std::uint8_t value) {
  bytes_.push_back(static_cast<char>(value));
}

void WireWriter::U16(std::uint16_t value) { AppendLe<2>(bytes_, value); }

void WireWriter::U32(std::uint32_t value) { AppendLe<4>(bytes_, value); }

void WireWriter::U64(std::uint64_t value) { AppendLe<8>(bytes_, value); }

void WireWriter::F64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void WireWriter::ShortString(std::string_view value) {
  HT_CHECK_MSG(value.size() <= 0xFFFF,
               "wire short string too long: " << value.size() << " bytes");
  U16(static_cast<std::uint16_t>(value.size()));
  bytes_.append(value);
}

void WireWriter::String(std::string_view value) {
  HT_CHECK_MSG(value.size() <= kMaxFramePayload,
               "wire string too long: " << value.size() << " bytes");
  U32(static_cast<std::uint32_t>(value.size()));
  bytes_.append(value);
}

std::string_view WireReader::Take(std::size_t count) {
  HT_CHECK_MSG(count <= bytes_.size() - offset_,
               "wire payload underrun: want " << count << " bytes, have "
                                              << bytes_.size() - offset_);
  const std::string_view view = bytes_.substr(offset_, count);
  offset_ += count;
  return view;
}

std::uint8_t WireReader::U8() {
  return static_cast<std::uint8_t>(Take(1)[0]);
}

std::uint16_t WireReader::U16() {
  const std::string_view view = Take(2);
  return static_cast<std::uint16_t>(
      static_cast<std::uint8_t>(view[0]) |
      (static_cast<std::uint16_t>(static_cast<std::uint8_t>(view[1])) << 8));
}

std::uint32_t WireReader::U32() {
  const std::string_view view = Take(4);
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint8_t>(view[static_cast<std::size_t>(i)]);
  }
  return value;
}

std::uint64_t WireReader::U64() {
  const std::string_view view = Take(8);
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint8_t>(view[static_cast<std::size_t>(i)]);
  }
  return value;
}

double WireReader::F64() {
  const std::uint64_t bits = U64();
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string WireReader::ShortString() {
  const std::uint16_t size = U16();
  return std::string(Take(size));
}

std::string WireReader::String() {
  const std::uint32_t size = U32();
  HT_CHECK_MSG(size <= kMaxFramePayload, "wire string length " << size
                                             << " exceeds frame bound");
  return std::string(Take(size));
}

void WireReader::ExpectEnd() const {
  HT_CHECK_MSG(AtEnd(), "wire payload has " << bytes_.size() - offset_
                                            << " trailing bytes");
}

std::string EncodeFrame(WireType type, std::string_view payload) {
  HT_CHECK_MSG(payload.size() <= kMaxFramePayload,
               "frame payload too large: " << payload.size() << " bytes");
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendLe<4>(frame, kFrameMagic);
  AppendLe<2>(frame, kWireVersion);
  AppendLe<2>(frame, static_cast<std::uint16_t>(type));
  AppendLe<4>(frame, payload.size());
  AppendLe<4>(frame, Crc32(payload));
  frame.append(payload);
  return frame;
}

const char* FrameErrorName(FrameError error) {
  switch (error) {
    case FrameError::kNone: return "none";
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kBadVersion: return "bad_version";
    case FrameError::kOversized: return "oversized";
    case FrameError::kBadCrc: return "bad_crc";
    case FrameError::kTruncated: return "truncated";
  }
  return "unknown";
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (poisoned_) return;
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state decoding is append + view, not repeated memmove.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<WireFrame> FrameDecoder::Next() {
  if (poisoned_ || error_ != FrameError::kNone) return std::nullopt;
  {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kFrameHeaderSize) return std::nullopt;
    WireReader header(std::string_view(buffer_).substr(consumed_,
                                                       kFrameHeaderSize));
    const std::uint32_t magic = header.U32();
    if (magic != kFrameMagic) {
      error_ = FrameError::kBadMagic;
      poisoned_ = true;
      return std::nullopt;
    }
    const std::uint16_t version = header.U16();
    if (version != kWireVersion) {
      error_ = FrameError::kBadVersion;
      poisoned_ = true;
      return std::nullopt;
    }
    const std::uint16_t type = header.U16();
    const std::uint32_t length = header.U32();
    const std::uint32_t crc = header.U32();
    if (length > kMaxFramePayload) {
      error_ = FrameError::kOversized;
      poisoned_ = true;
      return std::nullopt;
    }
    if (available < kFrameHeaderSize + length) return std::nullopt;
    std::string payload =
        buffer_.substr(consumed_ + kFrameHeaderSize, length);
    consumed_ += kFrameHeaderSize + length;
    if (Crc32(payload) != crc) {
      // The header framed the stream correctly, so the next frame is intact:
      // latch the error for accounting, drop the payload, stay usable.
      error_ = FrameError::kBadCrc;
      return std::nullopt;
    }
    return WireFrame{static_cast<WireType>(type), std::move(payload)};
  }
}

void FrameDecoder::Finish() {
  if (poisoned_) return;
  if (buffer_.size() - consumed_ > 0) {
    error_ = FrameError::kTruncated;
    poisoned_ = true;
  }
}

void FrameDecoder::ClearError() {
  if (!poisoned_) error_ = FrameError::kNone;
}

}  // namespace hypertune
