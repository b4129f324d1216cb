#include "net/bytes.hpp"

#include "util/error.hpp"

namespace poq::net {

void ByteWriter::write_u8(std::uint8_t value) { buffer_.push_back(value); }

void ByteWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(value));
}

void ByteReader::need(std::size_t count) const {
  require(cursor_ + count <= bytes_.size(), "ByteReader: truncated input");
}

std::uint8_t ByteReader::read_u8() {
  need(1);
  return bytes_[cursor_++];
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t byte = bytes_[cursor_++];
    require(shift < 64, "ByteReader: varint too long");
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

}  // namespace poq::net
