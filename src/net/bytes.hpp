// Byte-level serialization for classical control messages.
//
// Every swap, count update and reservation in poqnet can be accounted in
// real bytes on the classical network (§2 "Classical overheads"); the
// encoders here are deterministic, little-endian, and varint-compressed so
// overhead numbers in the benches are meaningful rather than sizeof()
// guesses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace poq::net {

/// Append-only encoder.
class ByteWriter {
 public:
  void write_u8(std::uint8_t value);
  /// LEB128 unsigned varint (1 byte for values < 128).
  void write_varint(std::uint64_t value);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Sequential decoder over a byte span; throws PreconditionError on
/// truncated or malformed input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint64_t read_varint();

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - cursor_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  void need(std::size_t count) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace poq::net
