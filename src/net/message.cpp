#include "net/message.hpp"

#include "util/error.hpp"

namespace poq::net {

MessageType message_type(const Message& message) {
  struct Visitor {
    MessageType operator()(const CountUpdate&) const { return MessageType::kCountUpdate; }
    MessageType operator()(const PairUpdate&) const { return MessageType::kPairUpdate; }
    MessageType operator()(const ConsumeOffer&) const {
      return MessageType::kConsumeOffer;
    }
    MessageType operator()(const ConsumeReply&) const {
      return MessageType::kConsumeReply;
    }
  };
  return std::visit(Visitor{}, message);
}

namespace {

/// Counts the bytes a ByteWriter would append, without storing them.
class ByteCounter {
 public:
  void write_u8(std::uint8_t) { ++size_; }
  void write_varint(std::uint64_t value) {
    do {
      ++size_;
      value >>= 7;
    } while (value != 0);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

template <typename Writer>
void encode_body(Writer& out, const CountUpdate& m) {
  out.write_varint(m.reporter);
  out.write_varint(m.version);
  out.write_varint(m.entries.size());
  for (const CountUpdate::Entry& entry : m.entries) {
    out.write_varint(entry.peer);
    out.write_varint(entry.count);
  }
}

template <typename Writer>
void encode_body(Writer& out, const PairUpdate& m) {
  out.write_varint(m.to);
  out.write_varint(m.new_partner);
  out.write_varint(m.qubit);
  out.write_varint(m.new_partner_qubit);
  // The paper's "only 2 bits of classical information": packed into one
  // byte on the wire (bit 0 = z, bit 1 = x).
  out.write_u8(static_cast<std::uint8_t>((m.z_bit ? 1 : 0) | (m.x_bit ? 2 : 0)));
}

template <typename Writer>
void encode_body(Writer& out, const ConsumeOffer& m) {
  out.write_varint(m.from);
  out.write_varint(m.to);
  out.write_varint(m.request_id);
  out.write_varint(m.initiator_qubit);
  out.write_varint(m.responder_qubit);
}

template <typename Writer>
void encode_body(Writer& out, const ConsumeReply& m) {
  out.write_varint(m.from);
  out.write_varint(m.to);
  out.write_varint(m.request_id);
  out.write_u8(m.accept ? 1 : 0);
}

template <typename Writer>
void encode_into(Writer& out, const Message& message) {
  out.write_u8(static_cast<std::uint8_t>(message_type(message)));
  std::visit([&out](const auto& body) { encode_body(out, body); }, message);
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  ByteWriter out;
  encode_into(out, message);
  return out.bytes();
}

Message decode(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const auto type = static_cast<MessageType>(in.read_u8());
  switch (type) {
    case MessageType::kCountUpdate: {
      CountUpdate m;
      m.reporter = static_cast<NodeId>(in.read_varint());
      m.version = in.read_varint();
      const std::uint64_t count = in.read_varint();
      m.entries.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        CountUpdate::Entry entry;
        entry.peer = static_cast<NodeId>(in.read_varint());
        entry.count = static_cast<std::uint32_t>(in.read_varint());
        m.entries.push_back(entry);
      }
      return m;
    }
    case MessageType::kPairUpdate: {
      PairUpdate m;
      m.to = static_cast<NodeId>(in.read_varint());
      m.new_partner = static_cast<NodeId>(in.read_varint());
      m.qubit = in.read_varint();
      m.new_partner_qubit = in.read_varint();
      const std::uint8_t bits = in.read_u8();
      m.z_bit = (bits & 1) != 0;
      m.x_bit = (bits & 2) != 0;
      return m;
    }
    case MessageType::kConsumeOffer: {
      ConsumeOffer m;
      m.from = static_cast<NodeId>(in.read_varint());
      m.to = static_cast<NodeId>(in.read_varint());
      m.request_id = in.read_varint();
      m.initiator_qubit = in.read_varint();
      m.responder_qubit = in.read_varint();
      return m;
    }
    case MessageType::kConsumeReply: {
      ConsumeReply m;
      m.from = static_cast<NodeId>(in.read_varint());
      m.to = static_cast<NodeId>(in.read_varint());
      m.request_id = in.read_varint();
      m.accept = in.read_u8() != 0;
      return m;
    }
  }
  throw PreconditionError("decode: unknown message type tag");
}

std::size_t encoded_size(const Message& message) {
  ByteCounter out;
  encode_into(out, message);
  return out.size();
}

}  // namespace poq::net
