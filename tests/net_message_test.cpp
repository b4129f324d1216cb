#include "net/message.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::net {
namespace {

TEST(Message, PairUpdateIsCompact) {
  // The repointing notice is tiny: tag + 4 small varints + the packed
  // 2 Bell-measurement bits — 6 bytes for small ids.
  PairUpdate m;
  m.to = 3;
  m.new_partner = 1;
  m.qubit = 5;
  m.new_partner_qubit = 9;
  EXPECT_EQ(encoded_size(m), 6u);
}

TEST(Message, AllFourBitCombinationsSurvive) {
  for (bool z : {false, true}) {
    for (bool x : {false, true}) {
      PairUpdate m;
      m.z_bit = z;
      m.x_bit = x;
      const Message decoded = decode(encode(m));
      const auto& round = std::get<PairUpdate>(decoded);
      EXPECT_EQ(round.z_bit, z);
      EXPECT_EQ(round.x_bit, x);
    }
  }
}

TEST(Message, CountUpdateRoundTrip) {
  CountUpdate original;
  original.reporter = 4;
  original.version = 123456;
  original.entries = {{0, 3}, {2, 0}, {9, 77}};
  const Message decoded = decode(encode(original));
  const auto& m = std::get<CountUpdate>(decoded);
  EXPECT_EQ(m.reporter, 4u);
  EXPECT_EQ(m.version, 123456u);
  ASSERT_EQ(m.entries.size(), 3u);
  EXPECT_EQ(m.entries[2].peer, 9u);
  EXPECT_EQ(m.entries[2].count, 77u);
}

TEST(Message, CountUpdateEmptyEntries) {
  CountUpdate original;
  original.reporter = 1;
  const Message decoded = decode(encode(original));
  const auto& m = std::get<CountUpdate>(decoded);
  EXPECT_TRUE(m.entries.empty());
}

TEST(Message, PairUpdateRoundTrip) {
  PairUpdate original;
  original.to = 6;
  original.new_partner = 14;
  original.qubit = 9001;
  original.new_partner_qubit = 9002;
  original.z_bit = true;
  original.x_bit = true;
  const Message decoded = decode(encode(original));
  const auto& m = std::get<PairUpdate>(decoded);
  EXPECT_EQ(m.to, 6u);
  EXPECT_EQ(m.new_partner, 14u);
  EXPECT_EQ(m.qubit, 9001u);
  EXPECT_EQ(m.new_partner_qubit, 9002u);
  EXPECT_TRUE(m.z_bit);
  EXPECT_TRUE(m.x_bit);
}

TEST(Message, ConsumeOfferRoundTrip) {
  ConsumeOffer original;
  original.from = 2;
  original.to = 9;
  original.request_id = 555;
  original.initiator_qubit = 1234567;
  original.responder_qubit = 7654321;
  const Message decoded = decode(encode(original));
  const auto& m = std::get<ConsumeOffer>(decoded);
  EXPECT_EQ(m.from, 2u);
  EXPECT_EQ(m.to, 9u);
  EXPECT_EQ(m.request_id, 555u);
  EXPECT_EQ(m.initiator_qubit, 1234567u);
  EXPECT_EQ(m.responder_qubit, 7654321u);
}

TEST(Message, ConsumeReplyRoundTrip) {
  ConsumeReply original;
  original.from = 9;
  original.to = 2;
  original.request_id = 555;
  original.accept = true;
  const Message decoded = decode(encode(original));
  const auto& m = std::get<ConsumeReply>(decoded);
  EXPECT_EQ(m.from, 9u);
  EXPECT_EQ(m.to, 2u);
  EXPECT_EQ(m.request_id, 555u);
  EXPECT_TRUE(m.accept);
}

TEST(Message, TypeTagsStable) {
  EXPECT_EQ(message_type(CountUpdate{}), MessageType::kCountUpdate);
  EXPECT_EQ(message_type(PairUpdate{}), MessageType::kPairUpdate);
  EXPECT_EQ(message_type(ConsumeOffer{}), MessageType::kConsumeOffer);
  EXPECT_EQ(message_type(ConsumeReply{}), MessageType::kConsumeReply);
  EXPECT_EQ(encode(CountUpdate{}).front(), 2u);
  EXPECT_EQ(encode(PairUpdate{}).front(), 6u);
  EXPECT_EQ(encode(ConsumeOffer{}).front(), 7u);
  EXPECT_EQ(encode(ConsumeReply{}).front(), 8u);
}

TEST(Message, DecodeRejectsUnknownTag) {
  const std::vector<std::uint8_t> junk{200, 0, 0};
  EXPECT_THROW((void)decode(junk), PreconditionError);
  // Retired tags stay unknown.
  for (const std::uint8_t tag : {1, 3, 4, 5}) {
    const std::vector<std::uint8_t> retired{tag, 0, 0, 0};
    EXPECT_THROW((void)decode(retired), PreconditionError);
  }
}

TEST(Message, DecodeRejectsTruncatedBody) {
  auto bytes = encode(CountUpdate{42, 7, {{1, 2}, {3, 4}}});
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW((void)decode(bytes), PreconditionError);
}

TEST(Message, EncodedSizeMatchesEncodeLength) {
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    CountUpdate m;
    m.reporter = static_cast<NodeId>(rng.uniform_index(1000));
    const auto entries = rng.uniform_index(20);
    for (std::size_t e = 0; e < entries; ++e) {
      m.entries.push_back({static_cast<NodeId>(rng.uniform_index(1000)),
                           static_cast<std::uint32_t>(rng.uniform_index(100000))});
    }
    EXPECT_EQ(encoded_size(m), encode(m).size());
  }
}

}  // namespace
}  // namespace poq::net
