// The frame seal: known-answer digests that pin the wire format, and the
// guarantee the seal exists for — no single flipped bit anywhere in a frame
// (a value field included) survives decoding.
#include <gtest/gtest.h>

#include <memory>

#include "dlink/frame.hpp"

namespace ssr::dlink {
namespace {

/// Digest of `len` bytes 0, 1, 2, … in a heap block of exactly that size,
/// so a sanitized build catches any read past the end.
std::uint32_t seal_of_counting(std::size_t len) {
  if (len == 0) return wire::fnv1a32(nullptr, 0);
  auto block = std::make_unique<std::uint8_t[]>(len);
  for (std::size_t i = 0; i < len; ++i) block[i] = static_cast<std::uint8_t>(i);
  return wire::fnv1a32(block.get(), len);
}

wire::Bytes data_frame(std::size_t payload_len) {
  Frame f;
  f.kind = FrameKind::kData;
  f.link_sender = 0x01020304;
  f.label = 11;
  for (std::size_t i = 0; i < payload_len; ++i) {
    f.payload.push_back(static_cast<std::uint8_t>(i * 37 + 5));
  }
  return f.encode();
}

void expect_every_bit_flip_rejected(const wire::Bytes& valid) {
  ASSERT_TRUE(parse_frame(valid).has_value());
  ASSERT_TRUE(Frame::decode(valid).has_value());
  wire::Bytes flipped = valid;
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(parse_frame(flipped).has_value())
          << valid.size() << " B frame, byte " << byte << " bit " << bit;
      EXPECT_FALSE(Frame::decode(flipped).has_value())
          << valid.size() << " B frame, byte " << byte << " bit " << bit;
      flipped[byte] = valid[byte];
    }
  }
}

// Changing any of these is a wire-format change: peers built before and
// after it no longer accept each other's frames.
TEST(FrameSeal, KnownAnswers) {
  const std::uint32_t expected[] = {
      0x7C07A47Eu, 0xC3FBCA9Au, 0xA9F17E5Au, 0x9F039E83u, 0x162D71CCu,
      0xB3BF7CBAu, 0x79B5C482u, 0x08E2A0C2u, 0xE6D0EEA3u, 0x6D552106u,
  };
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 139};
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    EXPECT_EQ(seal_of_counting(lengths[i]), expected[i])
        << "length " << lengths[i];
  }
  const wire::Bytes ack = encode_frame(FrameKind::kAck, 7, 3);
  EXPECT_EQ(ack, (wire::Bytes{2, 7, 0, 0, 0, 3, 0x33, 0xDE, 0x5D, 0x21}));
}

TEST(FrameSeal, EveryTailLengthRejectsEveryBitFlip) {
  for (std::size_t len = 0; len <= 40; ++len) {
    SCOPED_TRACE(len);
    expect_every_bit_flip_rejected(data_frame(len));
  }
}

TEST(FrameSeal, BenchmarkSizedFramesRejectEveryBitFlip) {
  // 139 B and 423 B are the mean data frames of the silent and services
  // benchmark workloads.
  for (std::size_t size : {139u, 423u}) {
    const wire::Bytes frame = data_frame(size - 14);
    ASSERT_EQ(frame.size(), size);
    expect_every_bit_flip_rejected(frame);
  }
}

TEST(FrameSeal, ControlFramesRejectEveryBitFlip) {
  for (FrameKind kind :
       {FrameKind::kAck, FrameKind::kClean, FrameKind::kCleanAck}) {
    expect_every_bit_flip_rejected(encode_frame(kind, 42, 9));
  }
}

TEST(FrameParse, ViewBorrowsThePayload) {
  const wire::Bytes raw = data_frame(5);
  const std::optional<FrameView> v = parse_frame(raw);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, FrameKind::kData);
  EXPECT_EQ(v->link_sender, 0x01020304u);
  EXPECT_EQ(v->label, 11);
  ASSERT_EQ(v->payload_size, 5u);
  EXPECT_EQ(v->payload, raw.data() + 10);
  EXPECT_EQ(v->copy_payload(), Frame::decode(raw)->payload);
}

TEST(FrameParse, RejectsTruncationTrailingBytesAndOversizedLength) {
  const wire::Bytes raw = data_frame(8);
  for (std::size_t len = 0; len < raw.size(); ++len) {
    const wire::Bytes cut(raw.begin(), raw.begin() + static_cast<long>(len));
    EXPECT_FALSE(parse_frame(cut).has_value()) << len;
  }
  wire::Bytes longer = raw;
  longer.push_back(0);
  EXPECT_FALSE(parse_frame(longer).has_value());
  // A length prefix pointing far past the buffer, resealed so only the
  // length check can refuse it.
  wire::Bytes huge = raw;
  huge[6] = huge[7] = huge[8] = huge[9] = 0xFF;
  const std::uint32_t seal = wire::fnv1a32(huge.data(), huge.size() - 4);
  for (int i = 0; i < 4; ++i) {
    huge[huge.size() - 4 + i] = static_cast<std::uint8_t>(seal >> (8 * i));
  }
  EXPECT_FALSE(parse_frame(huge).has_value());
}

}  // namespace
}  // namespace ssr::dlink
