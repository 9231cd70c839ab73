#pragma once

#include <cstdint>
#include <optional>

#include "wire/wire.hpp"

namespace ssr::dlink {

/// Logical multiplexing port for the protocol stack (paper Fig. 1 layers).
using Port = std::uint8_t;

inline constexpr Port kPortRecSA = 1;
inline constexpr Port kPortRecMA = 2;
inline constexpr Port kPortJoin = 3;
inline constexpr Port kPortLabel = 4;
inline constexpr Port kPortCounter = 5;
inline constexpr Port kPortVS = 6;
inline constexpr Port kPortShmem = 7;

/// Data-link frame kinds. A data link is directional; the anti-parallel pair
/// of links between two processors (paper, Section 2) is realized as two
/// independent sender/receiver state machines. Every frame names the
/// *link sender*, so each endpoint can route frames of both links.
enum class FrameKind : std::uint8_t {
  kData = 1,      // sender → receiver: labelled payload
  kAck = 2,       // receiver → sender: acknowledges a label
  kClean = 3,     // sender → receiver: snap-stabilizing cleaning probe
  kCleanAck = 4,  // receiver → sender
};

struct Frame {
  FrameKind kind = FrameKind::kData;
  NodeId link_sender = kNoNode;  // identifies which directed link
  std::uint8_t label = 0;        // bounded ARQ label / cleaning nonce
  wire::Bytes payload;           // bundle bytes (kData only)

  wire::Bytes encode() const;
  /// parse_frame() plus a pooled copy of the payload.
  static std::optional<Frame> decode(const wire::Bytes& raw);
};

/// A parsed, seal-verified frame that borrows its payload from the buffer
/// it was parsed from, so it is valid only while that buffer is. The hot
/// receive path reads headers through it without copying the payload.
struct FrameView {
  FrameKind kind = FrameKind::kData;
  NodeId link_sender = kNoNode;
  std::uint8_t label = 0;
  const std::uint8_t* payload = nullptr;  // kData only; points into raw
  std::size_t payload_size = 0;

  /// The payload in a buffer from the thread's BufferPool.
  wire::Bytes copy_payload() const;
};

/// The frame layout, written once: u8 kind, u32 link sender, u8 label,
/// (kData only) u32-length-prefixed payload, then the u32 seal over every
/// preceding byte. `payload` is ignored for the other kinds.
wire::Bytes encode_frame(FrameKind kind, NodeId link_sender, std::uint8_t label,
                         const wire::Bytes& payload = {});

/// The one frame parser: nullopt unless `raw` is exactly one well-formed
/// frame whose seal verifies. The seal covers every preceding byte: a
/// flipped bit in a value field parses structurally but not semantically —
/// without it, corrupt_probability runs can deliver a valid-looking message
/// with different content (found by scenario_fuzz as a VS divergence).
std::optional<FrameView> parse_frame(const wire::Bytes& raw);

/// One multiplexed item inside a data frame's payload bundle.
struct BundleItem {
  Port port = 0;
  bool is_state = true;  // state slot (coalesced) vs. queued datagram
  wire::Bytes data;
};

wire::Bytes encode_bundle(const std::vector<BundleItem>& items);
std::optional<std::vector<BundleItem>> decode_bundle(const wire::Bytes& raw);
/// Allocation-light variant for the per-frame hot path: decodes into `out`
/// (cleared first, capacity reused across frames). Returns false on a
/// corrupted bundle; `out` may then hold a partial decode.
bool decode_bundle(const wire::Bytes& raw, std::vector<BundleItem>& out);

}  // namespace ssr::dlink
