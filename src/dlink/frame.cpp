#include "dlink/frame.hpp"

namespace ssr::dlink {
namespace {

constexpr std::size_t kHeaderSize = 1 + 4 + 1;  // kind, link sender, label
constexpr std::size_t kLengthSize = 4;          // kData payload length prefix
constexpr std::size_t kSealSize = 4;

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

wire::Bytes encode_frame(FrameKind kind, NodeId link_sender, std::uint8_t label,
                         const wire::Bytes& payload) {
  const bool data = kind == FrameKind::kData;
  wire::Writer w;
  w.reserve(kHeaderSize + (data ? kLengthSize + payload.size() : 0) +
            kSealSize);
  w.u8(static_cast<std::uint8_t>(kind));
  w.node_id(link_sender);
  w.u8(label);
  if (data) w.bytes(payload);
  w.seal();
  return w.take();
}

std::optional<FrameView> parse_frame(const wire::Bytes& raw) {
  if (raw.size() < kHeaderSize + kSealSize) return std::nullopt;
  const std::uint8_t* p = raw.data();
  if (p[0] < 1 || p[0] > 4) return std::nullopt;
  FrameView f;
  f.kind = static_cast<FrameKind>(p[0]);
  f.link_sender = load_u32(p + 1);
  f.label = p[5];
  std::size_t body = kHeaderSize;
  if (f.kind == FrameKind::kData) {
    if (raw.size() < kHeaderSize + kLengthSize + kSealSize) return std::nullopt;
    f.payload_size = load_u32(p + kHeaderSize);
    if (f.payload_size > raw.size()) return std::nullopt;  // body cannot wrap
    f.payload = p + kHeaderSize + kLengthSize;
    body += kLengthSize + f.payload_size;
  }
  // Exactly one seal after the body: no truncation, no trailing bytes.
  if (raw.size() != body + kSealSize) return std::nullopt;
  if (load_u32(p + body) != wire::fnv1a32(p, body)) return std::nullopt;
  return f;
}

wire::Bytes FrameView::copy_payload() const {
  wire::Bytes out = wire::BufferPool::local().acquire();
  // ssr-lint: allow(hot-path-alloc): assign into a pooled buffer's sticky capacity.
  out.assign(payload, payload + payload_size);
  return out;
}

wire::Bytes Frame::encode() const {
  return encode_frame(kind, link_sender, label, payload);
}

std::optional<Frame> Frame::decode(const wire::Bytes& raw) {
  const std::optional<FrameView> v = parse_frame(raw);
  if (!v) return std::nullopt;
  Frame f;
  f.kind = v->kind;
  f.link_sender = v->link_sender;
  f.label = v->label;
  if (f.kind == FrameKind::kData) f.payload = v->copy_payload();
  return f;
}

wire::Bytes encode_bundle(const std::vector<BundleItem>& items) {
  wire::Writer w;
  std::size_t total = 1;
  for (const auto& item : items) total += 1 + 1 + 4 + item.data.size();
  w.reserve(total);
  w.u8(static_cast<std::uint8_t>(items.size()));
  for (const auto& item : items) {
    w.u8(item.port);
    w.boolean(item.is_state);
    w.bytes(item.data);
  }
  return w.take();
}

bool decode_bundle(const wire::Bytes& raw, std::vector<BundleItem>& out) {
  out.clear();
  wire::Reader r(raw);
  const std::uint8_t n = r.u8();
  out.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i) {
    BundleItem item;
    item.port = r.u8();
    item.is_state = r.boolean();
    item.data = r.bytes();
    if (!r.ok()) return false;
    // ssr-lint: allow(hot-path-alloc): decode scratch growth; buffers inside are pooled.
    out.push_back(std::move(item));
  }
  return r.ok() && r.exhausted();
}

std::optional<std::vector<BundleItem>> decode_bundle(const wire::Bytes& raw) {
  std::vector<BundleItem> items;
  if (!decode_bundle(raw, items)) return std::nullopt;
  return items;
}

}  // namespace ssr::dlink
