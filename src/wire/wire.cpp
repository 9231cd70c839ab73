#include "wire/wire.hpp"

#include <bit>
#include <cstring>

namespace ssr::wire {

namespace {

/// One 64-bit multiply-xorshift step: a bijection of `h` for a fixed word
/// and of the word for a fixed `h`, so two inputs that differ in a single
/// word always leave different states behind.
inline std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;  // odd: invertible
  h = (h ^ w) * kMul;
  return h ^ (h >> 32);
}

}  // namespace

std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t len) {
  // Words are read in host order; the wire format is little-endian, so only
  // a little-endian host computes the seal a peer expects.
  static_assert(std::endian::native == std::endian::little,
                "the frame seal reads 8-byte words as little-endian");
  std::uint64_t h = 0xCBF29CE484222325ULL ^ static_cast<std::uint64_t>(len);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, 8);
    h = mix_word(h, w);
  }
  std::uint64_t tail = 0;
  if (i < len) std::memcpy(&tail, data + i, len - i);
  h = mix_word(h, tail);
  // fmix64 avalanche (MurmurHash3 finalizer), folded to 32 bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

Bytes BufferPool::acquire() {
  ++stats_.acquired;
  if (free_.empty()) return {};
  ++stats_.reused;
  Bytes b = std::move(free_.back());
  free_.pop_back();
  return b;
}

void BufferPool::release(Bytes&& b) {
  if (b.capacity() == 0 || b.capacity() > kMaxRetainedCapacity ||
      free_.size() >= kMaxPooled) {
    ++stats_.dropped;
    return;  // let it free normally
  }
  ++stats_.released;
  b.clear();
  // ssr-lint: allow(hot-path-alloc): freelist growth is bounded by kMaxPooled.
  free_.push_back(std::move(b));
}

// ssr-lint: allow(hot-path-alloc): amortized into the pooled buffer's sticky capacity
// (allocs/packet = 0 at steady state, asserted by BM_ChannelSendAlloc).
void Writer::u8(std::uint8_t v) { out_.push_back(v); }

// Multi-byte little-endian fields grow the buffer once and store through a
// raw pointer: one capacity check per field instead of one per byte (these
// run per field of every frame the simulator moves).

void Writer::u16(std::uint16_t v) {
  const std::size_t n = out_.size();
  out_.resize(n + 2);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void Writer::u32(std::uint32_t v) {
  const std::size_t n = out_.size();
  out_.resize(n + 4);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Writer::u64(std::uint64_t v) {
  const std::size_t n = out_.size();
  out_.resize(n + 8);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::id_set(const IdSet& s) {
  // One growth for the whole set: id sets ride in every protocol
  // broadcast, so the per-field resize adds up.
  const std::size_t count = s.size();
  const std::size_t n = out_.size();
  out_.resize(n + 2 + 4 * count);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  *p++ = static_cast<std::uint8_t>(count);
  *p++ = static_cast<std::uint8_t>(count >> 8);
  for (NodeId id : s) {
    for (int i = 0; i < 4; ++i) {
      *p++ = static_cast<std::uint8_t>(id >> (8 * i));
    }
  }
}

void Writer::bytes(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  out_.insert(out_.end(), b.begin(), b.end());  // ssr-lint: allow(hot-path-alloc): pooled capacity
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());  // ssr-lint: allow(hot-path-alloc): pooled capacity
}

bool Reader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) ok_ = false;  // corrupted flag byte
  return v == 1;
}

IdSet Reader::id_set() {
  std::uint16_t n = u16();
  if (!ok_ || n > kMaxElements) {
    ok_ = false;
    return {};
  }
  std::vector<NodeId> ids;
  ids.reserve(n);
  // ssr-lint: allow(hot-path-alloc): single reserved growth per decoded set.
  for (std::uint16_t i = 0; i < n && ok_; ++i) ids.push_back(node_id());
  if (!ok_) return {};
  return IdSet::from_vector(std::move(ids));
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  // Pooled so the per-frame payload slice on the decode path rides the
  // same freelist as the encode/transport buffers.
  Bytes out = BufferPool::local().acquire();
  // ssr-lint: allow(hot-path-alloc): assign into a pooled buffer's sticky capacity.
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string Reader::str() {
  std::uint32_t n = u32();
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace ssr::wire
