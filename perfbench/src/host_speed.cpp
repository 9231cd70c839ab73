#include "host_speed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

// Keeps the probe's result observable, so its loop cannot be optimized out.
volatile std::uint64_t probe_sink = 0;

}  // namespace

double host_probe_ns() {
  struct Event {
    std::uint64_t when, seq;
  };
  auto later = [](const Event& a, const Event& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  };
  std::vector<Event> heap;
  heap.reserve(256);
  std::vector<std::uint8_t> frame(136);
  std::map<std::uint32_t, std::uint64_t> table;
  for (std::uint32_t i = 0; i < 20; ++i) table[i * 7] = i;
  std::uint64_t seq = 0, x = 88172645463325252ULL, acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 64; ++i) {
    heap.push_back(Event{next() % 2000, seq++});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  constexpr int kIters = 6250;
  const auto t0 = std::chrono::steady_clock::now();
  for (int it = 0; it < kIters; ++it) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::uint64_t now = heap.back().when;
    heap.pop_back();
    const std::uint64_t r = next();
    for (std::size_t b = 0; b < frame.size(); ++b) {
      frame[b] = static_cast<std::uint8_t>((r >> (b & 31)) ^ b);
    }
    std::uint32_t h = 2166136261u;
    for (std::uint8_t c : frame) h = (h ^ c) * 16777619u;
    const auto found = table.find((h % 20) * 7);
    if (found != table.end()) acc += found->second;
    if ((h & 3) != 0 || heap.size() < 32) {
      heap.push_back(Event{now + 50 + r % 2000, seq++});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    acc += h;
  }
  const auto t1 = std::chrono::steady_clock::now();
  probe_sink = acc;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
}

double NormalizedTimer::now_s() { return wall_now_s(); }

void NormalizedTimer::start() {
  seg_cpu0_ = cpu_now_s();
  seg_wall0_ = now_s();
}

void NormalizedTimer::close_segment() {
  const double wall = now_s() - seg_wall0_;
  const double cpu = cpu_now_s() - seg_cpu0_;
  raw_s_ += wall;
  if (probing_) {
    const double p = host_probe_ns();
    norm_s_ += wall * kReferenceProbeNs / p;
    norm_cpu_s_ += cpu * kReferenceProbeNs / p;
  } else {
    norm_s_ += wall;
    norm_cpu_s_ += cpu;
  }
  start();
}

void NormalizedTimer::stop() { close_segment(); }

}  // namespace perfbench
