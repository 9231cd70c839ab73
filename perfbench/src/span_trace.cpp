#include "span_trace.hpp"

#include <cstdio>
#include <filesystem>

namespace perfbench {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRun: return "run";
    case SpanKind::kSimStep: return "sim.step";
    case SpanKind::kDlinkRx: return "dlink.rx";
    case SpanKind::kHarnessPoll: return "harness.poll";
    case SpanKind::kClientBegin: return "client.begin";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanTrace::Summary SpanTrace::summarize() const {
  Summary s;
  std::vector<double> child_ns(spans_.size(), 0);
  std::vector<bool> has_rx(spans_.size(), false);
  for (const Span& sp : spans_) {
    if (sp.parent == kNoParent) continue;
    child_ns[sp.parent] += static_cast<double>(sp.end_ns - sp.start_ns);
    if (sp.kind == SpanKind::kDlinkRx) has_rx[sp.parent] = true;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    const double dur = static_cast<double>(sp.end_ns - sp.start_ns);
    Totals& t = s.kinds[static_cast<std::size_t>(sp.kind)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    if (sp.kind == SpanKind::kSimStep && !has_rx[i]) {
      ++s.timer_steps.count;
      s.timer_steps.total_ns += dur;
      s.timer_steps.self_ns += dur - child_ns[i];
    }
  }
  return s;
}

bool SpanTrace::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // A one-line text header, then fixed 24-byte little-endian records.
  std::fprintf(f,
               "ssr-perfbench spans v1: %zu records of {u64 start_ns, u64 "
               "end_ns, u32 parent (0xffffffff = none), u8 kind, u8[3] pad}; "
               "kinds:",
               spans_.size());
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
    std::fprintf(f, " %zu=%s", k, span_name(static_cast<SpanKind>(k)));
  }
  std::fprintf(f, "\n");
  static_assert(sizeof(Span) == 24, "span record layout");
  const bool ok =
      std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) ==
      spans_.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
