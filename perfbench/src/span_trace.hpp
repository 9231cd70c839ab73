#pragma once

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer (it never instruments the
// program), kept in memory, and written out once the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRun = 0,      ///< the whole timed part
  kSimStep,      ///< one Scheduler::step()
  kDlinkRx,      ///< one LinkMux::handle_packet()
  kHarnessPoll,  ///< one World::converged() / vs_stable() evaluation
  kClientBegin,  ///< one client operation begin call
  kCount,
};

const char* span_name(SpanKind k);

class SpanTrace {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = kNoParent;
    SpanKind kind = SpanKind::kRun;
  };

  /// Per-kind totals. Self time is a span's duration minus the time its
  /// direct children cover.
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  struct Summary {
    std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> kinds{};
    /// sim.step spans that made no handle_packet call: node ticks and link
    /// retransmissions.
    Totals timer_steps;
    Totals of(SpanKind k) const { return kinds[static_cast<std::size_t>(k)]; }
  };

  explicit SpanTrace(std::size_t reserve) { spans_.reserve(reserve); }

  void open(SpanKind kind) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{now_ns(), 0,
                          stack_.empty() ? kNoParent : stack_.back(), kind});
    stack_.push_back(idx);
  }
  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }
  /// Drops the innermost open span (a step call that found no event).
  void cancel() {
    spans_.pop_back();
    stack_.pop_back();
  }

  Summary summarize() const;
  /// Writes every span to `path` (format in the file's first line).
  bool write(const std::string& path) const;

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, SpanKind kind) : trace_(trace) {
    if (trace_ != nullptr) trace_->open(kind);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void cancel() {
    if (trace_ != nullptr) trace_->cancel();
    trace_ = nullptr;
  }

 private:
  SpanTrace* trace_;
};

}  // namespace perfbench
