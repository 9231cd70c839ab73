#pragma once

// Host-speed normalization of the benchmark's CPU-bound timings.
//
// Shared machines change speed for branchy, cache-sensitive code by tens of
// percent within minutes (other tenants), which would swamp any regression
// bound. So every measured stretch is cut into segments of about kSegmentS,
// and after each segment the clock stops while a fixed probe (about 2.5 ms)
// runs: a small synthetic event loop (heap, byte hash, map lookups) that
// belongs to the benchmark, not to the program. A segment's time is scaled
// by kReferenceProbeNs / probe, so normalized values read as "seconds on a
// host where one probe iteration takes kReferenceProbeNs". Raw wall time is
// kept alongside.

namespace perfbench {

inline constexpr double kReferenceProbeNs = 400;
inline constexpr double kSegmentS = 0.05;

/// Times the probe; returns ns per iteration.
double host_probe_ns();

class NormalizedTimer {
 public:
  /// `probing` = false measures raw time only (the traced run, whose spans
  /// must not contain probe time).
  explicit NormalizedTimer(bool probing) : probing_(probing) {}

  void start();
  /// Closes the current segment once it is kSegmentS old. Cheap enough to
  /// call after every simulation slice.
  void checkpoint() {
    if (probing_ && now_s() - seg_wall0_ >= kSegmentS) close_segment();
  }
  void stop();

  double raw_s() const { return raw_s_; }
  double norm_s() const { return norm_s_; }
  double norm_cpu_s() const { return norm_cpu_s_; }

 private:
  static double now_s();
  void close_segment();

  bool probing_;
  double seg_wall0_ = 0, seg_cpu0_ = 0;
  double raw_s_ = 0, norm_s_ = 0, norm_cpu_s_ = 0;
};

}  // namespace perfbench
