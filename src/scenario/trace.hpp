#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ssr {
class IdSet;
}
namespace ssr::harness {
class World;
}

namespace ssr::scenario {

struct Action;

/// Canonical event kinds recorded by every scenario run. The stream is the
/// ground truth the invariant registry and the replay tests reason about:
/// two runs are "the same execution" iff their streams hash identically.
enum class TraceKind : std::uint8_t {
  kPhaseStart = 1,   ///< a = FNV hash of the phase name
  kActionApplied,    ///< node = kNoNode, a = ActionKind, b = param digest
  kNodeAdded,
  kNodeCrashed,
  kConfigChange,     ///< a = digest of the new ConfigValue
  kViewInstall,      ///< a = digest of the installed view
  kVsDeliver,        ///< a = (view id, rnd) digest, b = batch digest
  kIncrementDone,    ///< a = 1 completed / 0 aborted, b = counter seqn
  kShmemOpDone,      ///< a = 1 ok / 0 aborted, b = read(0)/write(1)
  kConverged,        ///< a = digest of the common configuration
  kVsStable,
  kStableMarked,
  kQuiescent,        ///< a = 1 drained / 0 still busy at budget
  kNodePaused,       ///< SIGSTOP (process) / fabric isolation (sim)
  kNodeResumed,      ///< SIGCONT (process) / fabric rejoin (sim)
  kNodeSample,       ///< process backend poll: a = config digest,
                     ///< b = bit0 participant, bit1 noReco
};

const char* to_string(TraceKind k);

struct TraceEvent {
  SimTime when = 0;
  NodeId node = kNoNode;
  TraceKind kind = TraceKind::kPhaseStart;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Records the canonical event stream of one run and folds it into a stable
/// 64-bit hash (FNV-1a over the packed event fields). Attach before any
/// traffic flows; explicit events (actions, convergence points) are pushed
/// by the runner via record().
///
/// Storage is a ring of fixed-size segments drawn from a thread-local pool:
/// record() is a slot write — never a reallocate-and-copy — and allocates
/// only while the trace outgrows every segment seen so far on this thread.
/// clear() rewinds without releasing segments and the destructor returns
/// them to the pool, so recorders churned by a sweep worker reuse the same
/// storage run after run (asserted by BM_TraceRecordAlloc).
class TraceRecorder {
 public:
  /// Events per pooled segment. Sized so one segment covers every library
  /// scenario's trace (tens of events) while heavy fuzz/sweep traces grow
  /// in coarse, pool-recyclable steps.
  static constexpr std::size_t kSegmentEvents = 512;
  struct Segment {
    TraceEvent ev[kSegmentEvents];
  };

  TraceRecorder() = default;
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  TraceRecorder(TraceRecorder&&) = default;
  TraceRecorder& operator=(TraceRecorder&&) = default;

  void attach(harness::World& world);
  void attach_node(harness::World& world, NodeId id);

  /// World-less time source (process backend: wall clock since run start).
  /// When set it wins over the attached world's scheduler.
  // ssr-lint: allow(hot-path-alloc) std::function: set once per run by the
  // process backend, never on the per-event path.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  void record(TraceKind kind, NodeId node, std::uint64_t a = 0,
              std::uint64_t b = 0);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TraceEvent& operator[](std::size_t i) const {
    return segs_[i / kSegmentEvents]->ev[i % kSegmentEvents];
  }

  /// Rewinds to empty while keeping every segment: the next run records
  /// into warm storage without touching the heap (the "ring" reuse).
  void clear() { size_ = 0; }

  std::uint64_t hash() const;

  /// Human-readable dump of up to `max_lines` events (0 = all).
  std::string dump(std::size_t max_lines = 0) const;

  /// Machine-readable golden format for `scenario_runner --record/--diff`:
  /// one "when node kind a b" line per event (decimal when/node/kind, hex
  /// a/b), terminated by a "hash <hex>" line.
  void save(std::ostream& os) const;
  /// Parses the save() format; nullopt on any malformed line.
  static std::optional<std::vector<TraceEvent>> load(std::istream& is);

  /// One-line rendering of one event (shared by dump() and the --diff
  /// divergence report).
  static std::string format_event(const TraceEvent& e);

  /// FNV-1a over an arbitrary byte-less word sequence — exposed so callers
  /// digest configs/views consistently with the recorder itself.
  static std::uint64_t mix(std::uint64_t h, std::uint64_t x);
  static constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

 private:
  /// Appends one segment (pool hit: zero heap traffic). Cold: called once
  /// per kSegmentEvents records, and only past the high-water mark.
  void grow();

  harness::World* world_ = nullptr;
  // ssr-lint: allow(hot-path-alloc) std::function: assigned once per run
  // (process backend), read-only on the per-event path.
  std::function<SimTime()> clock_;
  std::vector<std::unique_ptr<Segment>> segs_;
  std::size_t size_ = 0;
};

/// Trace-payload digests shared by every backend, folded with
/// TraceRecorder::mix so the recorded words are backend-independent.
std::uint64_t digest_ids(const IdSet& ids);
std::uint64_t digest_name(const std::string& s);
/// Every parameter of an action (kind excluded: it is recorded alongside).
/// The shard target is left out too: a shard's trace is the same stream
/// whichever way the step was addressed to it.
std::uint64_t digest_action(const Action& a);

}  // namespace ssr::scenario
