#include "scenario/trace.hpp"

#include <sstream>

#include "harness/world.hpp"
#include "scenario/scenario.hpp"

namespace ssr::scenario {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t digest_config(const reconf::ConfigValue& c) {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  h = TraceRecorder::mix(h, static_cast<std::uint64_t>(c.tag()));
  if (c.is_set()) {
    for (NodeId id : c.ids()) h = TraceRecorder::mix(h, id);
  }
  return h;
}

std::uint64_t digest_view(const vs::View& v) {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  h = TraceRecorder::mix(h, v.id.seqn);
  h = TraceRecorder::mix(h, v.id.wid);
  for (NodeId id : v.set) h = TraceRecorder::mix(h, id);
  return h;
}

std::uint64_t digest_batch(
    const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  for (const auto& [id, m] : msgs) {
    h = TraceRecorder::mix(h, id);
    for (std::uint8_t byte : m) h = TraceRecorder::mix(h, byte);
  }
  return h;
}

/// Thread-local free list of trace segments, mirroring wire::BufferPool:
/// recorders on one thread (a sweep worker churning through jobs, the bench
/// loop) hand segments back on destruction and the next recorder picks them
/// up warm. Bounded so a one-off giant trace cannot pin memory forever.
class SegmentPool {
 public:
  static constexpr std::size_t kMaxFree = 32;

  std::unique_ptr<TraceRecorder::Segment> acquire() {
    if (!free_.empty()) {
      auto seg = std::move(free_.back());
      free_.pop_back();
      return seg;
    }
    // ssr-lint: allow(hot-path-alloc) pool miss: only while this thread's
    // high-water trace size is still growing; recycled ever after.
    return std::make_unique<TraceRecorder::Segment>();
  }

  void release(std::unique_ptr<TraceRecorder::Segment> seg) {
    if (free_.size() >= kMaxFree) return;  // drop: bounded retention
    // ssr-lint: allow(hot-path-alloc) free-list growth is bounded by
    // kMaxFree slots and amortized across every later acquire().
    free_.push_back(std::move(seg));
  }

  static SegmentPool& local() {
    thread_local SegmentPool pool;
    return pool;
  }

 private:
  std::vector<std::unique_ptr<TraceRecorder::Segment>> free_;
};

}  // namespace

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kPhaseStart: return "phase";
    case TraceKind::kActionApplied: return "action";
    case TraceKind::kNodeAdded: return "node_added";
    case TraceKind::kNodeCrashed: return "node_crashed";
    case TraceKind::kConfigChange: return "config_change";
    case TraceKind::kViewInstall: return "view_install";
    case TraceKind::kVsDeliver: return "vs_deliver";
    case TraceKind::kIncrementDone: return "increment_done";
    case TraceKind::kShmemOpDone: return "shmem_op_done";
    case TraceKind::kConverged: return "converged";
    case TraceKind::kVsStable: return "vs_stable";
    case TraceKind::kStableMarked: return "stable_marked";
    case TraceKind::kQuiescent: return "quiescent";
    case TraceKind::kNodePaused: return "node_paused";
    case TraceKind::kNodeResumed: return "node_resumed";
    case TraceKind::kNodeSample: return "node_sample";
  }
  return "unknown";
}

std::uint64_t TraceRecorder::mix(std::uint64_t h, std::uint64_t x) {
  // Word-wise FNV-1a: eight rounds keep the full 64 bits of `x` in play.
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((x >> (8 * i)) & 0xFF)) * kFnvPrime;
  }
  return h;
}

std::uint64_t digest_ids(const IdSet& ids) {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  for (NodeId id : ids) h = TraceRecorder::mix(h, id);
  return h;
}

std::uint64_t digest_name(const std::string& s) {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  for (char c : s) h = TraceRecorder::mix(h, static_cast<std::uint8_t>(c));
  return h;
}

std::uint64_t digest_action(const Action& a) {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  h = TraceRecorder::mix(h, digest_ids(a.targets));
  h = TraceRecorder::mix(h, digest_ids(a.group_b));
  h = TraceRecorder::mix(h, a.n);
  h = TraceRecorder::mix(h, a.duration);
  for (char c : a.reg) h = TraceRecorder::mix(h, static_cast<std::uint8_t>(c));
  return h;
}

TraceRecorder::~TraceRecorder() {
  for (auto& seg : segs_) {
    if (seg) SegmentPool::local().release(std::move(seg));
  }
}

void TraceRecorder::grow() {
  // ssr-lint: allow(hot-path-alloc) segment-pointer vector: grows once per
  // kSegmentEvents records and only past the recorder's high-water mark.
  segs_.push_back(SegmentPool::local().acquire());
}

void TraceRecorder::attach(harness::World& world) {
  world_ = &world;
  for (NodeId id : world.all_ids()) attach_node(world, id);
}

void TraceRecorder::attach_node(harness::World& world, NodeId id) {
  world_ = &world;
  auto& n = world.node(id);
  n.recsa().add_config_change_handler(
      [this, id](const reconf::ConfigValue& c) {
        record(TraceKind::kConfigChange, id, digest_config(c));
      });
  if (auto* v = n.vs()) {
    v->add_view_install_handler([this, id](const vs::View& view) {
      record(TraceKind::kViewInstall, id, digest_view(view));
    });
    v->add_deliver_handler(
        [this, id](const vs::View& view, std::uint64_t rnd,
                   const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
          std::uint64_t key = mix(digest_view(view), rnd);
          record(TraceKind::kVsDeliver, id, key, digest_batch(msgs));
        });
  }
}

void TraceRecorder::record(TraceKind kind, NodeId node, std::uint64_t a,
                           std::uint64_t b) {
  if (size_ == segs_.size() * kSegmentEvents) grow();
  TraceEvent& ev = segs_[size_ / kSegmentEvents]->ev[size_ % kSegmentEvents];
  if (clock_) {
    ev.when = clock_();
  } else if (world_ != nullptr) {
    ev.when = world_->scheduler().now();
  } else {
    ev.when = 0;
  }
  ev.node = node;
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  ++size_;
}

std::uint64_t TraceRecorder::hash() const {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = (*this)[i];
    h = mix(h, e.when);
    h = mix(h, e.node);
    h = mix(h, static_cast<std::uint64_t>(e.kind));
    h = mix(h, e.a);
    h = mix(h, e.b);
  }
  return h;
}

std::string TraceRecorder::format_event(const TraceEvent& e) {
  std::ostringstream os;
  os << e.when / kMsec << "ms\t";
  if (e.node == kNoNode) {
    os << "-";
  } else {
    os << "n" << e.node;
  }
  os << "\t" << to_string(e.kind) << "\t" << std::hex << e.a << "\t" << e.b
     << std::dec;
  return os.str();
}

std::string TraceRecorder::dump(std::size_t max_lines) const {
  std::ostringstream os;
  std::size_t n = size_;
  if (max_lines != 0 && max_lines < n) n = max_lines;
  for (std::size_t i = 0; i < n; ++i) {
    os << format_event((*this)[i]) << "\n";
  }
  if (n < size_) {
    os << "... (" << size_ - n << " more)\n";
  }
  return os.str();
}

void TraceRecorder::save(std::ostream& os) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = (*this)[i];
    os << e.when << ' ' << e.node << ' '
       << static_cast<std::uint64_t>(e.kind) << ' ' << std::hex << e.a << ' '
       << e.b << std::dec << '\n';
  }
  os << "hash " << std::hex << hash() << std::dec << '\n';
}

std::optional<std::vector<TraceEvent>> TraceRecorder::load(std::istream& is) {
  std::vector<TraceEvent> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first == "hash") continue;  // trailer; the events are the record
    TraceEvent e;
    std::uint64_t kind = 0;
    std::istringstream when_s(first);
    if (!(when_s >> e.when)) return std::nullopt;
    if (!(ls >> e.node >> kind >> std::hex >> e.a >> e.b)) return std::nullopt;
    e.kind = static_cast<TraceKind>(kind);
    // ssr-lint: allow(hot-path-alloc) golden-trace parsing: tooling path
    // (--diff), never on the recording hot path.
    out.push_back(e);
  }
  return out;
}

}  // namespace ssr::scenario
