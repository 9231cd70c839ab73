// The three simulator workloads: sim-silent, sim-recovery, sim-services.
//
// Each run is a sequence of repetitions ("reps"). Rep r builds a fresh
// harness::World seeded from (seed, r), boots five nodes from the
// all-joiner state, awaits convergence, and then runs the workload's timed
// part. The first kCountedReps reps are the run's fixed amount of work:
// their virtual-time metrics and stats() counts are exact per seed. Further
// reps run until --seconds of wall time have passed and only add wall-clock
// samples. With --trace 1 the first rep is re-run with spans recorded, and
// its counts must match the untraced rep exactly.
//
// The system is driven from outside through public APIs only: World,
// FaultInjector, InvariantRegistry, the node clients and each layer's
// stats(). Client latency is taken at the completion callback in virtual
// time.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "dlink/frame.hpp"
#include "harness/fault_injector.hpp"
#include "harness/world.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "scenario/invariants.hpp"
#include "span_trace.hpp"
#include "vs/state_machine.hpp"

namespace perfbench {
namespace {

using namespace ssr;

enum class Workload { kSilent, kRecovery, kServices };

constexpr std::size_t kNodes = 5;
constexpr std::size_t kCountedReps = 3;
constexpr std::size_t kSetupProbes = 24;
/// Polling period of the benchmark's awaits (converged(), vs_stable()).
constexpr SimTime kPoll = 1 * kMsec;
/// Token rounds every link must complete to confirm a convergence.
constexpr std::uint64_t kConfirmRounds = 2;
/// Longest stretch of virtual time run between two timer checkpoints.
constexpr SimTime kSlice = 20 * kMsec;

// sim-silent
constexpr SimTime kQuietPhase = 20 * kSec;
// sim-recovery
constexpr std::size_t kEpisodesPerRep = 36;
constexpr SimTime kClosureWindow = 200 * kMsec;
constexpr SimTime kPartitionHold = 1 * kSec;
constexpr SimTime kRecoveryBudget = 600 * kSec;
// sim-services
constexpr SimTime kOpenPhase = 12 * kSec;
constexpr SimTime kClosedPhase = 6 * kSec;
constexpr SimTime kDrainBudget = 120 * kSec;
constexpr std::size_t kRegisters = 8;
constexpr std::size_t kKvKeys = 16;
/// Open-loop arrival rates per node and second.
constexpr double kReadRate = 6, kWriteRate = 3, kIncRate = 8, kCmdRate = 8;
/// Back-off before re-trying a refused or aborted attempt.
constexpr SimTime kRetryBackoff = 5 * kMsec;

double ms(SimTime t) { return static_cast<double>(t) / kMsec; }

/// Concatenates the stream forms of `parts`.
template <class... T>
std::string cat(const T&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}
double sec(SimTime t) { return static_cast<double>(t) / kSec; }

/// Work counts, read from public stats() accessors (plus the benchmark's own
/// receive wrapper for delivered bytes). Exact for a given seed.
struct Counts {
  std::uint64_t events = 0, packets_sent = 0, packets_delivered = 0,
                lost = 0, overflowed = 0;
  std::uint64_t rounds = 0, frames_delivered = 0, cleans = 0,
                stale_discarded = 0, dead_links = 0;
  std::uint64_t resets = 0, installs = 0, phase_transitions = 0,
                stale_detected = 0, recma_triggers = 0, joins = 0;
  std::uint64_t label_rebuilds = 0, label_exchanges = 0, label_created = 0;
  std::uint64_t ctr_exchanges = 0, ctr_aborts_sent = 0, inc_aborted = 0;
  std::uint64_t views_installed = 0, rounds_applied = 0, suspensions = 0;
  std::uint64_t shmem_ops_aborted = 0, shmem_server_aborts = 0;
  std::uint64_t pool_acquired = 0, pool_reused = 0, slots_peak = 0;
  std::uint64_t rx_packets = 0, rx_bytes = 0;

  bool same_work(const Counts& o) const {
    return events == o.events && packets_sent == o.packets_sent &&
           packets_delivered == o.packets_delivered && rounds == o.rounds;
  }
  void add(const Counts& o) {
    events += o.events, packets_sent += o.packets_sent;
    packets_delivered += o.packets_delivered, lost += o.lost;
    overflowed += o.overflowed, rounds += o.rounds;
    frames_delivered += o.frames_delivered, cleans += o.cleans;
    stale_discarded += o.stale_discarded, dead_links += o.dead_links;
    resets += o.resets, installs += o.installs;
    phase_transitions += o.phase_transitions;
    stale_detected += o.stale_detected, recma_triggers += o.recma_triggers;
    joins += o.joins, label_rebuilds += o.label_rebuilds;
    label_exchanges += o.label_exchanges, label_created += o.label_created;
    ctr_exchanges += o.ctr_exchanges, ctr_aborts_sent += o.ctr_aborts_sent;
    inc_aborted += o.inc_aborted, views_installed += o.views_installed;
    rounds_applied += o.rounds_applied, suspensions += o.suspensions;
    shmem_ops_aborted += o.shmem_ops_aborted;
    shmem_server_aborts += o.shmem_server_aborts;
    pool_acquired += o.pool_acquired, pool_reused += o.pool_reused;
    slots_peak = std::max(slots_peak, o.slots_peak);
    rx_packets += o.rx_packets, rx_bytes += o.rx_bytes;
  }
};

/// What one rep measured.
struct RepResult {
  std::vector<std::string> errors;
  double setup_s = 0;
  double converge_ms = 0;
  // Timed part: host-speed normalized wall and CPU seconds, raw wall seconds.
  double wall_s = 0, cpu_s = 0, raw_wall_s = 0;
  double node_seconds = 0;    // alive nodes x virtual seconds, timed part
  std::uint64_t timed_events = 0, timed_sent = 0, timed_delivered = 0,
                timed_rx_bytes = 0;
  Counts counts;  // whole rep
  std::vector<double> recovery_ms;
  std::uint64_t false_converged = 0;
  // sim-services
  std::vector<double> op_ms, queue_ms, inc_ms, read_ms, write_ms, cmd_ms;
  std::uint64_t attempted = 0, failed = 0, attempts = 0,
                retries = 0, closed_completed = 0, cmds_delivered = 0;
  double closed_seconds = 0;
  std::optional<double> unavailable_ms;
  // traced rep
  std::optional<SpanTrace::Summary> spans;
  std::vector<wire::Bytes> corpus;
};

// -- Load generator for sim-services ------------------------------------------

enum class OpKind : std::uint8_t { kRead, kWrite, kInc, kCmd };

struct Op {
  std::uint64_t id = 0;
  OpKind kind = OpKind::kRead;
  SimTime due = 0;
  SimTime begun = 0;
  bool open_loop = true;
};

/// One node's clients: a register-service queue (reads and writes share the
/// service, one operation at a time), an increment queue, and the SMR
/// commands submitted but not yet delivered.
struct Client {
  NodeId node = kNoNode;
  bool dead = false;
  std::deque<Op> shmem_q, inc_q, cmds;
  bool shmem_busy = false, inc_busy = false;
  std::uint64_t closed_seq = 0;
};

class SimRep {
 public:
  SimRep(Workload w, std::uint64_t seed, SpanTrace* trace, bool capture)
      : workload_(w), seed_(seed), trace_(trace), capture_(capture),
        gen_(seed ^ 0x10AD) {}

  std::optional<double> set_up();
  RepResult run();

 private:
  // -- Harness plumbing -------------------------------------------------------
  void begin_timed();
  void end_timed();
  void sum_packets(std::uint64_t& sent, std::uint64_t& delivered);
  NodeId add_node();
  void attach_rx(NodeId id);
  void advance_to(SimTime t);
  template <class Pred>
  std::optional<SimTime> await(SimTime budget, Pred pred);
  template <class Pred>
  std::optional<SimTime> await_converged(SimTime budget, Pred extra);
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> link_rounds();
  bool check(bool ok, const std::string& what) {
    if (!ok) r_.errors.push_back(what);
    return ok;
  }
  SimTime now() { return world_->scheduler().now(); }
  Counts collect();

  // -- Workloads --------------------------------------------------------------
  void run_silent();
  void run_recovery();
  void run_services();
  void finish_checks();

  // -- sim-services load ------------------------------------------------------
  void schedule_arrival(std::size_t c, OpKind kind, double rate);
  void submit(std::size_t c, Op op);
  void pump(std::size_t c);
  void begin_shmem(std::size_t c);
  void begin_inc(std::size_t c);
  void retry_later(std::size_t c);
  void complete(std::size_t c, const Op& op);
  void next_closed(std::size_t c, OpKind kind);
  std::optional<wire::Bytes> fetch(std::size_t c);
  void on_deliver(const std::vector<std::pair<NodeId, wire::Bytes>>& msgs);
  bool clients_idle() const;

  Workload workload_;
  std::uint64_t seed_;
  SpanTrace* trace_;    // the traced run's recorder (null when untraced)
  SpanTrace* active_ = nullptr;  // trace_ while inside the timed part
  bool capture_;
  Rng gen_;  // the benchmark's own draws (arrivals, fault targets)

  /// Set while inside the set-up or the timed part.
  std::optional<NormalizedTimer> timer_;
  std::uint64_t sent0_ = 0, delivered0_ = 0, events0_ = 0, bytes0_ = 0;
  SimTime vt0_ = 0;

  std::unique_ptr<harness::FaultInjector> injector_;
  std::unique_ptr<scenario::InvariantRegistry> registry_;
  NodeId next_id_ = 1;
  std::uint64_t rx_packets_ = 0, rx_bytes_ = 0;
  wire::BufferPool::Stats pool_at_start_;
  RepResult r_;

  std::vector<Client> clients_;
  bool open_loop_ = false, closed_loop_ = false;
  SimTime closed_start_ = 0;
  std::uint64_t next_op_id_ = 1;
  /// SMR commands submitted and not yet delivered, by op id.
  std::map<std::uint64_t, Op> cmd_ops_;
  SimTime crash_at_ = 0;
  bool crashed_crd_ = false;

  /// Declared last, so it is destroyed first: the nodes and pending events
  /// hold callbacks into every other member.
  std::unique_ptr<harness::World> world_;
};

NodeId SimRep::add_node() {
  const NodeId id = next_id_++;
  world_->add_node(id);
  attach_rx(id);
  registry_->attach_node(id);
  return id;
}

// Replaces the node's packet handler by one that mirrors Node's own
// (`if (!crashed()) mux().handle_packet(pkt)`) and additionally counts
// delivered bytes, records the dlink.rx span and samples the frame corpus.
// The lookup happens at delivery time, so re-attaching before the next step
// leaves the execution unchanged.
void SimRep::attach_rx(NodeId id) {
  node::Node* n = &world_->node(id);
  world_->transport().detach(id);
  world_->transport().attach(id, [this, n](const net::Packet& pkt) {
    if (n->crashed()) return;
    ++rx_packets_;
    rx_bytes_ += pkt.payload.size();
    if (capture_ && (rx_packets_ & 15) == 0 && r_.corpus.size() < 8192) {
      r_.corpus.push_back(pkt.payload);
    }
    ScopedSpan span(active_, SpanKind::kDlinkRx);
    n->mux().handle_packet(pkt);
  });
}

// Advances virtual time to `t`. Traced: step by step, one sim.step span per
// executed event, then run_until to set the clock — exactly what run_until
// does. Untraced: run_until directly. Inside the timed part time advances
// in kSlice slices (run_until(a); run_until(b) executes exactly what
// run_until(b) does) so the timer can cut its segments.
void SimRep::advance_to(SimTime t) {
  sim::Scheduler& s = world_->scheduler();
  for (;;) {
    const SimTime end = timer_ ? std::min(t, s.now() + kSlice) : t;
    if (active_ != nullptr) {
      for (;;) {
        ScopedSpan span(active_, SpanKind::kSimStep);
        if (!s.step(end)) {
          span.cancel();
          break;
        }
      }
    }
    s.run_until(end);
    if (timer_) timer_->checkpoint();
    if (end >= t) return;
  }
}

void SimRep::sum_packets(std::uint64_t& sent, std::uint64_t& delivered) {
  world_->network().for_each_channel([&](NodeId, NodeId, net::Channel& ch) {
    sent += ch.stats().sent;
    delivered += ch.stats().delivered;
  });
}

// The timed part: normalized wall and CPU clocks, the `run` span (spans are
// recorded inside the timed part only) and the work-count deltas.
void SimRep::begin_timed() {
  sum_packets(sent0_, delivered0_);
  events0_ = world_->scheduler().events_executed();
  bytes0_ = rx_bytes_;
  vt0_ = now();
  active_ = trace_;
  if (trace_ != nullptr) trace_->open(SpanKind::kRun);
  timer_.emplace(/*probing=*/trace_ == nullptr);
  timer_->start();
}

void SimRep::end_timed() {
  timer_->stop();
  r_.wall_s = timer_->norm_s();
  r_.cpu_s = timer_->norm_cpu_s();
  r_.raw_wall_s = timer_->raw_s();
  timer_.reset();
  if (trace_ != nullptr) trace_->close();
  active_ = nullptr;
  std::uint64_t sent = 0, delivered = 0;
  sum_packets(sent, delivered);
  r_.timed_sent = sent - sent0_;
  r_.timed_delivered = delivered - delivered0_;
  r_.timed_events = world_->scheduler().events_executed() - events0_;
  r_.timed_rx_bytes = rx_bytes_ - bytes0_;
  r_.node_seconds =
      static_cast<double>(world_->alive().size()) * sec(now() - vt0_);
}

// Polls `pred` every kPoll of virtual time; returns the time it first held.
template <class Pred>
std::optional<SimTime> SimRep::await(SimTime budget, Pred pred) {
  const SimTime deadline = now() + budget;
  for (;;) {
    bool ok;
    {
      ScopedSpan span(active_, SpanKind::kHarnessPoll);
      ok = pred();
    }
    if (ok) return now();
    if (now() >= deadline) return std::nullopt;
    advance_to(std::min(now() + kPoll, deadline));
  }
}

// Token rounds completed per directed link between alive nodes.
std::map<std::pair<NodeId, NodeId>, std::uint64_t> SimRep::link_rounds() {
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> rounds;
  const IdSet alive = world_->alive();
  for (NodeId id : alive) {
    dlink::LinkMux& mux = world_->node(id).mux();
    mux.for_each_peer([&](NodeId peer) {
      const dlink::TokenLink* link = mux.link(peer);
      if (link != nullptr && alive.contains(peer)) {
        rounds[{id, peer}] = link->stats().rounds_completed;
      }
    });
  }
  return rounds;
}

// Awaits a confirmed convergence: converged() (and `extra`) must keep
// holding until every directed link between alive nodes has completed
// kConfirmRounds more token rounds. A converged() snapshot alone does not
// open a legal execution after a transient fault: a node can still hold a
// stale record of a peer, which World::converged() does not inspect, and
// reset once more on it. Every fresh frame refreshes the receiver's record
// of its sender, so after those rounds no record predates the snapshot.
// Returns the time the confirmed stretch began; snapshots that did not
// survive are counted in false_converged.
template <class Pred>
std::optional<SimTime> SimRep::await_converged(SimTime budget, Pred extra) {
  const SimTime deadline = now() + budget;
  auto holds = [&] { return extra() && world_->converged(); };
  for (;;) {
    const std::optional<SimTime> start = await(deadline - now(), holds);
    if (!start) return std::nullopt;
    const auto base = link_rounds();
    bool broke = false;
    const std::optional<SimTime> end = await(deadline - now(), [&] {
      if (!holds()) {
        broke = true;
        return true;
      }
      const auto cur = link_rounds();
      for (const auto& [link, rounds] : base) {
        auto it = cur.find(link);
        if (it != cur.end() && it->second < rounds + kConfirmRounds) {
          return false;
        }
      }
      return true;
    });
    if (!end) return std::nullopt;
    if (!broke) return start;
    ++r_.false_converged;
  }
}

Counts SimRep::collect() {
  Counts c;
  harness::World& w = *world_;
  c.events = w.scheduler().events_executed();
  c.slots_peak = w.scheduler().slots_total();
  w.network().for_each_channel([&c](NodeId, NodeId, net::Channel& ch) {
    c.packets_sent += ch.stats().sent;
    c.packets_delivered += ch.stats().delivered;
    c.lost += ch.stats().lost;
    c.overflowed += ch.stats().overflowed;
  });
  for (NodeId id : w.all_ids()) {
    node::Node& n = w.node(id);
    if (!n.crashed()) {
      n.mux().for_each_peer([&](NodeId peer) {
        const dlink::TokenLink* link = n.mux().link(peer);
        if (link == nullptr) return;
        c.rounds += link->stats().rounds_completed;
        c.frames_delivered += link->stats().frames_delivered;
        c.cleans += link->stats().cleans_completed;
        c.stale_discarded += link->stats().stale_discarded;
        if (!w.has_node(peer) || w.node(peer).crashed()) ++c.dead_links;
      });
    }
    const reconf::RecSAStats& rs = n.recsa().stats();
    c.resets += rs.resets_started;
    c.installs += rs.brute_installs + rs.delicate_installs;
    c.phase_transitions += rs.phase_transitions;
    for (int i = 1; i <= 4; ++i) c.stale_detected += rs.stale_detected[i];
    c.recma_triggers += n.recma().stats().majority_loss_triggers +
                        n.recma().stats().eval_conf_triggers;
    c.joins += n.joiner().stats().joined;
    c.label_rebuilds += n.labeling().stats().rebuilds;
    c.label_exchanges += n.labeling().stats().exchanges;
    c.label_created += n.labeling().store().stats().created;
    c.ctr_exchanges += n.counters().stats().exchanges;
    c.ctr_aborts_sent += n.counters().stats().aborts_sent;
    c.inc_aborted += n.increment().stats().aborted;
    if (vs::VsSmr* v = n.vs()) {
      c.views_installed += v->stats().views_installed;
      c.rounds_applied += v->stats().rounds_applied;
      c.suspensions += v->stats().suspensions;
    }
    c.shmem_ops_aborted += n.registers().stats().ops_aborted;
    c.shmem_server_aborts += n.registers().stats().server_aborts;
  }
  const wire::BufferPool::Stats& pool = wire::BufferPool::local().stats();
  c.pool_acquired = pool.acquired - pool_at_start_.acquired;
  c.pool_reused = pool.reused - pool_at_start_.reused;
  c.rx_packets = rx_packets_;
  c.rx_bytes = rx_bytes_;
  return c;
}

// Set-up: everything before the first timed step. Builds the world, boots
// the initial nodes from the all-joiner state and awaits convergence (and,
// for sim-services, a stable VS view). Returns the normalized set-up time,
// or nullopt when an await missed.
std::optional<double> SimRep::set_up() {
  timer_.emplace(/*probing=*/trace_ == nullptr);
  timer_->start();
  pool_at_start_ = wire::BufferPool::local().stats();
  harness::WorldConfig cfg;
  cfg.seed = seed_;
  cfg.node.enable_vs = workload_ == Workload::kServices;
  world_ = std::make_unique<harness::World>(cfg);
  injector_ =
      std::make_unique<harness::FaultInjector>(*world_, seed_ ^ 0xFA417ULL);
  registry_ = std::make_unique<scenario::InvariantRegistry>(*world_);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id = add_node();
    if (workload_ == Workload::kServices) {
      Client c;
      c.node = id;
      clients_.push_back(c);
      const std::size_t idx = clients_.size() - 1;
      world_->node(id).set_fetch([this, idx] { return fetch(idx); });
      world_->node(id).vs()->add_deliver_handler(
          [this](const vs::View&, std::uint64_t,
                 const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
            on_deliver(msgs);
          });
    }
  }
  const std::optional<SimTime> conv =
      await_converged(300 * kSec, [] { return true; });
  bool ok = check(conv.has_value(), "boot: no convergence within 300 s");
  if (ok) r_.converge_ms = ms(*conv);
  if (ok && workload_ == Workload::kServices) {
    ok = check(await(600 * kSec, [&] { return world_->vs_stable(); })
                   .has_value(),
               "services: VS did not stabilize after boot");
  }
  timer_->stop();
  const double seconds = timer_->norm_s();
  timer_.reset();
  if (!ok) return std::nullopt;
  return seconds;
}

RepResult SimRep::run() {
  const std::optional<double> setup = set_up();
  if (!setup) return std::move(r_);
  r_.setup_s = *setup;

  switch (workload_) {
    case Workload::kSilent: run_silent(); break;
    case Workload::kRecovery: run_recovery(); break;
    case Workload::kServices: run_services(); break;
  }
  // Counted before the final checks, which crash nodes and drop their links.
  r_.counts = collect();
  finish_checks();
  if (trace_ != nullptr) r_.spans = trace_->summarize();
  return std::move(r_);
}

// -- sim-silent ---------------------------------------------------------------

void SimRep::run_silent() {
  registry_->mark_stable();
  begin_timed();
  advance_to(now() + kQuietPhase);
  end_timed();
}

// -- sim-recovery -------------------------------------------------------------

void SimRep::run_recovery() {
  begin_timed();
  for (std::size_t e = 0; e < kEpisodesPerRep && r_.errors.empty(); ++e) {
    const IdSet alive = world_->alive();
    const std::vector<NodeId> ids = alive.values();
    SimTime fault_at = now();
    const char* what = "";
    NodeId joiner = kNoNode;
    registry_->unmark_stable();
    switch (e % 4) {
      case 0:  // arbitrary recSA + FD state, garbage in every channel
        what = "transient blast";
        injector_->corrupt_all_recsa();
        injector_->corrupt_all_fd();
        injector_->fill_channels_with_garbage(2);
        break;
      case 1: {  // planted configuration conflict
        what = "config conflict";
        const IdSet a = IdSet::from_vector(
            std::vector<NodeId>(ids.begin(), ids.begin() + 3));
        const IdSet b =
            IdSet::from_vector(std::vector<NodeId>(ids.end() - 3, ids.end()));
        injector_->split_config(a, b);
        break;
      }
      case 2: {  // minority partition, then heal; recovery counts from heal
        what = "partition-heal";
        const IdSet minority = IdSet::from_vector({ids[0], ids[1]});
        world_->network().split(minority, alive.subtract(minority));
        advance_to(now() + kPartitionHold);
        world_->network().heal();
        fault_at = now();
        break;
      }
      default: {  // a configuration member crashes; a fresh id replaces it
        what = "crash-replace";
        std::optional<IdSet> cfg = world_->common_config();
        const std::vector<NodeId> members =
            (cfg ? *cfg : alive).intersect(alive).values();
        const NodeId victim = members[gen_.next_below(members.size())];
        world_->crash(victim);
        joiner = add_node();
        break;
      }
    }
    // Recovered: converged, and a replacement has been admitted as a
    // participant (its own admission is a configuration change).
    const std::optional<SimTime> t = await_converged(kRecoveryBudget, [&] {
      return joiner == kNoNode ||
             world_->node(joiner).recsa().is_participant();
    });
    if (!check(t.has_value(), cat("recovery: no convergence after ", what,
                                  " episode ", e))) {
      break;
    }
    r_.recovery_ms.push_back(ms(*t - fault_at));
    registry_->mark_stable();
    advance_to(now() + kClosureWindow);
    registry_->unmark_stable();
  }
  end_timed();
}

// -- sim-services -------------------------------------------------------------

void SimRep::run_services() {
  registry_->mark_stable();
  begin_timed();

  // (a) open loop, below capacity; the VS coordinator crashes midway and a
  // fresh node joins.
  open_loop_ = true;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    schedule_arrival(c, OpKind::kRead, kReadRate);
    schedule_arrival(c, OpKind::kWrite, kWriteRate);
    schedule_arrival(c, OpKind::kInc, kIncRate);
    schedule_arrival(c, OpKind::kCmd, kCmdRate);
  }
  const SimTime open_start = now();
  advance_to(open_start + kOpenPhase / 2);
  const NodeId crd = world_->node(clients_[0].node).vs()->coordinator();
  if (!check(crd != kNoNode && world_->has_node(crd),
             "services: no VS coordinator before the crash")) {
    end_timed();
    return;
  }
  registry_->unmark_stable();
  crash_at_ = now();
  crashed_crd_ = true;
  world_->crash(crd);
  for (Client& cl : clients_) {
    if (cl.node != crd) continue;
    // The client dies with its node: its queued and in-flight operations
    // are abandoned, not failed.
    cl.dead = true;
    r_.attempted -= cl.shmem_q.size() + cl.inc_q.size() + cl.cmds.size();
    for (const Op& op : cl.cmds) cmd_ops_.erase(op.id);
    cl.shmem_q.clear();
    cl.inc_q.clear();
    cl.cmds.clear();
  }
  add_node();
  advance_to(open_start + kOpenPhase);
  open_loop_ = false;

  // (b) closed loop: every surviving client back to back.
  if (!check(await(600 * kSec, [&] { return world_->vs_stable(); })
                 .has_value(),
             "services: VS did not stabilize after the coordinator crash")) {
    end_timed();
    return;
  }
  registry_->mark_stable();
  closed_loop_ = true;
  closed_start_ = now();
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    if (clients_[c].dead) continue;
    next_closed(c, OpKind::kRead);
    next_closed(c, OpKind::kInc);
    next_closed(c, OpKind::kCmd);
  }
  advance_to(closed_start_ + kClosedPhase);
  closed_loop_ = false;
  r_.closed_seconds = sec(now() - closed_start_);

  // Drain: no new operations; everything issued must complete.
  const bool drained = await(kDrainBudget, [&] { return clients_idle(); })
                           .has_value();
  end_timed();
  for (const Client& cl : clients_) {
    if (cl.dead) continue;
    r_.failed += cl.shmem_q.size() + cl.inc_q.size() + cl.cmds.size();
  }
  check(drained, "services: operations still pending after the drain");
}

void SimRep::schedule_arrival(std::size_t c, OpKind kind, double rate) {
  // Poisson arrivals from the benchmark's own stream.
  const double u =
      (static_cast<double>(gen_.next_u64() >> 11) + 0.5) / 9007199254740992.0;
  const auto gap = static_cast<SimTime>(-std::log(u) / rate * kSec);
  world_->scheduler().schedule_after(gap, [this, c, kind, rate] {
    if (!open_loop_ || clients_[c].dead) return;
    Op op;
    op.kind = kind;
    op.due = now();
    submit(c, op);
    schedule_arrival(c, kind, rate);
  });
}

void SimRep::submit(std::size_t c, Op op) {
  Client& cl = clients_[c];
  op.id = next_op_id_++;
  op.open_loop = !closed_loop_;
  ++r_.attempted;
  switch (op.kind) {
    case OpKind::kRead:
    case OpKind::kWrite: cl.shmem_q.push_back(op); break;
    case OpKind::kInc: cl.inc_q.push_back(op); break;
    case OpKind::kCmd: {
      // Submitting an SMR command means making it the node's next fetch()
      // result; the begin span covers exactly that hand-off.
      ScopedSpan span(active_, SpanKind::kClientBegin);
      op.begun = now();
      ++r_.attempts;
      cl.cmds.push_back(op);
      cmd_ops_[op.id] = op;
      break;
    }
  }
  pump(c);
}

void SimRep::pump(std::size_t c) {
  Client& cl = clients_[c];
  if (cl.dead) return;
  if (!cl.shmem_busy && !cl.shmem_q.empty()) begin_shmem(c);
  if (!cl.inc_busy && !cl.inc_q.empty()) begin_inc(c);
}

void SimRep::retry_later(std::size_t c) {
  ++r_.retries;
  world_->scheduler().schedule_after(kRetryBackoff, [this, c] { pump(c); });
}

void SimRep::begin_shmem(std::size_t c) {
  Client& cl = clients_[c];
  Op& op = cl.shmem_q.front();
  op.begun = now();
  const std::uint64_t id = op.id;
  const std::string reg = cat("r", id % kRegisters);
  auto done = [this, c, id](bool ok) {
    Client& me = clients_[c];
    me.shmem_busy = false;
    if (me.dead || me.shmem_q.empty() || me.shmem_q.front().id != id) return;
    if (!ok) {
      retry_later(c);
      return;
    }
    const Op fin = me.shmem_q.front();
    me.shmem_q.pop_front();
    complete(c, fin);
  };
  ++r_.attempts;
  // Busy before the call: an operation may complete inside it.
  cl.shmem_busy = true;
  bool begun;
  {
    ScopedSpan span(active_, SpanKind::kClientBegin);
    shmem::RegisterService& svc = world_->node(cl.node).registers();
    if (op.kind == OpKind::kWrite) {
      wire::Bytes value(8);
      for (int i = 0; i < 8; ++i) {
        value[i] = static_cast<std::uint8_t>(id >> (8 * i));
      }
      begun = svc.write(reg, std::move(value),
                        [done](bool ok, counter::Counter) { done(ok); });
    } else {
      begun = svc.read(reg, [done](bool ok, const wire::Bytes&,
                                   counter::Counter) { done(ok); });
    }
  }
  if (!begun) {
    cl.shmem_busy = false;
    retry_later(c);  // refused: a reconfiguration is in progress
  }
}

void SimRep::begin_inc(std::size_t c) {
  Client& cl = clients_[c];
  const std::uint64_t id = cl.inc_q.front().id;
  cl.inc_q.front().begun = now();
  cl.inc_busy = true;
  ++r_.attempts;
  ScopedSpan span(active_, SpanKind::kClientBegin);
  // begin() may refuse by calling back with ⊥ before it returns.
  world_->node(cl.node).increment().begin(
      [this, c, id](std::optional<counter::Counter> got) {
        Client& me = clients_[c];
        me.inc_busy = false;
        if (me.dead || me.inc_q.empty() || me.inc_q.front().id != id) return;
        if (!got) {
          retry_later(c);
          return;
        }
        const Op fin = me.inc_q.front();
        me.inc_q.pop_front();
        registry_->counter_order().record(fin.begun, now(), *got);
        complete(c, fin);
      });
}

void SimRep::complete(std::size_t c, const Op& op) {
  const double lat = ms(now() - op.due);
  if (op.open_loop) {
    r_.op_ms.push_back(lat);
    r_.queue_ms.push_back(ms(op.begun - op.due));
    switch (op.kind) {
      case OpKind::kRead: r_.read_ms.push_back(lat); break;
      case OpKind::kWrite: r_.write_ms.push_back(lat); break;
      case OpKind::kInc: r_.inc_ms.push_back(lat); break;
      case OpKind::kCmd: r_.cmd_ms.push_back(lat); break;
    }
  } else if (closed_loop_) {
    ++r_.closed_completed;
  }
  if (closed_loop_ && !op.open_loop) {
    // Reads and writes alternate 2:1 on the register stream.
    OpKind next = op.kind;
    if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite) {
      next = clients_[c].closed_seq++ % 3 == 2 ? OpKind::kWrite
                                               : OpKind::kRead;
    }
    // Deferred, so a begin never runs inside another operation's callback.
    world_->scheduler().schedule_after(0, [this, c, next] {
      if (closed_loop_ && !clients_[c].dead) next_closed(c, next);
    });
  } else {
    world_->scheduler().schedule_after(0, [this, c] { pump(c); });
  }
}

void SimRep::next_closed(std::size_t c, OpKind kind) {
  Op op;
  op.kind = kind;
  op.due = now();
  submit(c, op);
}

std::optional<wire::Bytes> SimRep::fetch(std::size_t c) {
  // The oldest undelivered command (delivery removes it); one that a view
  // change dropped is simply handed out again (resubmission).
  const Client& cl = clients_[c];
  if (cl.cmds.empty()) return std::nullopt;
  const std::uint64_t id = cl.cmds.front().id;
  return vs::KvStateMachine::set_cmd(cat("k", id % kKvKeys), cat(id));
}

void SimRep::on_deliver(
    const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
  for (const auto& [from, cmd] : msgs) {
    if (cmd.empty()) continue;
    // Every command is fetch()'s "set k<id % kKvKeys> <id>".
    wire::Reader rd(cmd);
    rd.u8();
    rd.str();
    const std::string value = rd.str();
    if (!rd.ok()) continue;
    const std::uint64_t id = std::strtoull(value.c_str(), nullptr, 10);
    auto it = cmd_ops_.find(id);
    if (it == cmd_ops_.end()) continue;  // already delivered elsewhere
    const Op op = it->second;
    cmd_ops_.erase(it);
    ++r_.cmds_delivered;
    if (crashed_crd_ && !r_.unavailable_ms && op.due > crash_at_) {
      r_.unavailable_ms = ms(now() - crash_at_);
    }
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      if (clients_[c].node != from) continue;
      std::erase_if(clients_[c].cmds,
                    [id](const Op& o) { return o.id == id; });
      complete(c, op);
      break;
    }
  }
}

bool SimRep::clients_idle() const {
  for (const Client& cl : clients_) {
    if (cl.dead) continue;
    if (cl.shmem_busy || cl.inc_busy || !cl.shmem_q.empty() ||
        !cl.inc_q.empty() || !cl.cmds.empty()) {
      return false;
    }
  }
  return true;
}

// -- Correctness gate ---------------------------------------------------------

void SimRep::finish_checks() {
  if (workload_ == Workload::kSilent) {
    // Silence: once every node crashed, the event queue drains to empty.
    registry_->unmark_stable();
    for (NodeId id : world_->alive()) world_->crash(id);
    auto& sched = world_->scheduler();
    const SimTime deadline = now() + 30 * kSec;
    while (now() < deadline && !sched.empty()) advance_to(now() + 10 * kMsec);
    registry_->report("silence", sched.empty(),
                      "scheduler still holds live events after every node "
                      "crashed");
  }
  if (workload_ == Workload::kServices && r_.errors.empty()) {
    // SMR replicas in the installed view agree on the KV digest once no
    // command is in flight.
    advance_to(now() + 2 * kSec);
    std::optional<std::uint64_t> digest;
    bool agree = true;
    for (NodeId id : world_->alive()) {
      vs::VsSmr* v = world_->node(id).vs();
      if (v == nullptr || !v->view().set.contains(id)) continue;
      const auto& kv = static_cast<const vs::KvStateMachine&>(
          const_cast<const vs::StateMachine&>(v->state_machine()));
      if (!digest) {
        digest = kv.digest();
      } else if (*digest != kv.digest()) {
        agree = false;
      }
    }
    check(digest.has_value() && agree,
          "services: SMR replicas disagree on the KV digest");
  }
  registry_->unmark_stable();
  for (const auto& v : registry_->check_all()) {
    r_.errors.push_back("invariant " + v.invariant + ": " + v.message);
  }
}

// -- Corpus micro-timings -----------------------------------------------------

struct CorpusTimes {
  double encode_ns = 0, decode_ns = 0, seal_ns_per_byte = 0;
};

template <class Fn>
double time_per_item_ns(Fn fn, std::size_t items) {
  // Median of 5 trials, each at least ~20 ms of work.
  std::vector<double> trials;
  std::size_t laps = 1;
  for (;;) {
    const double t0 = wall_now_s();
    for (std::size_t l = 0; l < laps; ++l) fn();
    const double dt = wall_now_s() - t0;
    if (dt > 0.02 || laps > (1u << 20)) break;
    laps *= 2;
  }
  for (int t = 0; t < 5; ++t) {
    const double t0 = wall_now_s();
    for (std::size_t l = 0; l < laps; ++l) fn();
    trials.push_back((wall_now_s() - t0) * 1e9 /
                     static_cast<double>(laps * items));
  }
  return median(trials);
}

CorpusTimes time_corpus(const std::vector<wire::Bytes>& corpus) {
  CorpusTimes t;
  std::vector<dlink::Frame> frames;
  std::size_t bytes = 0;
  for (const wire::Bytes& b : corpus) {
    bytes += b.size();
    if (auto f = dlink::Frame::decode(b)) frames.push_back(std::move(*f));
  }
  if (corpus.empty() || frames.empty()) return t;
  volatile std::uint64_t sink = 0;
  t.decode_ns = time_per_item_ns(
      [&] {
        for (const wire::Bytes& b : corpus) {
          sink = sink + (dlink::Frame::decode(b).has_value() ? 1 : 0);
        }
      },
      corpus.size());
  wire::BufferPool& pool = wire::BufferPool::local();
  t.encode_ns = time_per_item_ns(
      [&] {
        for (const dlink::Frame& f : frames) {
          wire::Bytes out = f.encode();
          sink = sink + out.size();
          pool.release(std::move(out));
        }
      },
      frames.size());
  const double per_lap_ns = time_per_item_ns(
      [&] {
        for (const wire::Bytes& b : corpus) {
          sink = sink + wire::fnv1a32(b.data(), b.size());
        }
      },
      1);
  t.seal_ns_per_byte = per_lap_ns / static_cast<double>(bytes);
  return t;
}

// -- Aggregation --------------------------------------------------------------

Workload parse_workload(const std::string& name) {
  if (name == "sim-silent") return Workload::kSilent;
  if (name == "sim-recovery") return Workload::kRecovery;
  return Workload::kServices;
}

template <class T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

Outcome run_sim_workload(const Options& opt) {
  const Workload w = parse_workload(opt.workload);
  Outcome out;
  std::vector<RepResult> reps;
  const double start = wall_now_s();
  for (std::size_t r = 0;
       r < kCountedReps || wall_now_s() - start < opt.seconds; ++r) {
    SimRep rep(w, rep_seed(opt.seed, r), nullptr, false);
    reps.push_back(rep.run());
    for (const std::string& e : reps.back().errors) {
      out.errors.push_back(cat("rep ", r, ": ", e));
    }
    if (!out.errors.empty()) return out;
  }

  // Counted reps: exact per seed.
  Counts counts;
  std::vector<double> recovery, op, queue, inc, read, write, cmd;
  std::uint64_t attempts = 0, retries = 0, closed_completed = 0,
                cmds_delivered = 0, false_converged = 0;
  double closed_seconds = 0;
  std::vector<double> unavailable;
  for (std::size_t r = 0; r < kCountedReps; ++r) {
    const RepResult& x = reps[r];
    counts.add(x.counts);
    append(recovery, x.recovery_ms);
    append(op, x.op_ms);
    append(queue, x.queue_ms);
    append(inc, x.inc_ms);
    append(read, x.read_ms);
    append(write, x.write_ms);
    append(cmd, x.cmd_ms);
    out.attempted += x.attempted;
    out.failed += x.failed;
    attempts += x.attempts;
    retries += x.retries;
    closed_completed += x.closed_completed;
    closed_seconds += x.closed_seconds;
    cmds_delivered += x.cmds_delivered;
    false_converged += x.false_converged;
    if (x.unavailable_ms) unavailable.push_back(*x.unavailable_ms);
  }
  // Every rep: wall-clock samples.
  std::vector<double> converge, wall, cpu_per_node_s, pkt_per_node_s,
      events_per_s;
  std::printf("reps %zu, timed wall s (normalized):", reps.size());
  for (const RepResult& x : reps) {
    std::printf(" %.4f", x.wall_s);
    converge.push_back(x.converge_ms);
    wall.push_back(x.wall_s);
    cpu_per_node_s.push_back(ratio(x.cpu_s * 1e3, x.node_seconds));
    pkt_per_node_s.push_back(
        ratio(static_cast<double>(x.timed_sent), x.node_seconds));
    events_per_s.push_back(
        ratio(static_cast<double>(x.timed_events), x.raw_wall_s));
  }
  std::printf("\n");
  // Set-up is short: kSetupProbes extra set-ups add samples to its median.
  std::vector<double> setup;
  for (const RepResult& x : reps) setup.push_back(x.setup_s);
  for (std::size_t p = 0; p < kSetupProbes; ++p) {
    SimRep probe(w, rep_seed(opt.seed, 1000 + p), nullptr, false);
    const std::optional<double> sec = probe.set_up();
    if (!sec) {
      out.errors.push_back(cat("set-up probe ", p, " missed an await"));
      return out;
    }
    setup.push_back(*sec);
  }
  // sim-recovery attempts recovery episodes, sim-silent its counted reps.
  if (w == Workload::kRecovery) out.attempted = recovery.size();
  if (w == Workload::kSilent) out.attempted = kCountedReps;

  EndToEnd e;
  e.setup_s = median(setup);
  e.wall_s = median(wall);
  e.peak_rss_mb = self_peak_rss_mb();
  e.converge_ms = median(converge);
  e.node_cpu_ms_per_s = median(cpu_per_node_s);
  e.packets_per_node_s = median(pkt_per_node_s);
  add_end_to_end(out, e);
  if (!opt.trace) return out;

  // -- Traced run: rep 0 again, spans on -------------------------------------
  // Its timed part carries no probes (they would sit inside the spans), so
  // probes taken around it scale its wall time for the overhead figure.
  SpanTrace trace(1 << 22);
  const double probe_before = host_probe_ns();
  SimRep traced(w, rep_seed(opt.seed, 0), &trace, true);
  RepResult t = traced.run();
  const double traced_wall_s = t.raw_wall_s * kReferenceProbeNs * 2 /
                               (probe_before + host_probe_ns());
  for (const std::string& err : t.errors) {
    out.errors.push_back("traced: " + err);
  }
  const Counts& c0 = reps[0].counts;
  if (!t.counts.same_work(c0)) {
    out.errors.push_back(cat(
        "traced run diverged from the untraced run: events ", t.counts.events,
        " vs ", c0.events, ", packets sent ", t.counts.packets_sent, " vs ",
        c0.packets_sent, ", delivered ", t.counts.packets_delivered, " vs ",
        c0.packets_delivered, ", rounds ", t.counts.rounds, " vs ",
        c0.rounds));
  }
  const SpanTrace::Summary& s = *t.spans;
  trace.write(opt.out_dir + "/spans-" + opt.workload + ".bin");
  const CorpusTimes ct = time_corpus(t.corpus);

  Layers l;
  const double run_ns = s.of(SpanKind::kRun).total_ns;
  auto mean = [](const SpanTrace::Totals& x) {
    return ratio(x.total_ns, static_cast<double>(x.count));
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  l.sim_events = n(counts.events);
  l.sim_events_per_s = median(events_per_s);
  l.sim_step_ns = mean(s.of(SpanKind::kSimStep));
  l.sim_timer_step_ns = mean(s.timer_steps);
  l.sim_slots_peak = n(counts.slots_peak);
  l.net_packets_sent = n(counts.packets_sent);
  l.net_packets_delivered = n(counts.packets_delivered);
  l.net_delivery_ratio = ratio(n(counts.packets_delivered),
                               n(counts.packets_sent));
  l.net_lost = n(counts.lost);
  l.net_overflowed = n(counts.overflowed);
  l.wire_pool_hit_ratio = ratio(n(counts.pool_reused), n(counts.pool_acquired));
  l.wire_seal_ns_per_byte = ct.seal_ns_per_byte;
  l.dlink_rx_ns = mean(s.of(SpanKind::kDlinkRx));
  l.dlink_rx_share = ratio(s.of(SpanKind::kDlinkRx).total_ns, run_ns);
  l.dlink_frame_encode_ns = ct.encode_ns;
  l.dlink_frame_decode_ns = ct.decode_ns;
  l.dlink_wire_share_est =
      ratio(n(reps[0].timed_sent) * ct.encode_ns +
                n(reps[0].timed_delivered) * ct.decode_ns,
            reps[0].raw_wall_s * 1e9);
  l.dlink_bytes_per_frame = ratio(n(counts.rx_bytes), n(counts.rx_packets));
  double node_seconds = 0, timed_bytes = 0;
  for (std::size_t r = 0; r < kCountedReps; ++r) {
    node_seconds += reps[r].node_seconds;
    timed_bytes += n(reps[r].timed_rx_bytes);
  }
  l.dlink_bytes_per_node_s = ratio(timed_bytes, node_seconds);
  l.dlink_rounds = n(counts.rounds);
  l.dlink_packets_per_round = ratio(n(counts.packets_sent), n(counts.rounds));
  l.dlink_fresh_ratio =
      ratio(n(counts.frames_delivered), n(counts.packets_delivered));
  l.dlink_cleans = n(counts.cleans);
  l.dlink_stale_discarded = n(counts.stale_discarded);
  l.dlink_dead_links = n(counts.dead_links);
  l.reconf_resets = n(counts.resets);
  l.reconf_installs = n(counts.installs);
  l.reconf_phase_transitions = n(counts.phase_transitions);
  l.reconf_stale_detected = n(counts.stale_detected);
  l.reconf_recma_triggers = n(counts.recma_triggers);
  l.reconf_joins = n(counts.joins);
  l.label_rebuilds = n(counts.label_rebuilds);
  l.label_exchanges = n(counts.label_exchanges);
  l.label_created = n(counts.label_created);
  l.counter_exchanges = n(counts.ctr_exchanges);
  l.counter_aborts_sent = n(counts.ctr_aborts_sent);
  l.counter_inc_aborted = n(counts.inc_aborted);
  l.counter_inc_p50_ms = percentile(inc, 50);
  l.vs_views_installed = n(counts.views_installed);
  l.vs_rounds_applied = n(counts.rounds_applied);
  l.vs_suspensions = n(counts.suspensions);
  l.vs_cmd_p50_ms = percentile(cmd, 50);
  l.vs_cmds_per_round = ratio(n(cmds_delivered), n(counts.rounds_applied));
  l.vs_unavailable_ms = median(unavailable);
  l.shmem_read_p50_ms = percentile(read, 50);
  l.shmem_write_p50_ms = percentile(write, 50);
  l.shmem_ops_aborted = n(counts.shmem_ops_aborted);
  l.shmem_server_aborts = n(counts.shmem_server_aborts);
  l.harness_poll_ns = mean(s.of(SpanKind::kHarnessPoll));
  l.harness_poll_share = ratio(s.of(SpanKind::kHarnessPoll).total_ns, run_ns);
  l.harness_recovery_p50_ms = percentile(recovery, 50);
  l.harness_recovery_p90_ms = percentile(recovery, 90);
  l.harness_recovery_episodes = n(recovery.size());
  l.harness_false_converged = n(false_converged);
  l.harness_trace_overhead = ratio(traced_wall_s, reps[0].wall_s) - 1;
  l.client_ops = n(op.size());
  l.client_op_p50_ms = percentile(op, 50);
  l.client_op_p99_ms = percentile(op, 99);
  l.client_op_p90_ms = percentile(op, 90);
  l.client_capacity_ops_s = ratio(n(closed_completed), closed_seconds);
  l.client_op_fail_ratio =
      w == Workload::kServices ? ratio(n(out.failed), n(out.attempted)) : 0;
  l.client_retry_ratio = ratio(n(retries), n(attempts));
  l.client_queue_p99_ms = percentile(queue, 99);
  l.client_begin_ns = mean(s.of(SpanKind::kClientBegin));
  add_layers(out, l);
  return out;
}

}  // namespace perfbench
