#pragma once

// Process execution backend for the scenario engine (POSIX only).
//
// The same interpreter as the simulator (ScenarioBackend::apply) runs the
// spec against real ssr_node daemons on localhost UDP — one OS process per
// node. This file supplies only the fleet primitives, in OS terms:
//
//   crash / reboot      SIGKILL (+ a fresh process for the replacement id)
//   pause / resume      SIGSTOP / SIGCONT
//   partition / heal    per-node peer filters installed over the control
//                       socket (UdpTransport::set_blocked on each side)
//   channel garbage     raw junk datagrams fired at every node's data port
//   state corruption    FAULT/CONF control commands
//   workload            INC/SHMEMW/SHMEMR control commands
//
// Node state is sampled over the control socket into the same TraceRecorder
// the simulator uses, and the same InvariantRegistry checks evaluate at the
// end: closure windows over sampled config changes, counter order over the
// per-operation intervals the daemons report, convergence awaits. Wall
// time replaces virtual time; sim durations are scaled by
// ProcessBackendOptions::time_scale.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenario/backend.hpp"
#include "scenario/control.hpp"
#include "scenario/scenario.hpp"
#include "util/histogram.hpp"

namespace ssr::scenario {

struct ProcessBackendOptions {
  /// Path to the ssr_node binary (required).
  std::string node_binary;
  /// Scratch directory for peer maps, port files and per-node logs; empty =
  /// a fresh mkdtemp under TMPDIR. Kept on failure (CI uploads it), removed
  /// on success unless keep_dir.
  std::string work_dir;
  bool keep_dir = false;
  /// Wall-clock seconds per simulated second for durations in the spec.
  /// Awaits stop early on success, so this mostly paces run_for stretches
  /// and closure windows.
  double time_scale = 0.05;
  /// Floor for await budgets after scaling (process startup + real
  /// convergence time dominate short awaits).
  SimTime min_await = 30 * kSec;
  /// Forwarded into the daemons' RNG seeds (per-node mixed).
  std::uint64_t seed = 1;
  /// --seconds passed to every daemon: a self-destruct horizon so orphans
  /// die even if the runner is SIGKILLed mid-scenario.
  std::uint64_t node_seconds = 900;
  /// Daemon do-forever tick (µs); smaller than the daemon's standalone
  /// default to keep scaled scenarios snappy.
  std::uint64_t tick_us = 2000;
  /// Shard tag for the whole fleet: forwarded to every daemon as --shard,
  /// stamped into the UDP envelopes and checked on receive. Disjoint
  /// fleets on one host cannot leak protocol traffic into each other even
  /// with overlapping node ids (see UdpTransportConfig::shard).
  std::uint32_t shard = 0;
};

/// The process fleet: ScenarioBackend's primitives over real ssr_node
/// processes. One runner instance runs one spec once; the destructor reaps
/// every child it spawned.
class ProcessRunner final : public ScenarioBackend {
 public:
  ProcessRunner(ScenarioSpec spec, ProcessBackendOptions opt);
  ~ProcessRunner() override;

  ProcessRunner(const ProcessRunner&) = delete;
  ProcessRunner& operator=(const ProcessRunner&) = delete;

  const std::string& work_dir() const { return dir_; }

  /// Spawns the initial cohort and publishes the port map.
  bool bootstrap() override;
  /// One STATUS round over every alive, unpaused node. Config changes
  /// observed since the previous round are recorded into the trace and the
  /// config-history monitor. An unreachable node is checked against
  /// waitpid: an unexpected exit fails the scenario. Returns true when
  /// every polled node answered this round.
  bool sample() override;
  IdSet alive_ids() const override;

 private:
  struct Proc {
    int pid = -1;
    std::uint16_t data_port = 0;
    std::uint16_t ctl_port = 0;
    bool alive = false;
    bool paused = false;
    // Last STATUS sample (a default Status until sampled = true).
    bool sampled = false;
    node::Status status;
    std::uint64_t cfgchanges = 0;
    std::uint64_t incq = 0;
    std::uint64_t shmq = 0;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    std::uint64_t syscalls = 0;  // sendmmsg+recvmmsg calls (STATUS syscalls=)
    std::uint64_t batched = 0;   // datagrams sharing a send syscall
    /// How many of the daemon's completed ops were already fed to the
    /// counter-order monitor: the cursor each OPS request acknowledges.
    std::size_t ops_harvested = 0;
  };

  /// Wall microseconds since run start — the backend's SimTime.
  SimTime now() const;
  /// Where the current step's budgets start: its anchor when it has one
  /// (ScenarioBackend::step), else now().
  SimTime budget_start() const;
  SimTime scaled(SimTime sim_duration) const;
  SimTime await_budget(SimTime sim_duration) const;

  void spawn(NodeId id, const std::string& peers_path);
  void write_cohort_peer_map();
  bool collect_ports(NodeId id);

  bool sample_node(NodeId id, Proc& p);
  /// Pulls completed operations from every alive node into the
  /// counter-order monitor (incremental; safe to call repeatedly).
  void harvest_ops();
  void harvest_ops_from(NodeId id, Proc& p);
  /// The node's process when it is alive and not stopped, else null.
  Proc* running(NodeId id);

  /// Sends `cmd` to every running target of `a`, then awaits (up to the
  /// scaled `budget`) each one's `queue` counter draining to 0. Returns
  /// the targets that took the command.
  IdSet queue_ops(const Action& a, const std::string& cmd,
                  std::uint64_t Proc::*queue, SimTime budget);
  void step_sleep() const;
  void send_blocked_sets(const IdSet& touched);
  void control_or_fail(NodeId id, const std::string& cmd);

  // Fleet primitives: OS processes, signals and control commands. Await
  // budgets are the spec's durations scaled, with a floor.
  NodeId add_node() override;
  bool crash_node(NodeId id) override;
  bool pause_node(NodeId id) override;
  bool resume_node(NodeId id) override;
  void split(const IdSet& a, const IdSet& b) override;
  void heal() override;
  void inject(const Action& a, NodeId id) override;
  void plant_config(NodeId id, const IdSet& ids) override;
  void garbage_channels(std::uint64_t per_node) override;
  void increment_burst(const Action& a) override;
  void shmem_ops(const Action& a, bool write) override;
  void run_for(SimTime d) override;
  bool await(SimTime d, const std::function<bool()>& pred) override;
  /// Process-level quiescence is an OS triviality (the processes are
  /// gone); the event-level drain check is a simulator property.
  bool drained(SimTime) override { return true; }
  std::span<const node::Status> statuses() const override;
  void settle(ScenarioResult& r) override;

  ProcessBackendOptions opt_;
  std::string dir_;
  bool made_dir_ = false;
  std::uint64_t epoch_usec_ = 0;
  ctl::ControlClient client_;
  std::map<NodeId, Proc> procs_;
  /// statuses()'s buffer, refilled per call.
  mutable std::vector<node::Status> statuses_;
  /// Runner-side view of each node's peer filter (BLOCK replaces the whole
  /// set, so partitions accumulate here and ship as full sets).
  std::map<NodeId, IdSet> blocked_;
  NodeId next_id_ = 1;
  bool ran_ = false;
};

}  // namespace ssr::scenario
