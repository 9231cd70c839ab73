// udp-services: three real ssr_node processes on localhost, driven through
// scenario::ProcessRunner. Each rep spawns a fresh fleet and polls it until
// it converges (the set-up), then queues a closed-loop increment burst at
// every node (the timed part). The fleet is reaped before its CPU time is
// read: RUSAGE_CHILDREN only counts reaped children.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "host_speed.hpp"
#include "layers.hpp"
#include "scenario/process_runner.hpp"

namespace perfbench {
namespace {

using namespace ssr;

constexpr std::size_t kFleet = 3;
constexpr std::size_t kMinReps = 3;
constexpr std::uint64_t kIncrementsPerNode = 150;
constexpr double kConvergeBudgetS = 60;

// Samples host speed on its own thread while a fleet lives. The benchmark
// process is otherwise idle then and the daemons are paced by timers, so the
// probe hardly competes with them.
class FleetProbe {
 public:
  FleetProbe() : thread_([this] { run(); }) {}
  ~FleetProbe() { stop(); }
  FleetProbe(const FleetProbe&) = delete;
  FleetProbe& operator=(const FleetProbe&) = delete;

  /// Joins the sampling thread; returns the median probe, ns.
  double stop() {
    if (thread_.joinable()) {
      done_ = true;
      thread_.join();
    }
    return median(samples_);
  }

 private:
  void run() {
    while (!done_) {
      samples_.push_back(host_probe_ns());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  std::atomic<bool> done_{false};
  std::vector<double> samples_;  // the thread's until it is joined
  std::thread thread_;           // last: starts once the members above exist
};

struct UdpRep {
  std::string error;
  double setup_s = 0, converge_ms = 0, wall_s = 0;
  double fleet_wall_s = 0, peak_rss_mb = 0;
  double fleet_cpu_s = 0;  // host-speed normalized
  std::uint64_t attempted = 0, completed = 0;
  std::uint64_t packets_sent = 0, packets_delivered = 0, syscalls = 0,
                batched = 0;
  util::LatencyHistogram latency;
};

UdpRep run_rep(const Options& opt, std::uint64_t seed, std::size_t index) {
  UdpRep r;
  scenario::ScenarioSpec spec;
  spec.name = "udp-services";
  spec.initial_nodes = kFleet;
  scenario::ProcessBackendOptions po;
  po.node_binary = opt.node_binary;
  po.work_dir = opt.out_dir + "/udp-" + std::to_string(::getpid()) + "-" +
                std::to_string(index);
  po.seed = seed;
  // Self-destruct horizon: daemons exit on their own even if this process
  // is killed before it can reap them.
  po.node_seconds = 60;

  FleetProbe probe;
  const double cpu0 = children_cpu_s();
  const double fleet0 = wall_now_s();
  bool ok = false;
  {
    scenario::ProcessRunner runner(spec, po);
    const double t0 = wall_now_s();
    const bool booted = runner.bootstrap();
    if (!booted) {
      r.error = "bootstrap failed: " + runner.failure();
    } else {
      const double tc = wall_now_s();
      bool converged = false;
      while (!runner.failed() && wall_now_s() - tc < kConvergeBudgetS) {
        runner.sample();
        if (runner.converged_sampled()) {
          converged = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      r.converge_ms = (wall_now_s() - tc) * 1e3;
      r.setup_s = wall_now_s() - t0;  // everything before the timed burst
      if (!converged) {
        r.error = "no convergence within 60 s " + runner.failure();
      } else {
        runner.step(scenario::Action::mark_stable());
        const double tb = wall_now_s();
        runner.step(scenario::Action::increment_burst(kIncrementsPerNode));
        r.wall_s = wall_now_s() - tb;
        const scenario::ScenarioResult res = runner.finish();
        r.peak_rss_mb = children_peak_rss_mb("ssr_node");
        r.attempted = kFleet * kIncrementsPerNode;
        r.completed = res.ops_completed;
        r.latency = res.op_latency;
        r.packets_sent = res.packets_sent;
        r.packets_delivered = res.packets_delivered;
        r.syscalls = res.net_syscalls;
        r.batched = res.net_batched;
        if (!res.ok) {
          r.error = res.failure;
          for (const auto& v : res.violations) {
            r.error += " invariant " + v.invariant + ": " + v.message;
          }
        } else {
          ok = true;
        }
      }
    }
  }  // ~ProcessRunner kills and reaps every daemon
  r.fleet_wall_s = wall_now_s() - fleet0;
  r.fleet_cpu_s =
      (children_cpu_s() - cpu0) * kReferenceProbeNs / probe.stop();
  if (ok) {
    std::error_code ec;
    std::filesystem::remove_all(po.work_dir, ec);
  }
  return r;
}

}  // namespace

Outcome run_udp_workload(const Options& opt) {
  Outcome out;
  std::vector<UdpRep> reps;
  const double start = wall_now_s();
  for (std::size_t i = 0;
       i < kMinReps || wall_now_s() - start < opt.seconds; ++i) {
    reps.push_back(run_rep(opt, rep_seed(opt.seed, i), i));
    if (!reps.back().error.empty()) {
      out.errors.push_back("rep " + std::to_string(i) + ": " +
                           reps.back().error);
      return out;
    }
  }

  std::vector<double> setup, converge, wall, cpu, pkts, rss;
  util::LatencyHistogram latency;
  double syscalls = 0, sent = 0, delivered = 0, batched = 0;
  for (const UdpRep& r : reps) {
    out.attempted += r.attempted;
    out.failed += r.attempted - r.completed;
    setup.push_back(r.setup_s);
    converge.push_back(r.converge_ms);
    wall.push_back(r.wall_s);
    rss.push_back(r.peak_rss_mb);
    cpu.push_back(r.fleet_cpu_s * 1e3 / (kFleet * r.fleet_wall_s));
    pkts.push_back(static_cast<double>(r.packets_sent) /
                   (kFleet * r.fleet_wall_s));
    latency.merge(r.latency);
    syscalls += static_cast<double>(r.syscalls);
    sent += static_cast<double>(r.packets_sent);
    delivered += static_cast<double>(r.packets_delivered);
    batched += static_cast<double>(r.batched);
  }
  if (out.failed != 0) {
    out.errors.push_back(std::to_string(out.failed) +
                         " increments did not complete");
  }

  EndToEnd e;
  e.setup_s = median(setup);
  e.wall_s = median(wall);
  e.peak_rss_mb = median(rss);
  e.converge_ms = median(converge);
  e.node_cpu_ms_per_s = median(cpu);
  e.packets_per_node_s = median(pkts);
  add_end_to_end(out, e);
  if (!opt.trace) return out;

  // Layer metrics from the daemons' own counters (STATUS); the simulator's
  // span-derived times do not exist here and stay 0.
  Layers l;
  const double ops = static_cast<double>(latency.count());
  double timed_wall = 0;
  for (const UdpRep& r : reps) timed_wall += r.wall_s;
  l.net_packets_sent = sent;
  l.net_packets_delivered = delivered;
  l.net_delivery_ratio = ratio(delivered, sent);
  l.net_udp_syscalls_per_packet = ratio(syscalls, sent + delivered);
  l.net_udp_batched_ratio = ratio(batched, sent);
  l.client_ops = ops;
  l.client_op_p50_ms = static_cast<double>(latency.percentile(50)) / 1e3;
  l.client_op_p90_ms = static_cast<double>(latency.percentile(90)) / 1e3;
  l.client_op_p99_ms = static_cast<double>(latency.percentile(99)) / 1e3;
  l.client_capacity_ops_s = ratio(ops, timed_wall);
  l.client_op_fail_ratio = ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted));
  l.counter_inc_p50_ms = l.client_op_p50_ms;
  add_layers(out, l);
  return out;
}

}  // namespace perfbench
