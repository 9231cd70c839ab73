#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "layers.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// Peak resident set ("VmHWM") from a /proc/<pid>/status file, MiB. Unlike
// getrusage's ru_maxrss it restarts at execve, so a launcher's footprint
// does not leak into it.
double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double children_peak_rss_mb(const std::string& comm) {
  double peak = 0;
  const pid_t self = ::getpid();
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = entry.path().filename().string();
    if (pid.empty() ||
        pid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    // /proc/<pid>/stat: "pid (comm) state ppid ..."
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    const std::size_t open = stat.find('('), close = stat.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    if (stat.substr(open + 1, close - open - 1) != comm) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    rest >> state >> ppid;
    if (ppid != self) continue;
    peak = std::max(peak, vm_hwm_mb((entry.path() / "status").string()));
  }
  return peak;
}

double children_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

void print_json_metrics(const std::vector<Metric>& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // %.17g keeps every digit the double holds.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(),
                std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

void print_outcome(const Options& opt, const Outcome& out) {
  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const std::string& e : out.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::printf("  ops attempted %llu failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const auto* group : {&out.end_to_end, &out.per_layer}) {
    for (const Metric& m : *group) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  // A failed run counts as at least one failed attempt.
  const bool correct = out.errors.empty();
  const std::uint64_t attempted =
      correct ? out.attempted : std::max<std::uint64_t>(out.attempted, 1);
  const std::uint64_t failed =
      correct ? out.failed : std::max<std::uint64_t>(out.failed, 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_json_metrics(opt.trace ? out.per_layer : out.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
}

void add_end_to_end(Outcome& out, const EndToEnd& e) {
  out.e2e("setup_s", e.setup_s, "s");
  out.e2e("wall_s", e.wall_s, "s");
  out.e2e("peak_rss_mb", e.peak_rss_mb, "MiB");
  out.e2e("converge_ms", e.converge_ms, "ms");
  out.e2e("node_cpu_ms_per_s", e.node_cpu_ms_per_s, "ms/s");
  out.e2e("packets_per_node_s", e.packets_per_node_s, "1/s");
}

void add_layers(Outcome& out, const Layers& l) {
  out.layer("sim.events", l.sim_events, "count");
  out.layer("sim.events_per_s", l.sim_events_per_s, "1/s");
  out.layer("sim.step_ns", l.sim_step_ns, "ns");
  out.layer("sim.timer_step_ns", l.sim_timer_step_ns, "ns");
  out.layer("sim.slots_peak", l.sim_slots_peak, "count");

  out.layer("net.packets_sent", l.net_packets_sent, "count");
  out.layer("net.packets_delivered", l.net_packets_delivered, "count");
  out.layer("net.delivery_ratio", l.net_delivery_ratio, "ratio");
  out.layer("net.lost", l.net_lost, "count");
  out.layer("net.overflowed", l.net_overflowed, "count");
  out.layer("net.udp_syscalls_per_packet", l.net_udp_syscalls_per_packet,
            "ratio");
  out.layer("net.udp_batched_ratio", l.net_udp_batched_ratio, "ratio");

  out.layer("wire.pool_hit_ratio", l.wire_pool_hit_ratio, "ratio");
  out.layer("wire.seal_ns_per_byte", l.wire_seal_ns_per_byte, "ns/B");

  out.layer("dlink.rx_ns", l.dlink_rx_ns, "ns");
  out.layer("dlink.rx_share", l.dlink_rx_share, "ratio");
  out.layer("dlink.frame_encode_ns", l.dlink_frame_encode_ns, "ns");
  out.layer("dlink.frame_decode_ns", l.dlink_frame_decode_ns, "ns");
  out.layer("dlink.wire_share_est", l.dlink_wire_share_est, "ratio");
  out.layer("dlink.bytes_per_frame", l.dlink_bytes_per_frame, "B");
  out.layer("dlink.bytes_per_node_s", l.dlink_bytes_per_node_s, "B/s");
  out.layer("dlink.rounds", l.dlink_rounds, "count");
  out.layer("dlink.packets_per_round", l.dlink_packets_per_round, "ratio");
  out.layer("dlink.fresh_ratio", l.dlink_fresh_ratio, "ratio");
  out.layer("dlink.cleans", l.dlink_cleans, "count");
  out.layer("dlink.stale_discarded", l.dlink_stale_discarded, "count");
  out.layer("dlink.dead_links", l.dlink_dead_links, "count");

  out.layer("reconf.resets", l.reconf_resets, "count");
  out.layer("reconf.installs", l.reconf_installs, "count");
  out.layer("reconf.phase_transitions", l.reconf_phase_transitions, "count");
  out.layer("reconf.stale_detected", l.reconf_stale_detected, "count");
  out.layer("reconf.recma_triggers", l.reconf_recma_triggers, "count");
  out.layer("reconf.joins", l.reconf_joins, "count");

  out.layer("label.rebuilds", l.label_rebuilds, "count");
  out.layer("label.exchanges", l.label_exchanges, "count");
  out.layer("label.created", l.label_created, "count");

  out.layer("counter.exchanges", l.counter_exchanges, "count");
  out.layer("counter.aborts_sent", l.counter_aborts_sent, "count");
  out.layer("counter.inc_aborted", l.counter_inc_aborted, "count");
  out.layer("counter.inc_p50_ms", l.counter_inc_p50_ms, "ms");

  out.layer("vs.views_installed", l.vs_views_installed, "count");
  out.layer("vs.rounds_applied", l.vs_rounds_applied, "count");
  out.layer("vs.suspensions", l.vs_suspensions, "count");
  out.layer("vs.cmd_p50_ms", l.vs_cmd_p50_ms, "ms");
  out.layer("vs.cmds_per_round", l.vs_cmds_per_round, "ratio");
  out.layer("vs.unavailable_ms", l.vs_unavailable_ms, "ms");

  out.layer("shmem.read_p50_ms", l.shmem_read_p50_ms, "ms");
  out.layer("shmem.write_p50_ms", l.shmem_write_p50_ms, "ms");
  out.layer("shmem.ops_aborted", l.shmem_ops_aborted, "count");
  out.layer("shmem.server_aborts", l.shmem_server_aborts, "count");

  out.layer("harness.poll_ns", l.harness_poll_ns, "ns");
  out.layer("harness.poll_share", l.harness_poll_share, "ratio");
  out.layer("harness.recovery_p50_ms", l.harness_recovery_p50_ms, "ms");
  out.layer("harness.recovery_p90_ms", l.harness_recovery_p90_ms, "ms");
  out.layer("harness.recovery_episodes", l.harness_recovery_episodes,
            "count");
  out.layer("harness.false_converged", l.harness_false_converged, "count");
  out.layer("harness.trace_overhead", l.harness_trace_overhead, "ratio");

  out.layer("client.ops", l.client_ops, "count");
  out.layer("client.op_p50_ms", l.client_op_p50_ms, "ms");
  out.layer("client.op_p99_ms", l.client_op_p99_ms, "ms");
  out.layer("client.op_p90_ms", l.client_op_p90_ms, "ms");
  out.layer("client.capacity_ops_s", l.client_capacity_ops_s, "1/s");
  out.layer("client.op_fail_ratio", l.client_op_fail_ratio, "ratio");
  out.layer("client.retry_ratio", l.client_retry_ratio, "ratio");
  out.layer("client.queue_p99_ms", l.client_queue_p99_ms, "ms");
  out.layer("client.begin_ns", l.client_begin_ns, "ns");
}

}  // namespace perfbench
