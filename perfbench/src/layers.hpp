#pragma once

// The benchmark's metric vocabulary. Every workload fills the same two
// structs, so every run reports the same metric names with the same units;
// a value that does not apply to a workload stays 0 (per-layer only —
// end-to-end values are defined on every workload).

#include "bench.hpp"

namespace perfbench {

/// End-to-end metrics, measured with tracing off.
struct EndToEnd {
  double setup_s = 0;            ///< median set-up (world + boot / bootstrap)
  double wall_s = 0;             ///< median wall time of one timed part
  double peak_rss_mb = 0;        ///< peak RSS of the workload's process
  double converge_ms = 0;        ///< median boot → first converged()
  double node_cpu_ms_per_s = 0;  ///< host CPU ms per node per system second
  double packets_per_node_s = 0; ///< packets sent per node per system second
};

/// Per-layer metrics, named by module.
struct Layers {
  // sim
  double sim_events = 0, sim_events_per_s = 0, sim_step_ns = 0,
         sim_timer_step_ns = 0, sim_slots_peak = 0;
  // net
  double net_packets_sent = 0, net_packets_delivered = 0,
         net_delivery_ratio = 0, net_lost = 0, net_overflowed = 0,
         net_udp_syscalls_per_packet = 0, net_udp_batched_ratio = 0;
  // wire
  double wire_pool_hit_ratio = 0, wire_seal_ns_per_byte = 0;
  // dlink
  double dlink_rx_ns = 0, dlink_rx_share = 0, dlink_frame_encode_ns = 0,
         dlink_frame_decode_ns = 0, dlink_wire_share_est = 0,
         dlink_bytes_per_frame = 0, dlink_bytes_per_node_s = 0,
         dlink_rounds = 0, dlink_packets_per_round = 0, dlink_fresh_ratio = 0,
         dlink_cleans = 0, dlink_stale_discarded = 0, dlink_dead_links = 0;
  // reconf
  double reconf_resets = 0, reconf_installs = 0, reconf_phase_transitions = 0,
         reconf_stale_detected = 0, reconf_recma_triggers = 0,
         reconf_joins = 0;
  // label
  double label_rebuilds = 0, label_exchanges = 0, label_created = 0;
  // counter
  double counter_exchanges = 0, counter_aborts_sent = 0,
         counter_inc_aborted = 0, counter_inc_p50_ms = 0;
  // vs
  double vs_views_installed = 0, vs_rounds_applied = 0, vs_suspensions = 0,
         vs_cmd_p50_ms = 0, vs_cmds_per_round = 0, vs_unavailable_ms = 0;
  // shmem
  double shmem_read_p50_ms = 0, shmem_write_p50_ms = 0, shmem_ops_aborted = 0,
         shmem_server_aborts = 0;
  // harness
  double harness_poll_ns = 0, harness_poll_share = 0,
         harness_recovery_p50_ms = 0, harness_recovery_p90_ms = 0,
         harness_recovery_episodes = 0, harness_false_converged = 0,
         harness_trace_overhead = 0;
  // client (the benchmark's own load generator)
  double client_ops = 0, client_op_p50_ms = 0, client_op_p99_ms = 0,
         client_op_p90_ms = 0, client_capacity_ops_s = 0,
         client_op_fail_ratio = 0, client_retry_ratio = 0,
         client_queue_p99_ms = 0, client_begin_ns = 0;
};

void add_end_to_end(Outcome& out, const EndToEnd& e);
void add_layers(Outcome& out, const Layers& l);

}  // namespace perfbench
