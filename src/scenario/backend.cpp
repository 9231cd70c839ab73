#include "scenario/backend.hpp"

#include <sstream>

namespace ssr::scenario {

std::string ScenarioResult::summary() const {
  std::ostringstream os;
  os << name << " seed=" << seed << " " << (ok ? "OK" : "FAIL")
     << " events=" << trace_events << " hash=" << std::hex << trace_hash
     << std::dec << " sim=" << sim_time / kSec << "s";
  if (ops_completed > 0) {
    os << " ops=" << ops_completed << " p50=" << op_p50_us << "us"
       << " p99=" << op_p99_us << "us";
  }
  if (net_syscalls > 0) {
    os << " syscalls=" << net_syscalls << " batched=" << net_batched;
  }
  if (!failure.empty()) os << " failure=\"" << failure << "\"";
  for (const auto& v : violations) {
    os << "\n  violation[" << v.invariant << "]: " << v.message;
  }
  return os.str();
}

ScenarioResult ScenarioBackend::run() {
  bootstrap();
  for (const Phase& phase : spec_.phases) {
    if (failed_) break;
    trace_.record(TraceKind::kPhaseStart, kNoNode, digest_name(phase.name));
    for (const Action& a : phase.actions) step(a);
  }
  return finish();
}

void ScenarioBackend::step(const Action& a, std::uint64_t anchor_us) {
  if (failed_) return;
  trace_.record(TraceKind::kActionApplied, kNoNode,
                static_cast<std::uint64_t>(a.kind), digest_action(a));
  anchor_us_ = anchor_us;
  apply(a);
  anchor_us_ = 0;
}

ScenarioResult ScenarioBackend::finish() {
  ScenarioResult r;
  settle(r);
  r.name = spec_.name;
  r.seed = seed_;
  r.failure = failure_;
  r.violations = registry_->check_all();
  r.ok = !failed_ && r.violations.empty();
  // A run that ends with a violation counts as failed too (the process
  // backend keeps its scratch directory on failure).
  if (!r.ok) failed_ = true;
  r.trace_hash = trace_.hash();
  r.trace_events = trace_.size();
  r.ops_completed = op_latency_.count();
  r.op_p50_us = op_latency_.percentile(50);
  r.op_p99_us = op_latency_.percentile(99);
  r.op_latency = op_latency_;
  return r;
}

void ScenarioBackend::fail(const Action& a, const std::string& detail) {
  if (failed_) return;
  failed_ = true;
  std::ostringstream os;
  os << to_string(a.kind) << ": " << detail;
  failure_ = os.str();
}

}  // namespace ssr::scenario
