#include "scenario/process_runner.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "counter/counter.hpp"
#include "reconf/config_value.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace ssr::scenario {

ProcessRunner::ProcessRunner(ScenarioSpec spec, ProcessBackendOptions opt)
    : ScenarioBackend(std::move(spec), opt.seed), opt_(std::move(opt)) {
  SSR_ASSERT(!opt_.node_binary.empty(),
             "ProcessBackendOptions.node_binary is required");
  epoch_usec_ = steady_usec();
  if (opt_.work_dir.empty()) {
    std::string templ =
        (std::filesystem::temp_directory_path() / "ssr-scenario-XXXXXX")
            .string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    SSR_ASSERT(::mkdtemp(buf.data()) != nullptr, "mkdtemp failed");
    dir_ = buf.data();
    made_dir_ = true;
  } else {
    dir_ = opt_.work_dir;
    std::filesystem::create_directories(dir_);
  }
  trace_.set_clock([this] { return now(); });
  registry_ = std::make_unique<InvariantRegistry>(
      InvariantRegistry::Clock([this] { return now(); }));
}

ProcessRunner::~ProcessRunner() {
  for (auto& [id, p] : procs_) {
    if (p.pid > 0) {
      ::kill(p.pid, SIGKILL);  // kills stopped children too
      int status = 0;
      ::waitpid(p.pid, &status, 0);
      p.pid = -1;
    }
  }
  // Keep the directory (logs, peer maps) whenever something went wrong so
  // CI can upload it as an artifact.
  if (made_dir_ && !opt_.keep_dir && ran_ && !failed_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

SimTime ProcessRunner::now() const { return steady_usec() - epoch_usec_; }

SimTime ProcessRunner::budget_start() const {
  return anchor_us_ > epoch_usec_ ? anchor_us_ - epoch_usec_ : now();
}

SimTime ProcessRunner::scaled(SimTime sim_duration) const {
  return static_cast<SimTime>(static_cast<double>(sim_duration) *
                              opt_.time_scale);
}

SimTime ProcessRunner::await_budget(SimTime sim_duration) const {
  const SimTime s = scaled(sim_duration);
  return s < opt_.min_await ? opt_.min_await : s;
}

void ProcessRunner::step_sleep() const {
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
}

IdSet ProcessRunner::alive_ids() const {
  IdSet out;
  for (const auto& [id, p] : procs_) {
    if (p.alive) out.insert(id);
  }
  return out;
}

std::span<const node::Status> ProcessRunner::statuses() const {
  statuses_.clear();
  for (const auto& [id, p] : procs_) {
    if (p.alive) statuses_.push_back(p.status);
  }
  return statuses_;
}

ProcessRunner::Proc* ProcessRunner::running(NodeId id) {
  auto it = procs_.find(id);
  if (it == procs_.end() || !it->second.alive || it->second.paused) {
    return nullptr;
  }
  return &it->second;
}

// -- Process management ------------------------------------------------------

void ProcessRunner::write_cohort_peer_map() {
  // Atomic rewrite (tmp + rename): daemons re-read this file while any of
  // their entries still shows port 0.
  const std::string path = dir_ + "/peers.txt";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [id, p] : procs_) {
      out << id << " 127.0.0.1 " << p.data_port << "\n";
    }
  }
  std::rename(tmp.c_str(), path.c_str());
}

void ProcessRunner::spawn(NodeId id, const std::string& peers_path) {
  Proc& p = procs_[id];
  const std::string port_file = dir_ + "/port." + std::to_string(id);
  std::remove(port_file.c_str());
  const std::string log_file = dir_ + "/node-" + std::to_string(id) + ".log";

  std::vector<std::string> args = {
      opt_.node_binary,
      "--id", std::to_string(id),
      "--peers", peers_path,
      "--port-file", port_file,
      "--seconds", std::to_string(opt_.node_seconds),
      "--tick-us", std::to_string(opt_.tick_us),
      "--seed",
      std::to_string((opt_.seed + 0x9E3779B97F4A7C15ULL) * 1000003ULL + id),
  };
  if (opt_.shard != 0) {
    args.push_back("--shard");
    args.push_back(std::to_string(opt_.shard));
  }
  if (spec_.enable_vs) args.push_back("--vs");
  if (spec_.aggressive_policy) args.push_back("--aggressive");
  if (spec_.adopt_joiners) args.push_back("--adopt-joiners");
  if (spec_.exhaust_bound != 0) {
    args.push_back("--exhaust-bound");
    args.push_back(std::to_string(spec_.exhaust_bound));
  }

  const int pid = ::fork();
  SSR_ASSERT(pid >= 0, "fork failed");
  if (pid == 0) {
    // Child: log to its own file, then become the daemon.
    const int fd = ::open(log_file.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv ssr_node");
    ::_exit(127);
  }
  p.pid = pid;
  p.alive = true;
  p.paused = false;
  p.sampled = false;
  p.status = node::Status{};
  p.status.id = id;
  p.ops_harvested = 0;
}

bool ProcessRunner::collect_ports(NodeId id) {
  Proc& p = procs_[id];
  const std::string port_file = dir_ + "/port." + std::to_string(id);
  const SimTime deadline = now() + 15 * kSec;
  while (now() < deadline) {
    std::ifstream in(port_file);
    unsigned data = 0, ctl = 0;
    if (in && (in >> data >> ctl) && data != 0 && ctl != 0) {
      p.data_port = static_cast<std::uint16_t>(data);
      p.ctl_port = static_cast<std::uint16_t>(ctl);
      return true;
    }
    int status = 0;
    if (::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.alive = false;
      p.pid = -1;
      return false;  // died before binding — the log file has the story
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  return false;
}

NodeId ProcessRunner::add_node() {
  const NodeId id = next_id_++;
  // A late joiner gets its own map: every current cohort member with its
  // real port, plus itself at port 0 (bind-and-discover). Existing nodes
  // learn the newcomer's address from its first well-formed datagram.
  std::string peers_path = dir_ + "/peers." + std::to_string(id) + ".txt";
  {
    std::ofstream out(peers_path);
    for (const auto& [other, p] : procs_) {
      if (p.alive) out << other << " 127.0.0.1 " << p.data_port << "\n";
    }
    out << id << " 127.0.0.1 0\n";
  }
  spawn(id, peers_path);
  trace_.record(TraceKind::kNodeAdded, id);
  if (!collect_ports(id)) {
    fail("node " + std::to_string(id) + " failed to start");
  }
  return id;
}

bool ProcessRunner::crash_node(NodeId id) {
  auto it = procs_.find(id);
  if (it == procs_.end() || !it->second.alive) return false;
  Proc& p = it->second;
  // Completed operations die with the process; pull them first so the
  // counter-order record stays complete.
  if (!p.paused) harvest_ops_from(id, p);
  ::kill(p.pid, SIGKILL);  // kills stopped processes too
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.pid = -1;
  p.alive = false;
  return true;
}

// -- Sampling ----------------------------------------------------------------

bool ProcessRunner::sample_node(NodeId id, Proc& p) {
  auto reply = client_.request(p.ctl_port, "STATUS", 250, 2);
  if (!reply) {
    // Unreachable: either mid-GC busy (retry next round) or dead. Only an
    // observed exit is fatal — a wedged-alive node surfaces as an await
    // timeout instead.
    int status = 0;
    if (p.pid > 0 && ::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.pid = -1;
      p.alive = false;
      fail("node " + std::to_string(id) + " exited unexpectedly");
    }
    return false;
  }
  if (reply->rfind("OK", 0) != 0) return false;
  const auto kv = ctl::parse_kv(reply->substr(2));
  auto status = ctl::parse_status(kv);
  if (!status || status->id != id) return false;
  // Transport and workload counters: a missing one reads 0.
  const auto counter = [&kv](const char* key) {
    return ctl::parse_u64(kv, key).value_or(0);
  };
  const std::uint64_t changes = counter("cfgchanges");
  p.incq = counter("incq");
  p.shmq = counter("shmq");
  p.sent = counter("sent");
  p.recv = counter("recv");
  p.syscalls = counter("syscalls");
  p.batched = counter("batched");

  const reconf::ConfigValue& cfg = status->config;
  const std::uint64_t digest = digest_ids(cfg.is_set() ? cfg.ids() : IdSet{});
  if (p.sampled && changes > p.cfgchanges) {
    // The daemon reconfigured since the last sample. The count is exact
    // (the daemon counts every change handler fire); the *values* are
    // sampled, so each of the missed changes is attributed the currently
    // believed configuration at the sample instant.
    const std::uint64_t delta = changes - p.cfgchanges;
    for (std::uint64_t i = 0; i < delta; ++i) {
      registry_->config_history().record(now(), id, cfg);
    }
    trace_.record(TraceKind::kConfigChange, id, digest, delta);
  } else if (!p.sampled || !(cfg == p.status.config)) {
    trace_.record(TraceKind::kNodeSample, id, digest,
                  (status->noreco ? 2u : 0u) | (status->participant ? 1u : 0u));
  }
  p.cfgchanges = changes;
  p.status = std::move(*status);
  p.sampled = true;
  return true;
}

bool ProcessRunner::sample() {
  bool all = true;
  for (auto& [id, p] : procs_) {
    if (!p.alive || p.paused) continue;
    all = sample_node(id, p) && all;
    if (failed_) return false;
  }
  return all;
}

void ProcessRunner::harvest_ops_from(NodeId id, Proc& p) {
  // Paged pull: every reply carries ops starting at our cursor plus the
  // daemon's total. The cursor only moves past fully validated ops, so a
  // truncated or garbled reply is refetched on the next harvest instead of
  // silently dropping completed increments from the order check.
  for (;;) {
    auto reply = client_.request(
        p.ctl_port, "OPS " + std::to_string(p.ops_harvested), 300, 2);
    if (!reply || reply->rfind("OK", 0) != 0) return;
    std::istringstream is(reply->substr(2));
    std::string tok;
    std::size_t total = 0;
    bool progressed = false;
    while (is >> tok) {
      if (tok.rfind("total=", 0) == 0) {
        total = std::strtoull(tok.substr(6).c_str(), nullptr, 10);
        continue;
      }
      if (tok.rfind("op=", 0) != 0) continue;
      const std::string body = tok.substr(3);
      const auto c1 = body.find(':');
      const auto c2 = body.find(':', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) return;
      const std::uint64_t started =
          std::strtoull(body.substr(0, c1).c_str(), nullptr, 10);
      const std::uint64_t finished =
          std::strtoull(body.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr,
                        10);
      auto blob = ctl::hex_decode(body.substr(c2 + 1));
      if (!blob) return;
      wire::Reader r(*blob);
      auto c = counter::Counter::decode(r);
      if (!c || !r.ok()) return;
      registry_->counter_order().record(started, finished, *c);
      if (finished >= started) op_latency_.record(finished - started);
      trace_.record(TraceKind::kIncrementDone, id, 1, c->seqn);
      ++p.ops_harvested;
      progressed = true;
    }
    if (p.ops_harvested >= total || !progressed) return;
  }
}

void ProcessRunner::harvest_ops() {
  for (auto& [id, p] : procs_) {
    if (p.alive && !p.paused) harvest_ops_from(id, p);
  }
}

// -- Control helpers ---------------------------------------------------------

void ProcessRunner::control_or_fail(NodeId id, const std::string& cmd) {
  auto& p = procs_.at(id);
  auto reply = client_.request(p.ctl_port, cmd);
  if (!reply) {
    fail("node " + std::to_string(id) + " unreachable for '" + cmd + "'");
    return;
  }
  if (reply->rfind("OK", 0) != 0) {
    fail("node " + std::to_string(id) + " rejected '" + cmd + "': " + *reply);
  }
}

void ProcessRunner::send_blocked_sets(const IdSet& touched) {
  for (NodeId id : touched) {
    if (running(id)) {
      control_or_fail(id, "BLOCK " + ctl::format_ids(blocked_[id]));
    }
  }
}

void ProcessRunner::garbage_channels(std::uint64_t per_node) {
  // OS-level channel garbage: raw junk datagrams straight at every node's
  // data socket — no cooperation from the daemon at all.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (raw < 0) return;
  Rng rng(opt_.seed ^ 0x6A12BA6EULL);
  for (const auto& [id, p] : procs_) {
    if (!p.alive) continue;
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to.sin_port = htons(p.data_port);
    for (std::uint64_t i = 0; i < per_node; ++i) {
      std::uint8_t junk[64];
      for (std::uint8_t& b : junk) {
        b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
      }
      (void)::sendto(raw, junk, sizeof(junk), 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof(to));
    }
  }
  ::close(raw);
}

// -- Run loop ----------------------------------------------------------------

bool ProcessRunner::bootstrap() {
  SSR_ASSERT(!ran_, "bootstrap() spawns the cohort once");
  ran_ = true;  // the destructor's keep-the-scratch-dir logic keys on this

  // Bootstrap cohort: spawn everyone against a placeholder map (all ports
  // 0), then publish the real ports in one atomic rewrite. The daemons
  // poll the map until their view has no port-0 entries left.
  for (std::size_t i = 0; i < spec_.initial_nodes; ++i) {
    const NodeId id = next_id_++;
    procs_[id];  // placeholder so the shared map lists the whole cohort
  }
  {
    const std::string path = dir_ + "/peers.txt";
    std::ofstream out(path);
    for (const auto& [id, p] : procs_) {
      (void)p;
      out << id << " 127.0.0.1 0\n";
    }
  }
  for (auto& [id, p] : procs_) {
    (void)p;
    spawn(id, dir_ + "/peers.txt");
    trace_.record(TraceKind::kNodeAdded, id);
  }
  for (auto& [id, p] : procs_) {
    (void)p;
    if (!collect_ports(id)) {
      fail("node " + std::to_string(id) + " failed to start");
      break;
    }
  }
  if (!failed_) write_cohort_peer_map();
  return !failed_;
}

void ProcessRunner::settle(ScenarioResult& r) {
  harvest_ops();
  r.sim_time = now();
  for (const auto& [id, p] : procs_) {
    (void)id;
    r.packets_sent += p.sent;
    r.packets_delivered += p.recv;
    r.net_syscalls += p.syscalls;
    r.net_batched += p.batched;
  }
}

void ProcessRunner::split(const IdSet& a, const IdSet& b) {
  for (NodeId x : a) {
    for (NodeId y : b) {
      if (x == y) continue;
      blocked_[x].insert(y);
      blocked_[y].insert(x);
    }
  }
  IdSet touched = a;
  for (NodeId y : b) touched.insert(y);
  send_blocked_sets(touched);
}

void ProcessRunner::heal() {
  IdSet touched;
  for (auto& [id, set] : blocked_) {
    if (!set.empty()) touched.insert(id);
    set = IdSet{};
  }
  send_blocked_sets(touched);
}

void ProcessRunner::inject(const Action& a, NodeId id) {
  control_or_fail(id, std::string("FAULT ") + to_string(a.kind) + " " +
                          std::to_string(a.n));
}

void ProcessRunner::plant_config(NodeId id, const IdSet& ids) {
  control_or_fail(id, "CONF " + ctl::format_ids(ids));
}

void ProcessRunner::run_for(SimTime d) {
  const SimTime deadline = budget_start() + scaled(d);
  while (now() < deadline && !failed_) {
    sample();
    step_sleep();
  }
}

bool ProcessRunner::await(SimTime d, const std::function<bool()>& pred) {
  const SimTime deadline = budget_start() + await_budget(d);
  for (;;) {
    sample();
    if (failed_) return false;
    if (pred()) return true;
    if (now() >= deadline) return pred();
    step_sleep();
  }
}

bool ProcessRunner::pause_node(NodeId id) {
  Proc* p = running(id);
  if (p == nullptr) return false;
  // Harvest first: a stopped process cannot answer OPS, and it may be
  // SIGKILLed before ever resuming.
  harvest_ops_from(id, *p);
  ::kill(p->pid, SIGSTOP);
  p->paused = true;
  return true;
}

bool ProcessRunner::resume_node(NodeId id) {
  auto it = procs_.find(id);
  if (it == procs_.end() || !it->second.alive || !it->second.paused) {
    return false;
  }
  ::kill(it->second.pid, SIGCONT);
  it->second.paused = false;
  // Peer-filter updates (splits/heals) that happened while the node was
  // stopped were never delivered; reinstall the current set.
  control_or_fail(id, "BLOCK " + ctl::format_ids(blocked_[id]));
  // And sample immediately, so state from before the pause cannot be
  // attributed into a closure window opened later.
  sample_node(id, it->second);
  return true;
}

IdSet ProcessRunner::queue_ops(const Action& a, const std::string& cmd,
                               std::uint64_t Proc::*queue, SimTime budget) {
  IdSet queued;
  for (NodeId id : targets_or_alive(a)) {
    if (!running(id)) continue;
    control_or_fail(id, cmd);
    if (failed_) return queued;
    queued.insert(id);
  }
  // Remaining queue depth at the deadline is not a scenario failure —
  // exactly like the simulator's bounded-attempt bursts — it only means
  // fewer completed ops.
  await(budget, [&] {
    for (NodeId id : queued) {
      const Proc& p = procs_.at(id);
      if (p.alive && !p.paused && (!p.sampled || p.*queue != 0)) return false;
    }
    return true;
  });
  return queued;
}

void ProcessRunner::increment_burst(const Action& a) {
  // Generous drain budget: increments are quorum operations that legally
  // abort and retry through reconfigurations.
  queue_ops(a, "INC " + std::to_string(a.n), &Proc::incq,
            120 * kSec * (a.n == 0 ? 1 : a.n));
  if (!failed_) harvest_ops();
}

void ProcessRunner::shmem_ops(const Action& a, bool write) {
  const std::string cmd = write ? "SHMEMW " + a.reg + " " + std::to_string(a.n)
                                : "SHMEMR " + a.reg;
  const IdSet queued = queue_ops(a, cmd, &Proc::shmq, 160 * kSec);
  if (failed_) return;
  for (NodeId id : queued) {
    const Proc& p = procs_.at(id);
    trace_.record(TraceKind::kShmemOpDone, id,
                  (p.sampled && p.shmq == 0) ? 1 : 0, write ? 1 : 0);
  }
}

}  // namespace ssr::scenario
