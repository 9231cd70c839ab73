// E9 — §4.3 shared-memory emulation: MWMR register operation latency vs
// configuration size, and behaviour across a delicate reconfiguration
// (operations abort during the change, the value survives, service resumes).
#include "bench_common.hpp"

namespace ssr::bench {
namespace {

bool write_sync(harness::World& w, NodeId id, const std::string& name,
                const std::string& value, double* ms_out = nullptr) {
  bool done = false, ok = false;
  const SimTime start = w.scheduler().now();
  if (!w.node(id).registers().write(name,
                                    wire::Bytes(value.begin(), value.end()),
                                    [&](bool success, counter::Counter) {
                                      ok = success;
                                      done = true;
                                    })) {
    return false;
  }
  const SimTime deadline = w.scheduler().now() + 60 * kSec;
  while (!done && w.scheduler().now() < deadline) w.run_for(kMsec);
  if (ms_out && done && ok) *ms_out = to_ms(w.scheduler().now() - start);
  return done && ok;
}

// Register "r0".."r2" for operation i. Built with append: GCC 12 flags
// `"r" + std::string&&` with a false -Wrestrict in Release builds.
std::string reg_name(int i) {
  std::string name = "r";
  name += std::to_string(i % 3);
  return name;
}

bool read_sync(harness::World& w, NodeId id, const std::string& name,
               std::string* value_out, double* ms_out = nullptr) {
  bool done = false, ok = false;
  const SimTime start = w.scheduler().now();
  if (!w.node(id).registers().read(
          name, [&](bool success, const wire::Bytes& v, counter::Counter) {
            ok = success;
            if (value_out) value_out->assign(v.begin(), v.end());
            done = true;
          })) {
    return false;
  }
  const SimTime deadline = w.scheduler().now() + 60 * kSec;
  while (!done && w.scheduler().now() < deadline) w.run_for(kMsec);
  if (ms_out && done && ok) *ms_out = to_ms(w.scheduler().now() - start);
  return done && ok;
}

void BM_RegisterOps(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  double write_ms = 0, read_ms = 0;
  double writes = 0, reads = 0, aborts = 0;
  std::uint64_t seed = 6100;
  for (auto _ : state) {
    harness::World w(world_config(seed++));
    boot(w, n, state);
    w.run_for(120 * kSec);
    for (int i = 0; i < 10; ++i) {
      const NodeId who = 1 + (i % n);
      double ms = 0;
      if (write_sync(w, who, reg_name(i), std::to_string(i), &ms)) {
        write_ms += ms;
        writes += 1;
      } else {
        aborts += 1;
        w.run_for(2 * kSec);
      }
    }
    for (int i = 0; i < 10; ++i) {
      const NodeId who = 1 + ((i + 1) % n);
      double ms = 0;
      std::string v;
      if (read_sync(w, who, reg_name(i), &v, &ms)) {
        read_ms += ms;
        reads += 1;
      } else {
        aborts += 1;
        w.run_for(2 * kSec);
      }
    }
  }
  state.counters["write_sim_ms"] =
      benchmark::Counter(writes > 0 ? write_ms / writes : -1);
  state.counters["read_sim_ms"] =
      benchmark::Counter(reads > 0 ? read_ms / reads : -1);
  state.counters["aborts"] = benchmark::Counter(aborts);
}

BENCHMARK(BM_RegisterOps)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->ArgName("N")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// Register survival across a delicate reconfiguration; operations issued
// during the replacement abort (the emulation is suspending — paper §4.3),
// and the value is intact afterwards.
void BM_RegisterAcrossReconfig(benchmark::State& state) {
  double recover_ms = 0;
  double lost = 0;
  std::uint64_t seed = 6500;
  for (auto _ : state) {
    harness::World w(world_config(seed++));
    boot(w, 4, state);
    w.run_for(120 * kSec);
    if (!write_sync(w, 1, "durable", "payload")) {
      state.SkipWithError("initial write failed");
      return;
    }
    w.node(1).recsa().estab(IdSet{1, 2, 3});
    const SimTime start = w.scheduler().now();
    if (run_until(w, 900 * kSec, [&] {
          auto c = w.common_config();
          return c && *c == IdSet{1, 2, 3};
        }) < 0) {
      state.SkipWithError("reconfiguration did not complete");
      return;
    }
    // First successful read after the reconfiguration.
    std::string v;
    const SimTime deadline = w.scheduler().now() + 300 * kSec;
    bool ok = false;
    while (!ok && w.scheduler().now() < deadline) {
      ok = read_sync(w, 2, "durable", &v);
      if (!ok) w.run_for(5 * kSec);
    }
    if (!ok) {
      state.SkipWithError("service did not resume");
      return;
    }
    recover_ms += to_ms(w.scheduler().now() - start);
    if (v != "payload") lost += 1;
  }
  state.counters["resume_sim_ms"] =
      benchmark::Counter(recover_ms / static_cast<double>(state.iterations()));
  state.counters["values_lost"] = benchmark::Counter(lost);
}

BENCHMARK(BM_RegisterAcrossReconfig)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace ssr::bench

BENCHMARK_MAIN();
