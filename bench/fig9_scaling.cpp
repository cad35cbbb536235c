// Fig. 9 (this repo's extension): decode throughput vs DPU worker count.
//
// The paper's device offers sixteen ARM cores (Table I); lane sharding
// (DESIGN.md §3.14) lets any number of them chew one proxy's decode
// backlog. This harness sweeps the CodecPool worker count 1 → 16 over a
// fixed 16-lane workload (every count divides the lane count, so home
// assignment stays balanced) and reports:
//
//   * measured requests/sec — wall clock on this machine. On a one-core
//     CI box the workers timeshare, so this does NOT scale; it is
//     reported for completeness only.
//   * modeled requests/sec — jobs / makespan, where makespan is the max
//     over workers of their calibrated scaled busy time (thread-CPU
//     decode ns × the Fig. 7 CostModel factor). This is the quantity the
//     simulated sixteen-core device would deliver, and the one the
//     acceptance criterion asserts scales monotonically 1 → 4 workers.
//   * plan-snapshot contention — Adt::plan_cache_stats() across the
//     steady state. The RCU snapshot path must take the plan-cache mutex
//     exactly ZERO times once warm; the harness exits nonzero otherwise.
//
// Usage: fig9_scaling [--json <path>] [--smoke]
// (DPURPC_BENCH_SMOKE=1 in the environment implies --smoke: the 8- and
// 16-worker points run 480 requests instead of 16 000; the gated 1 → 4
// points always run the full 16 000.)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cpu_timer.hpp"
#include "dpu/codec_pool.hpp"

namespace {

using namespace dpurpc;

constexpr size_t kLanes = 16;
const int kWorkerSweep[] = {1, 2, 4, 8, 16};
/// The acceptance gate compares modeled throughput across 1 → this many
/// workers.
constexpr int kGatedMaxWorkers = 4;
constexpr uint64_t kFullJobs = 16000;
constexpr uint64_t kSmokeJobs = 480;

struct SweepResult {
  int workers = 0;
  uint64_t jobs = 0;
  double measured_rps = 0;
  double modeled_rps = 0;
  double makespan_ms = 0;
  uint64_t steals = 0;
  std::vector<uint64_t> worker_jobs;
};

SweepResult run_sweep(const bench::BenchEnv& env, int workers, uint64_t jobs) {
  // The workload mix: the paper's three synthetic shapes, rotated.
  struct Shape {
    uint32_t class_index;
    Bytes wire;
  };
  const Shape shapes[3] = {
      {env.small_class, bench::make_small_wire(env)},
      {env.ints_class, bench::make_int_array_wire(env, 512)},
      {env.chars_class, bench::make_char_array_wire(env, 2048)},
  };

  dpu::CodecPool::Options options;
  options.workers = workers;
  options.ring_capacity = 256;
  // Decode-direction sweep: no serializer needed.
  dpu::CodecPool pool(env.deserializer.get(), nullptr, kLanes, options);
  pool.start();

  // Warm every worker's first touch of the plan snapshot (codec
  // construction happened in BenchEnv; this warms the rings and pages).
  constexpr size_t kMaxOutstandingPerLane = 128;
  std::vector<size_t> outstanding(kLanes, 0);
  uint64_t submitted = 0, completed = 0, failures = 0;

  WallTimer wall;
  while (completed < jobs) {
    for (size_t lane = 0; lane < kLanes; ++lane) {
      while (submitted < jobs && outstanding[lane] < kMaxOutstandingPerLane) {
        const Shape& s = shapes[submitted % 3];
        dpu::CodecJob job;
        job.class_index = s.class_index;
        job.cookie = submitted;
        job.wire = s.wire;
        if (!pool.submit(lane, job)) break;
        ++submitted;
        ++outstanding[lane];
      }
      dpu::CodecResult result;
      while (pool.try_pop_result(lane, result)) {
        ++completed;
        --outstanding[lane];
        if (!result.status.is_ok() || result.used == 0) ++failures;
      }
    }
  }
  const double elapsed_s = wall.elapsed_s();

  SweepResult r;
  r.workers = static_cast<int>(pool.worker_count());
  r.jobs = jobs;
  r.measured_rps = static_cast<double>(completed) / elapsed_s;
  uint64_t makespan_ns = 0;
  for (size_t w = 0; w < pool.worker_count(); ++w) {
    auto stats = pool.worker_stats(w);
    r.worker_jobs.push_back(stats.jobs);
    r.steals += stats.steals;
    makespan_ns = std::max(makespan_ns, stats.scaled_busy_ns);
  }
  r.makespan_ms = static_cast<double>(makespan_ns) * 1e-6;
  r.modeled_rps = makespan_ns == 0
                      ? 0
                      : static_cast<double>(completed) / (static_cast<double>(makespan_ns) * 1e-9);
  pool.stop();
  if (failures != 0) {
    std::fprintf(stderr, "fig9_scaling: %llu decode failures\n",
                 static_cast<unsigned long long>(failures));
    std::exit(3);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = std::getenv("DPURPC_BENCH_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: fig9_scaling [--json <path>] [--smoke]\n");
      return 64;
    }
  }
  // Smoke mode shortens only the points past the gate: the gated 1 → 4
  // points compare wall-clock service times, and at smoke length their
  // noise broke the gate now and then. Full length gives them more
  // samples under the same bound.
  auto jobs_for = [smoke](int workers) {
    return smoke && workers > kGatedMaxWorkers ? kSmokeJobs : kFullJobs;
  };

  bench::BenchEnv env;
  // Warm the plan snapshot, then fence off the steady state: everything
  // after this line must be served by the lock-free acquire-load path.
  (void)env.adt.plans();
  const adt::PlanCacheStats warm = env.adt.plan_cache_stats();

  std::printf("Fig. 9: decode pool scaling over %zu lanes\n"
              "(modeled = calibrated DPU-core makespan; measured = wall clock on\n"
              "this machine's cores)\n\n",
              kLanes);
  std::printf("%8s %10s %16s %16s %14s %8s\n", "workers", "requests", "modeled req/s",
              "measured req/s", "makespan ms", "steals");

  std::vector<SweepResult> results;
  for (int workers : kWorkerSweep) {
    results.push_back(run_sweep(env, workers, jobs_for(workers)));
    const SweepResult& r = results.back();
    std::printf("%8d %10llu %16.0f %16.0f %14.2f %8llu\n", r.workers,
                static_cast<unsigned long long>(r.jobs), r.modeled_rps, r.measured_rps,
                r.makespan_ms, static_cast<unsigned long long>(r.steals));
  }

  const adt::PlanCacheStats steady = env.adt.plan_cache_stats();
  const uint64_t steady_mutex_entries = steady.mutex_entries - warm.mutex_entries;
  std::printf("\nplan snapshot: %llu hits, %llu rebuilds, %llu steady-state "
              "mutex acquisitions\n",
              static_cast<unsigned long long>(steady.snapshot_hits),
              static_cast<unsigned long long>(steady.rebuilds),
              static_cast<unsigned long long>(steady_mutex_entries));

  // Acceptance: modeled throughput monotonically increasing 1 → 4 workers.
  bool monotonic = true;
  for (size_t i = 1; i < results.size() && results[i].workers <= kGatedMaxWorkers; ++i) {
    if (results[i].modeled_rps <= results[i - 1].modeled_rps) monotonic = false;
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror("fig9_scaling: --json open");
      return 65;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"fig9_scaling\",\n");
    std::fprintf(f, "  \"lanes\": %zu,\n", kLanes);
    std::fprintf(f, "  \"sweeps\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const SweepResult& r = results[i];
      std::fprintf(f,
                   "    {\"workers\": %d, \"requests\": %llu, \"modeled_rps\": %.1f, "
                   "\"measured_rps\": %.1f, \"makespan_ms\": %.3f, "
                   "\"steals\": %llu}%s\n",
                   r.workers, static_cast<unsigned long long>(r.jobs), r.modeled_rps,
                   r.measured_rps, r.makespan_ms,
                   static_cast<unsigned long long>(r.steals),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"plan_cache\": {\"mutex_acquisitions_steady\": %llu, "
                 "\"snapshot_hits\": %llu, \"rebuilds\": %llu},\n",
                 static_cast<unsigned long long>(steady_mutex_entries),
                 static_cast<unsigned long long>(steady.snapshot_hits),
                 static_cast<unsigned long long>(steady.rebuilds));
    std::fprintf(f, "  \"monotonic_1_to_4\": %s\n}\n", monotonic ? "true" : "false");
    std::fclose(f);
  }

  if (steady_mutex_entries != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state decode path took the plan-cache mutex "
                 "%llu times (must be 0)\n",
                 static_cast<unsigned long long>(steady_mutex_entries));
    return 2;
  }
  if (!monotonic) {
    std::fprintf(stderr,
                 "FAIL: modeled throughput not monotonic over 1->4 workers\n");
    return 1;
  }
  std::printf("OK: zero steady-state plan-mutex acquisitions; modeled "
              "throughput monotonic 1->4 workers\n");
  return 0;
}
