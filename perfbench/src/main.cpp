// perfbench: one workload of the offload-datapath benchmark per call.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --low-rps <r> --high-rps <r> --ladder <r,r,...> --p99-limit-us <us>
//             [--wrong-reply]
//
// Untraced (--trace 0): the end-to-end metrics — the process CPU cost of
// a request in a closed loop (kInFlight calls in flight; stream_ingest:
// streams back to back) over seven sub-phases on fresh deployments after
// one warm-up, and the median set-up time.
// Traced (--trace 1): the per-layer metrics — isolated layer timings on
// the workload's inputs; goodput and host-thread CPU in the closed loop;
// latency at the low
// and high rates and the ascending slo_rps ladder, tracing off; the
// deployment's own counters read around an untraced phase at the high
// rate; then one sampled-trace phase at the high rate for the stage
// breakdown. The last stdout line is the JSON result, with the raw
// per-phase values under "raw". --wrong-reply makes every host handler
// answer wrongly (the self-test proves the checks catch it).
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_timer.hpp"
#include "fixture.hpp"
#include "layers.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "traffic.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double low_rps = 0, high_rps = 0, p99_limit_us = 0;
  std::vector<double> ladder;
  bool wrong_reply = false;
};

/// Sub-phases at each fixed rate of the traced pass.
constexpr int kSubPhases = 5;
/// Sub-phases behind each end-to-end cost figure.
constexpr int kCostPhases = 7;
/// Calls kept in flight by the closed loop (fig12's calibration depth).
constexpr size_t kInFlight = 64;
/// Replies per window of the tail estimate: ten beyond its p99.
constexpr size_t kWindow = 1000;
constexpr double kMiB = 1024.0 * 1024.0;

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(1);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--wrong-reply") {
      a.wrong_reply = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--low-rps") {
      a.low_rps = std::atof(v.c_str());
    } else if (k == "--high-rps") {
      a.high_rps = std::atof(v.c_str());
    } else if (k == "--p99-limit-us") {
      a.p99_limit_us = std::atof(v.c_str());
    } else if (k == "--ladder") {
      for (char* p = v.data(); *p;) {
        a.ladder.push_back(std::strtod(p, &p));
        if (*p == ',') ++p;
      }
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.low_rps > 0 && a.high_rps > a.low_rps &&
         a.p99_limit_us > 0;
}

/// JSON array of the raw per-phase values, for the run's record.
std::string phase_json(const std::vector<PhaseResult>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    const PhaseResult& p = v[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"rps\": %.0f, \"seconds\": %.3f, \"scheduled\": %llu, \"ok\": %llu, "
                  "\"errors\": %llu, \"wrong\": %llu, \"drops\": %llu, \"timeouts\": %llu, "
                  "\"p50_us\": %.2f, \"p99_us\": %.2f, \"late_p99_us\": %.2f, "
                  "\"cpu_us_per_req\": %.3f, \"host_cpu_us_per_req\": %.3f}",
                  i ? ", " : "", p.rate, p.seconds, (unsigned long long)p.scheduled,
                  (unsigned long long)p.ok, (unsigned long long)p.errors,
                  (unsigned long long)p.wrong, (unsigned long long)p.drops,
                  (unsigned long long)p.timeouts, p.p50_us, p.p99_us, p.late_p99_us,
                  p.cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, p.ok)),
                  p.host_cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, p.ok)));
    out += buf;
  }
  return out + "]";
}

std::string stream_json(const std::vector<StreamResult>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    const StreamResult& s = v[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"streams\": %llu, \"failed\": %llu, \"wrong\": %llu, \"mib\": %.3f, "
                  "\"seconds\": %.3f, \"cpu_s\": %.4f, \"host_cpu_s\": %.4f, \"stalls\": %llu}",
                  i ? ", " : "", (unsigned long long)s.streams, (unsigned long long)s.failed,
                  (unsigned long long)s.wrong, static_cast<double>(s.bytes) / kMiB, s.wall_s,
                  s.cpu_s, s.host_cpu_s, (unsigned long long)s.stalls);
    out += buf;
  }
  return out + "]";
}

/// One run of the benchmark: owns the deployments it builds, the tallies
/// behind "attempted"/"failed", and the raw record.
class Runner {
 public:
  explicit Runner(const Args& a) : a_(a), t_(kind_of(a.workload), a.seed) {}

  int run() {
    if (a_.trace) {
      traced();
    } else if (t_.kind() == Kind::kStreamIngest) {
      untraced_stream();
    } else {
      untraced_unary();
    }
    const bool correct = wrong_ == 0 && !not_idle_;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
                "\"raw\": {\"setup_s\": [%s], \"wrong_replies\": %llu, \"not_idle\": %s%s}}\n",
                correct ? "true" : "false", (unsigned long long)attempted_,
                (unsigned long long)failed_, metrics_.json().c_str(), join(setups_).c_str(),
                (unsigned long long)wrong_, not_idle_ ? "true" : "false", raw_.c_str());
    std::fflush(stdout);
    return correct && attempted_ > 0 ? 0 : 2;
  }

 private:
  static Kind kind_of(const std::string& w) {
    if (w == "unary_small") return Kind::kUnarySmall;
    if (w == "unary_ingest") return Kind::kUnaryIngest;
    if (w == "unary_fetch") return Kind::kUnaryFetch;
    if (w == "stream_ingest") return Kind::kStreamIngest;
    die("unknown workload " + w);
  }

  static std::string join(const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ", ") + std::to_string(x);
    return out;
  }

  uint64_t phase_seed() { return mix64(a_.seed * 1000003 + ++phases_); }

  /// A new deployment, proven idle: every timed phase starts on one.
  std::unique_ptr<Deployment> fresh() {
    std::string err;
    auto d = deploy(a_.wrong_reply, &err);
    if (!d) die("deployment: " + err);
    setups_.push_back(d->setup_s);
    if (!d->wait_idle()) not_idle_ = true;
    return d;
  }

  /// Streams back to back in the background while `body` runs (the
  /// stream_ingest probes); tallies the streams into the run's totals.
  template <typename F>
  auto with_background_stream(Deployment& d, F&& body) {
    if (t_.kind() != Kind::kStreamIngest) return body();
    std::atomic<bool> stop{false};
    StreamResult bg;
    std::thread th([&] { bg = run_streams(d, t_, 1e9, &stop); });
    // Let the first stream get going before the measured phase starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto result = body();
    stop.store(true);
    th.join();
    tally(bg);
    background_.push_back(bg);
    return result;
  }

  PhaseResult phase(Deployment& d, double rate, double seconds) {
    PhaseResult p = with_background_stream(
        d, [&] { return run_phase(d, t_, rate, seconds, phase_seed()); });
    if (p.scheduled == 0) die("phase could not start");
    wrong_ += p.wrong;
    return p;
  }

  void tally(const PhaseResult& p) {
    attempted_ += p.scheduled;
    failed_ += p.failed();
  }
  void tally(const StreamResult& s) {
    attempted_ += s.streams + s.failed + s.wrong;
    failed_ += s.failed + s.wrong;
    wrong_ += s.wrong;
  }

  /// The p99 of a typical stretch of traffic: the p99 of every window of
  /// kWindow consecutive replies, then the median over windows. A host
  /// stall that hits a few windows does not move it; a tail the datapath
  /// produces throughout does. Falls back to the pooled p99 when the
  /// phases hold less than one window.
  static double tail_p99(const std::vector<PhaseResult>& ps) {
    std::vector<double> pooled, windows;
    for (const auto& p : ps) {
      const auto& l = p.latencies_us;
      pooled.insert(pooled.end(), l.begin(), l.end());
      for (size_t i = 0; i + kWindow <= l.size(); i += kWindow) {
        std::vector<double> w(l.begin() + static_cast<std::ptrdiff_t>(i),
                              l.begin() + static_cast<std::ptrdiff_t>(i + kWindow));
        windows.push_back(quantile(w, 0.99));
      }
    }
    return windows.empty() ? quantile(pooled, 0.99) : median(windows);
  }

  /// The SLO test of a set of phases at one rate: tail p99 within the
  /// limit, at most 1% failed, at least 98% of arrivals served.
  bool meets_slo(const std::vector<PhaseResult>& ps) const {
    uint64_t sched = 0, failed = 0, ok = 0;
    for (const auto& p : ps) {
      sched += p.scheduled;
      failed += p.failed();
      ok += p.ok;
    }
    return tail_p99(ps) <= a_.p99_limit_us && failed * 100 <= sched &&
           static_cast<double>(ok) >= 0.98 * static_cast<double>(sched);
  }

  /// One untimed run of `body` on its own deployment: the process's first
  /// deployment pays for cold caches and lazy set-up, which no figure
  /// should carry. Its replies are still checked and tallied.
  template <typename F>
  void warm_up(F&& body) {
    auto d = fresh();
    tally(body(*d));
    setups_.clear();
  }

  /// kInFlight calls in flight for `seconds`; replies checked.
  PhaseResult closed(Deployment& d, double seconds) {
    PhaseResult p = run_closed(d, t_, kInFlight, seconds, phase_seed());
    if (p.scheduled == 0) die("closed loop could not start");
    wrong_ += p.wrong;
    return p;
  }

  /// kSubPhases phases at each of the two fixed rates, interleaved low,
  /// high, low, ... so a disturbed stretch of the run hits both rates
  /// alike; every sub-phase gets a fresh deployment.
  void fixed_rate_phases(double seconds, std::vector<PhaseResult>& low,
                         std::vector<PhaseResult>& high) {
    for (int i = 0; i < 2 * kSubPhases; ++i) {
      auto d = fresh();
      auto& group = i % 2 == 0 ? low : high;
      group.push_back(phase(*d, i % 2 == 0 ? a_.low_rps : a_.high_rps, seconds));
      tally(group.back());
    }
  }

  static double med(const std::vector<PhaseResult>& ps, double PhaseResult::*f) {
    std::vector<double> v;
    for (const auto& p : ps) v.push_back(p.*f);
    return median(v);
  }
  /// Fixed-rate phases (`sub_s` each), then the ascending ladder (`step_s`
  /// per step): the latency and slo_rps figures.
  void rate_metrics(double sub_s, double step_s) {
    warm_up([&](Deployment& d) { return phase(d, a_.high_rps, sub_s); });
    std::vector<PhaseResult> low, high;
    fixed_rate_phases(sub_s, low, high);
    metrics_.set("p50_us.low", med(low, &PhaseResult::p50_us), "us");
    metrics_.set("p99_us.low", tail_p99(low), "us");
    metrics_.set("p50_us.high", med(high, &PhaseResult::p50_us), "us");
    metrics_.set("p99_us.high", tail_p99(high), "us");

    double slo = 0;
    std::vector<PhaseResult> ladder;
    if (meets_slo(low)) slo = a_.low_rps;
    if (slo > 0 && meets_slo(high)) {
      slo = a_.high_rps;
      // Ascending, one fresh deployment per step, stopping at the first
      // miss; the missing step is overload by design and is recorded raw
      // but not tallied as failed operations.
      for (double rate : a_.ladder) {
        if (rate <= a_.high_rps) continue;
        auto d = fresh();
        ladder.push_back(phase(*d, rate, step_s));
        if (!meets_slo({ladder.back()})) break;
        tally(ladder.back());
        slo = rate;
      }
    }
    metrics_.set("slo_rps", slo, "1/s");
    raw_ += ", \"low\": " + phase_json(low) + ", \"high\": " + phase_json(high) +
            ", \"ladder\": " + phase_json(ladder);
  }

  /// CPU cost per request in the closed loop, one fresh deployment per
  /// sub-phase; a request's bytes are its request + reply payloads.
  void untraced_unary() {
    const double S = a_.seconds;
    warm_up([&](Deployment& d) { return closed(d, 0.05 * S); });
    std::vector<PhaseResult> runs;
    Costs c;
    for (int i = 0; i < kCostPhases; ++i) {
      auto d = fresh();
      const PhaseResult& p = runs.emplace_back(closed(*d, 0.11 * S));
      tally(p);
      c.add(static_cast<double>(p.payload_bytes) / kMiB, static_cast<double>(p.ok), p.cpu_s);
    }
    cost_metrics(c);
    raw_ += ", \"closed\": " + phase_json(runs);
  }

  /// The same for streams back to back, one at a time; a request is one
  /// Row record delivered.
  void untraced_stream() {
    const double S = a_.seconds;
    warm_up([&](Deployment& d) { return run_streams(d, t_, 0.05 * S); });
    std::vector<StreamResult> runs;
    Costs c;
    for (int i = 0; i < kCostPhases; ++i) {
      auto d = fresh();
      const StreamResult& s = runs.emplace_back(run_streams(*d, t_, 0.11 * S));
      tally(s);
      c.add(static_cast<double>(s.bytes) / kMiB,
            static_cast<double>(s.streams * t_.stream_rows()), s.cpu_s);
    }
    cost_metrics(c);
    raw_ += ", \"streams\": " + stream_json(runs);
  }

  /// Per-sub-phase samples behind the end-to-end cost figures.
  struct Costs {
    std::vector<double> cpu_req, cpu_mib;
    void add(double mib, double requests, double cpu_s) {
      cpu_req.push_back(cpu_s * 1e6 / std::max(requests, 1.0));
      cpu_mib.push_back(cpu_s * 1e6 / mib);
    }
  };

  void cost_metrics(const Costs& c) {
    metrics_.set("setup_s", median(setups_), "s");
    metrics_.set("cpu_us_per_req", median(c.cpu_req), "us");
    metrics_.set("cpu_us_per_mib", median(c.cpu_mib), "us");
  }

  void traced();

  Args a_;
  Traffic t_;
  Metrics metrics_;
  std::string raw_;
  std::vector<double> setups_;
  std::vector<StreamResult> background_;
  uint64_t attempted_ = 0, failed_ = 0, wrong_ = 0, phases_ = 0;
  bool not_idle_ = false;
};

/// Counters read around one phase from outside the deployment.
struct Counters {
  uint64_t inline_jobs = 0, pool_jobs = 0, busy_ns = 0, responses = 0;
  uint64_t msgs = 0, blocks = 0, hint_retries = 0, link_bytes = 0, stalls = 0;
  uint64_t handler_ns = 0, handler_calls = 0, stream_bytes = 0, wall_ns = 0;

  static Counters read(Deployment& d) {
    Counters c;
    const auto& s = d.proxy->stats();
    c.inline_jobs = s.inline_decodes.load() + s.inline_serializes.load();
    const auto& pool = d.proxy->codec_pool();
    for (size_t w = 0; w < pool.worker_count(); ++w) {
      auto ws = pool.worker_stats(w);
      c.pool_jobs += ws.jobs;
      c.busy_ns += ws.busy_ns;
    }
    c.responses = s.responses_forwarded.load();
    c.msgs = d.counter("rdmarpc_messages_sent_total");
    c.blocks = d.counter("rdmarpc_blocks_sent_total");
    c.hint_retries = d.counter("dpurpc_block_hint_retries_total");
    c.link_bytes = d.dpu_conn->tx_counters().bytes.load() + d.host_conn->tx_counters().bytes.load();
    c.stalls = metrics::default_counter("dpurpc_xrpc_credit_stalls_total", "").value();
    c.handler_ns = d.handler_ns.load();
    c.handler_calls = d.handler_calls.load();
    c.stream_bytes = s.stream_bytes.load();
    c.wall_ns = WallTimer::now();
    return c;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Runner::traced() {
  const double S = a_.seconds;
  if (!measure_layers(t_, 0.15 * S, metrics_)) die("layer timing failed");
  // Latency at the fixed rates and the slo_rps ladder, tracing off.
  rate_metrics(0.04 * S, 0.025 * S);

  // The closed loop of the untraced run once more (stream_ingest: streams
  // back to back): goodput, and the host poller thread's CPU per request
  // and per MiB.
  {
    auto d = fresh();
    double mib = 0, requests = 0, wall_s = 0, host_s = 0;
    if (t_.kind() == Kind::kStreamIngest) {
      const StreamResult r = run_streams(*d, t_, 0.08 * S);
      tally(r);
      mib = static_cast<double>(r.bytes) / kMiB;
      requests = static_cast<double>(r.streams * t_.stream_rows());
      wall_s = r.wall_s;
      host_s = r.host_cpu_s;
      raw_ += ", \"closed\": " + stream_json({r});
    } else {
      const PhaseResult p = closed(*d, 0.08 * S);
      tally(p);
      mib = static_cast<double>(p.payload_bytes) / kMiB;
      requests = static_cast<double>(p.ok);
      wall_s = p.seconds;
      host_s = p.host_cpu_s;
      raw_ += ", \"closed\": " + phase_json({p});
    }
    metrics_.set("goodput_mib_s", ratio(mib, wall_s), "MiB/s");
    metrics_.set("host_cpu_us_per_req", ratio(host_s * 1e6, requests), "us");
    metrics_.set("host_cpu_us_per_mib", ratio(host_s * 1e6, mib), "us");
  }

  // The high rate again, with the deployment's own counters read around it.
  PhaseResult high;
  {
    auto d = fresh();
    const Counters c0 = Counters::read(*d);
    high = phase(*d, a_.high_rps, 0.08 * S);
    tally(high);
    const Counters c1 = Counters::read(*d);
    auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
    const double jobs = delta(c0.pool_jobs, c1.pool_jobs);
    const double inl = delta(c0.inline_jobs, c1.inline_jobs);
    const double workers = static_cast<double>(d->proxy->codec_pool().worker_count());
    metrics_.set("dpu.inline_ratio", ratio(inl, inl + jobs), "ratio");
    metrics_.set("dpu.worker_busy_frac",
                 ratio(delta(c0.busy_ns, c1.busy_ns), delta(c0.wall_ns, c1.wall_ns) * workers),
                 "ratio");
    metrics_.set("rdmarpc.msgs_per_block", ratio(delta(c0.msgs, c1.msgs), delta(c0.blocks, c1.blocks)),
                 "count");
    metrics_.set("rdmarpc.hint_retries_per_resp",
                 ratio(delta(c0.hint_retries, c1.hint_retries), delta(c0.responses, c1.responses)),
                 "count");
    // One operation: a verified unary reply, or one Row record streamed.
    const double stream_mib = delta(c0.stream_bytes, c1.stream_bytes) / kMiB;
    const double ops = static_cast<double>(high.ok) +
                       stream_mib * kMiB / static_cast<double>(t_.stream_payload().size() + 1) *
                           static_cast<double>(t_.stream_rows());
    metrics_.set("simverbs.bytes_per_req", ratio(delta(c0.link_bytes, c1.link_bytes), ops), "B");
    metrics_.set("xrpc.credit_stalls_per_mib", ratio(delta(c0.stalls, c1.stalls), stream_mib), "count");
    metrics_.set("grpccompat.host_handler_ns",
                 ratio(delta(c0.handler_ns, c1.handler_ns), delta(c0.handler_calls, c1.handler_calls)),
                 "ns");
    metrics_.set("grpccompat.stream_peak_ratio",
                 ratio(static_cast<double>(d->proxy->stats().stream_peak_bytes.load()),
                       static_cast<double>(d->proxy->stream_options().per_stream_budget)),
                 "ratio");
    metrics_.set("loadgen.late_us.p99", high.late_p99_us, "us");
    metrics_.set("loadgen.achieved_ratio",
                 ratio(static_cast<double>(high.ok), static_cast<double>(high.scheduled)), "ratio");
  }

  // Sampled tracing at the high rate: the program's stage spans, read
  // back through the collector's per-stage histograms.
  trace::TraceConfig tc;
  tc.mode = trace::Mode::kSampled;
  tc.head_sample_every = 4;
  tc.ring_capacity = 1 << 16;
  trace::Tracer::instance().configure(tc);
  metrics::Registry stage_registry;
  trace::TraceCollector::Options co;
  co.registry = &stage_registry;
  co.tail_keep_every = 0;
  co.max_retained = 64;
  co.orphan_max_age = 1u << 30;
  trace::TraceCollector collector(co);
  PhaseResult traced;
  {
    auto d = fresh();
    std::atomic<bool> stop{false};
    std::thread pump([&] {
      while (!stop.load()) {
        collector.collect();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    traced = phase(*d, a_.high_rps, 0.08 * S);
    tally(traced);
    stop.store(true);
    pump.join();
    const uint64_t deadline = WallTimer::now() + 2'000'000'000ull;
    do {
      collector.collect();
    } while (collector.pending_traces() != 0 && WallTimer::now() < deadline);
  }
  trace::Tracer::instance().configure(trace::TraceConfig{});

  // The per-request stages, client_serialize .. xrpc_outbound, less
  // host_serialize: every reply here is an object the DPU serializes, so
  // the host never records it.
  const double e2e_sum = collector.stage_histogram(trace::Stage::kRequest)->snapshot().sum;
  double shares = 0;
  for (auto s = static_cast<size_t>(trace::Stage::kClientSerialize);
       s <= static_cast<size_t>(trace::Stage::kXrpcOutbound); ++s) {
    const auto stage = static_cast<trace::Stage>(s);
    if (stage == trace::Stage::kHostSerialize) continue;
    auto snap = collector.stage_histogram(stage)->snapshot();
    const std::string name = std::string("stage.") + trace::stage_name(stage);
    const double share = ratio(snap.sum, e2e_sum);
    shares += share;
    metrics_.set(name + ".share", share, "ratio");
    metrics_.set(name + ".p50_us", snap.count ? snap.quantile(0.5) * 1e6 : 0.0, "us");
  }
  metrics_.set("stage.unattributed.share", std::max(0.0, 1.0 - shares), "ratio");
  metrics_.set("trace.overhead_ratio", ratio(traced.p50_us, high.p50_us), "ratio");

  // The isolated layers on the blocking path of one unloaded call: the
  // xRPC hop, the decode round trip through the pool, the encode handoff
  // and work, the rdmarpc round trip and the host handler.
  Metrics& m = metrics_;
  auto get = [&](const char* n) { return m.get(n); };
  const double sum_us = get("xrpc.rtt_us.single") +
                        (get("dpu.rtt_ns.idle") + get("dpu.handoff_ns") + get("adt.encode_ns") +
                         get("rdmarpc.rtt_ns.single") + get("grpccompat.host_handler_ns")) *
                            1e-3;
  metrics_.set("layers.blocking_sum_us", sum_us, "us");
  metrics_.set("layers.unattributed_us", get("p50_us.low") - sum_us, "us");
  raw_ += ", \"counted\": " + phase_json({high}) + ", \"traced\": " + phase_json({traced}) +
          ", \"traces\": " +
          std::to_string(collector.traces_completed()) + ", \"orphans\": " +
          std::to_string(collector.orphans_dropped()) +
          ", \"background\": " + stream_json(background_);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's allocation thresholds. Left dynamic, the mmap threshold
  // rises after the first large free, and from then on a deployment's
  // 3 MiB and 16 MiB connection buffers may or may not reuse the last
  // deployment's already-faulted heap: set-up time flipped between about
  // 6 ms and 28 ms within one run. Fixed, every connection buffer is a
  // fresh mapping that pays its page faults, while the datapath's own
  // allocations (blocks, scratch slices, stream pieces, all under 1 MiB)
  // stay on the heap without being trimmed back to the kernel, as they do
  // under the dynamic thresholds once warmed up.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--low-rps <r> --high-rps <r> --ladder <r,...> --p99-limit-us <us> "
                 "[--wrong-reply]\n");
    return 1;
  }
  return perfbench::Runner(args).run();
}
