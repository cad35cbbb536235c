// Ablation: parse plans vs the interpretive deserializer loop.
//
// The plan path (parse_plan.hpp) replaces the per-field binary-search
// lookup + nested type/wire-type switch with one precompiled slot per wire
// tag, next-tag prediction, and batch varint decode for packed payloads.
// This harness measures both paths over the paper's three synthetic
// messages (§VI.C.1) so the win is attributable: the x512 Ints workload is
// the varint-bound case the batch decoder targets, Small is the
// dispatch-bound case prediction targets, and x8000 Chars is memcpy/UTF-8
// bound — the plan must never lose there.
//
// Each benchmark also reports the prediction hit rate, computed from the
// process-wide deserializer counters (src/metrics).
//
// BM_VarintKernel isolates the packed-varint layer under the plan: the
// count pass plus the fused decode (wire/varint_batch.hpp), native
// (AVX2+BMI2) and portable instantiations called directly, beside a plain
// decode_varint loop. Inputs: the paper's skewed values at x512 and x4096,
// runs of only 1-, 2- and 5-byte values, and a u64 run where 10% of the
// values take 10 bytes. `ns_per_val` is the per-element cost.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "arena/arena.hpp"
#include "bench_util.hpp"
#include "metrics/metrics.hpp"
#include "wire/varint_batch.hpp"

namespace {

using namespace dpurpc;

bench::BenchEnv& env() {
  static bench::BenchEnv e;
  return e;
}

void run_path(benchmark::State& state, uint32_t class_index, const Bytes& wire,
              bool use_plan) {
  adt::CodecOptions opts;
  opts.use_parse_plan = use_plan;
  adt::ArenaDeserializer deser(&env().adt, opts);
  arena::OwningArena arena(1 << 21);

  auto& fields = metrics::default_counter("dpurpc_deser_plan_fields_total", "");
  auto& hits = metrics::default_counter("dpurpc_deser_prediction_hits_total", "");
  const uint64_t f0 = fields.value(), h0 = hits.value();

  for (auto _ : state) {
    arena.reset();
    auto obj = deser.deserialize(class_index, ByteSpan(wire), arena, {});
    if (!obj.is_ok()) state.SkipWithError(obj.status().to_string().c_str());
    benchmark::DoNotOptimize(*obj);
  }

  const uint64_t df = fields.value() - f0;
  state.counters["wire_bytes"] = static_cast<double>(wire.size());
  state.counters["pred_hit_rate"] =
      df ? static_cast<double>(hits.value() - h0) / static_cast<double>(df) : 0.0;
  state.SetLabel(use_plan ? "parse_plan" : "interpretive");
}

void BM_Small(benchmark::State& state) {
  Bytes wire = bench::make_small_wire(env());
  run_path(state, env().small_class, wire, state.range(0) != 0);
}

void BM_Ints(benchmark::State& state) {
  Bytes wire = bench::make_int_array_wire(env(), static_cast<size_t>(state.range(0)));
  run_path(state, env().ints_class, wire, state.range(1) != 0);
}

void BM_Chars(benchmark::State& state) {
  Bytes wire = bench::make_char_array_wire(env(), static_cast<size_t>(state.range(0)));
  run_path(state, env().chars_class, wire, state.range(1) != 0);
}

// Packed-varint payloads for BM_VarintKernel; index = its first argument.
struct KernelInput {
  const char* name;
  bool wide;  // decode to u64 (else truncating u32)
  std::vector<uint8_t> wire;
  uint32_t count;
};

KernelInput make_kernel_input(int which) {
  static const char* const kNames[] = {"skewed_x512", "skewed_x4096", "len1_x4096",
                                       "len2_x4096",  "len5_x4096",   "u64_len10pct_x4096"};
  std::mt19937_64 rng(kDefaultSeed);
  SkewedVarintDistribution skewed;
  const auto in_range = [&](uint64_t lo, uint64_t hi) {
    return lo + rng() % (hi - lo);
  };
  const uint32_t n = which == 0 ? 512 : 4096;
  KernelInput in{kNames[which], which == 5,
                 std::vector<uint8_t>(n * wire::kMaxVarint64Bytes), n};
  uint8_t* p = in.wire.data();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t v;
    switch (which) {
      case 0:
      case 1: v = skewed(rng); break;
      case 2: v = in_range(0, 1u << 7); break;
      case 3: v = in_range(1u << 7, 1u << 14); break;
      case 4: v = in_range(1u << 28, 1ull << 32); break;
      default: v = rng() % 10 == 0 ? (1ull << 63) | rng() : rng() >> (rng() % 64); break;
    }
    p = wire::encode_varint(p, v);
  }
  in.wire.resize(static_cast<size_t>(p - in.wire.data()));
  return in;
}

// Count + decode, as the plan runs it; kernel 0 = native, 1 = portable,
// 2 = decode_varint loop.
template <typename OutT>
const uint8_t* run_kernel(int kernel, const uint8_t* p, const uint8_t* end, OutT* out) {
  const auto xform = [](uint64_t v) { return static_cast<OutT>(v); };
  switch (kernel) {
#ifdef DPURPC_VARINT_BATCH_X86
    case 0: {
      const uint32_t n = wire::detail::count_terminators_native(p, end);
      return wire::detail::decode_run_native(p, end, n, out, xform);
    }
#endif
    case 1: {
      const uint32_t n = wire::detail::count_terminators_portable(p, end);
      return wire::detail::decode_run_portable(p, end, n, out, xform);
    }
    default:
      while (p != end) {
        const wire::VarintResult r = wire::decode_varint(p, end);
        if (!r.ok) return nullptr;
        *out++ = xform(r.value);
        p = r.next;
      }
      return p;
  }
}

void BM_VarintKernel(benchmark::State& state) {
  static const char* const kKernels[] = {"fused_native", "fused_portable", "scalar_loop"};
  const KernelInput in = make_kernel_input(static_cast<int>(state.range(0)));
  const auto kernel = static_cast<int>(state.range(1));
#ifdef DPURPC_VARINT_BATCH_X86
  const bool native_ok = wire::detail::has_native_isa();
#else
  const bool native_ok = false;
#endif
  if (kernel == 0 && !native_ok) {
    state.SkipWithError("no AVX2+BMI2 on this CPU");
    return;
  }
  std::vector<uint64_t> out(in.count);
  const uint8_t* p = in.wire.data();
  const uint8_t* end = p + in.wire.size();
  for (auto _ : state) {
    const uint8_t* next =
        in.wide ? run_kernel(kernel, p, end, out.data())
                : run_kernel(kernel, p, end, reinterpret_cast<uint32_t*>(out.data()));
    if (next != end) state.SkipWithError("kernel rejected a valid payload");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_val"] = benchmark::Counter(
      static_cast<double>(in.count),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(std::string(in.name) + "/" + kKernels[kernel]);
}

BENCHMARK(BM_Small)->Arg(1)->Arg(0);
BENCHMARK(BM_Ints)->Args({512, 1})->Args({512, 0})->Args({4096, 1})->Args({4096, 0});
BENCHMARK(BM_Chars)->Args({8000, 1})->Args({8000, 0});
BENCHMARK(BM_VarintKernel)->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1, 2}});

}  // namespace

int main(int argc, char** argv) {
  return dpurpc::bench::run_benchmark_main(argc, argv);
}
