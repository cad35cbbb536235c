// Batch varint decoding for packed repeated scalars.
//
// The paper's x512 Ints workload is dominated by decoding long runs of
// small varints (its skewed distribution makes ~52% of values 1 byte and
// most of the rest 2 bytes). A scalar decode loop is *latency-bound*: the
// position of element k+1 depends on the decoded length of element k, so
// every element serializes behind a load → test → advance chain, and the
// ~50/50 length branch defeats the predictor on random data.
//
// This decoder breaks the chain in one fused pass over 64-byte windows.
// A window's continuation bits become a 64-bit terminator mask (two AVX2
// movemasks, or SWAR on the portable path). Walking the mask with
// tzcnt/blsr yields every element's start and length without touching the
// bytes again, and each element decodes from one 8-byte load and one pext
// under a per-length mask (mask and shift-or compaction on the portable
// path), stored straight into the output slot. The only loop-carried
// dependence is the mask's blsr, so elements overlap in the pipeline.
// count_varint_terminators, the element count a caller sizes its output
// with, is the same mask with a popcount.
//
// Elements longer than 8 bytes (legal 9–10-byte u64 varints, overlong
// forms) are decoded in place by the bounds-checked scalar decoder and the
// walk carries on. The last window (fewer than 72 bytes before `end`) is
// walked over a zero-padded copy, so no probe reads past `end`. The
// accepted language is therefore byte-for-byte decode_varint's (wire_test
// has the differential tests).
//
// Both kernels are instantiations of one template: native (AVX2 + BMI2,
// chosen once at runtime via __builtin_cpu_supports, so the build stays
// baseline-portable) and portable. They stay out of line, so a caller's
// code keeps its shape.
//
// The *encoding* direction (serialize plans, packed payload emission) has
// the same latency problem in reverse — the write position of element k+1
// depends on the encoded length of element k — and gets the mirrored fix:
// each element becomes one 8-byte store (a pdep spread of its 7-bit
// groups, or the inverse shift-or on portable hardware, plus a
// precomputed continuation-bit mask) and the cursor advances by the
// encoded length, so the store itself is never data-dependent. See
// encode_varint_run / varint_size_run below.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/hot_path.hpp"
#include "wire/varint.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPURPC_VARINT_BATCH_X86 1
#include <immintrin.h>
/// The native decode kernels' ISA: AVX2 movemask, BMI1 tzcnt/blsr,
/// POPCNT, BMI2 pext.
#define DPURPC_VARINT_NATIVE __attribute__((target("avx2,bmi,bmi2,popcnt")))
#endif

namespace dpurpc::wire {
namespace detail {

inline constexpr uint64_t kMsbMask = 0x8080808080808080ull;
inline constexpr uint64_t kLow7Mask = 0x7f7f7f7f7f7f7f7full;
inline constexpr uint32_t kWindow = 64;

/// kValueMask[len]: the payload bits of a `len`-byte varint's bytes
/// (1 <= len <= 8) in an 8-byte little-endian load.
inline constexpr auto kValueMask = [] {
  std::array<uint64_t, 9> t{};
  for (uint32_t len = 1; len <= 8; ++len) t[len] = kLow7Mask >> (64 - 8 * len);
  return t;
}();

struct PortableIsa {
  /// Bit j set iff p[j] (j < 64) ends an element. Per word, the multiplier
  /// gathers the eight terminator flags (bit 8j) into bits 56..63 with no
  /// cross-term carry.
  static uint64_t terminators(const uint8_t* p) noexcept {
    uint64_t m = 0;
    for (uint32_t k = 0; k < kWindow; k += 8) {
      uint64_t w;
      std::memcpy(&w, p + k, 8);
      m |= ((((~w & kMsbMask) >> 7) * 0x0102040810204080ull) >> 56) << k;
    }
    return m;
  }
  /// The value of the `len`-byte (1..8) varint in the low bytes of `w`:
  /// keep the element's payload bits, then compact the eight 7-bit groups
  /// (7+7 -> 14 -> 28 -> 56).
  static uint64_t value(uint64_t w, uint32_t len) noexcept {
    w &= kValueMask[len];
    w = (w & 0x007f007f007f007full) | ((w & 0x7f007f007f007f00ull) >> 1);
    w = (w & 0x00003fff00003fffull) | ((w & 0x3fff00003fff0000ull) >> 2);
    return (w & 0x000000000fffffffull) | ((w & 0x0fffffff00000000ull) >> 4);
  }
};

#ifdef DPURPC_VARINT_BATCH_X86
/// PortableIsa's contract: two movemasks, one pext.
struct NativeIsa {
  DPURPC_VARINT_NATIVE static uint64_t terminators(const uint8_t* p) noexcept {
    const auto lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const auto hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const auto cont_lo = static_cast<uint32_t>(_mm256_movemask_epi8(lo));
    const auto cont_hi = static_cast<uint32_t>(_mm256_movemask_epi8(hi));
    return ~(static_cast<uint64_t>(cont_hi) << 32 | cont_lo);
  }
  DPURPC_VARINT_NATIVE static uint64_t value(uint64_t w, uint32_t len) noexcept {
    return _pext_u64(w, kValueMask[len]);
  }
};

inline bool has_native_isa() noexcept {
  static const bool v =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi") &&
      __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt");
  return v;
}
#endif  // DPURPC_VARINT_BATCH_X86

template <class Isa>
inline uint32_t count_terminators(const uint8_t* p, const uint8_t* end) noexcept {
  uint32_t n = 0;
  for (; end - p >= kWindow; p += kWindow) n += std::popcount(Isa::terminators(p));
  for (; end - p >= 8; p += 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    n += std::popcount(~w & kMsbMask);
  }
  for (; p != end; ++p) n += (*p & 0x80) == 0;
  return n;
}

/// Decode the elements ending at the set bits of `m`, a terminator mask of
/// `src` (the bytes at `at`, or a padded copy of them), stopping at `stop`.
/// Returns the start of the first element not decoded, or nullptr for an
/// empty mask (no element ends within 64 bytes, or the input is truncated)
/// or an element decode_varint rejects.
template <class Isa, typename OutT, typename Xform>
inline const uint8_t* walk_window(const uint8_t* src, const uint8_t* at,
                                  const uint8_t* end, uint64_t m, OutT*& out,
                                  OutT* stop, Xform& xform) noexcept {
  const auto n = std::min(static_cast<uint32_t>(std::popcount(m)),
                          static_cast<uint32_t>(stop - out));
  if (n == 0) return nullptr;
  ptrdiff_t last = -1;  // the previous element's terminator
  for (uint32_t k = 0; k < n; ++k) {
    const ptrdiff_t t = std::countr_zero(m);
    m &= m - 1;
    const auto len = static_cast<uint32_t>(t - last);
    if (len <= 8) [[likely]] {
      uint64_t w;
      std::memcpy(&w, src + (last + 1), 8);
      *out++ = xform(Isa::value(w, len));
    } else {
      const VarintResult r = decode_varint(at + (last + 1), end);
      if (!r.ok) return nullptr;
      *out++ = xform(r.value);
    }
    last = t;
  }
  return at + (last + 1);
}

/// The fused pass; see the header comment.
template <class Isa, typename OutT, typename Xform>
inline const uint8_t* decode_run(const uint8_t* p, const uint8_t* end, uint32_t count,
                                 OutT* out, Xform& xform) noexcept {
  OutT* const stop = out + count;
  // Full windows: 64 mask bytes plus 8 bytes of probe slack.
  while (out != stop && end - p >= kWindow + 8) {
    p = walk_window<Isa>(p, p, end, Isa::terminators(p), out, stop, xform);
    if (p == nullptr) return nullptr;
  }
  if (out == stop) return p;
  // The last window(s): under 72 bytes, walked over a zero-padded copy.
  uint8_t tail[2 * kWindow + 8] = {};
  const auto rem = static_cast<size_t>(end - p);
  if (rem != 0) std::memcpy(tail, p, rem);
  size_t off = 0;
  while (out != stop) {
    uint64_t m = Isa::terminators(tail + off);
    if (rem - off < kWindow) m &= (uint64_t{1} << (rem - off)) - 1;
    const uint8_t* next =
        walk_window<Isa>(tail + off, p + off, end, m, out, stop, xform);
    if (next == nullptr) return nullptr;
    off = static_cast<size_t>(next - p);
  }
  return p + off;
}

// The two instantiations, each one out-of-line function. flatten inlines
// the generic template and the Isa's helpers into the target-attributed
// native kernel (plain inlining cannot cross the target mismatch).
[[gnu::noinline, gnu::flatten]] DPURPC_HOT_PATH inline uint32_t
count_terminators_portable(const uint8_t* p, const uint8_t* end) noexcept {
  return count_terminators<PortableIsa>(p, end);
}

template <typename OutT, typename Xform>
[[gnu::noinline, gnu::flatten]] DPURPC_HOT_PATH inline const uint8_t*
decode_run_portable(const uint8_t* p, const uint8_t* end, uint32_t count, OutT* out,
                    Xform xform) noexcept {
  return decode_run<PortableIsa>(p, end, count, out, xform);
}

#ifdef DPURPC_VARINT_BATCH_X86
[[gnu::noinline, gnu::flatten]] DPURPC_HOT_PATH DPURPC_VARINT_NATIVE inline uint32_t
count_terminators_native(const uint8_t* p, const uint8_t* end) noexcept {
  return count_terminators<NativeIsa>(p, end);
}

template <typename OutT, typename Xform>
[[gnu::noinline, gnu::flatten]] DPURPC_HOT_PATH DPURPC_VARINT_NATIVE inline const uint8_t*
decode_run_native(const uint8_t* p, const uint8_t* end, uint32_t count, OutT* out,
                  Xform xform) noexcept {
  return decode_run<NativeIsa>(p, end, count, out, xform);
}
#endif  // DPURPC_VARINT_BATCH_X86

}  // namespace detail

/// Count varint terminators (bytes without the continuation bit) in
/// [p, end): the element count of a packed varint payload.
DPURPC_HOT_PATH inline uint32_t count_varint_terminators(const uint8_t* p,
                                                         const uint8_t* end) noexcept {
#ifdef DPURPC_VARINT_BATCH_X86
  if (detail::has_native_isa()) return detail::count_terminators_native(p, end);
#endif
  return detail::count_terminators_portable(p, end);
}

/// Decode exactly `count` varints from [p, end) into `out`, applying
/// `xform` (value normalization: truncation, zigzag, bool) to each.
/// Returns one past the last byte consumed, or nullptr if any varint is
/// truncated or overlong — exactly the inputs decode_varint rejects.
template <typename OutT, typename Xform>
inline const uint8_t* decode_varint_run(const uint8_t* p, const uint8_t* end,
                                        uint32_t count, OutT* out, Xform xform) noexcept {
#ifdef DPURPC_VARINT_BATCH_X86
  if (detail::has_native_isa()) {
    return detail::decode_run_native(p, end, count, out, xform);
  }
#endif
  return detail::decode_run_portable(p, end, count, out, xform);
}

/// Truncating u32 batch (int32/uint32/enum storage — two's complement).
DPURPC_HOT_PATH inline const uint8_t* decode_varint_batch32(const uint8_t* p,
                                                            const uint8_t* end,
                                                            uint32_t count,
                                                            uint32_t* out) noexcept {
  return decode_varint_run(p, end, count, out,
                           [](uint64_t v) { return static_cast<uint32_t>(v); });
}

/// Full-width u64 batch (int64/uint64 storage).
DPURPC_HOT_PATH inline const uint8_t* decode_varint_batch64(const uint8_t* p,
                                                            const uint8_t* end,
                                                            uint32_t count,
                                                            uint64_t* out) noexcept {
  return decode_varint_run(p, end, count, out, [](uint64_t v) { return v; });
}

// ------------------------------------------------------- batch encoding

/// Total encoded size of `count` varints: the sizing half of packed
/// payload emission. A plain branch-free loop (varint_size is a clz) so
/// element sizes pipeline with no data dependence between iterations.
DPURPC_HOT_PATH inline size_t varint_size_run(const uint64_t* vals, uint32_t count) noexcept {
  size_t total = 0;
  for (uint32_t i = 0; i < count; ++i) total += varint_size(vals[i]);
  return total;
}

namespace detail {

/// Spread the low 56 bits of `v` into eight 7-bit-per-byte groups — the
/// exact inverse of the decode compaction in PortableIsa::value.
inline uint64_t spread7_portable(uint64_t v) noexcept {
  uint64_t w = (v & 0x000000000fffffffull) | ((v << 4) & 0x0fffffff00000000ull);
  w = (w & 0x00003fff00003fffull) | ((w << 2) & 0x3fff00003fff0000ull);
  return (w & 0x007f007f007f007full) | ((w << 1) & 0x7f007f007f007f00ull);
}

/// Continuation-bit mask for an `len`-byte encoding (1 <= len <= 8):
/// 0x80 in bytes 0..len-2, terminator byte clear.
inline uint64_t continuation_mask(uint32_t len) noexcept {
  return kMsbMask & ((1ull << (8 * (len - 1))) - 1);
}

#ifdef DPURPC_VARINT_BATCH_X86
[[gnu::target("bmi,bmi2")]] inline uint8_t* encode_run_bmi2(
    uint8_t* dst, uint8_t* dst_end, const uint64_t* vals, uint32_t count) noexcept {
  uint32_t i = 0;
  for (; i < count && dst + 8 <= dst_end; ++i) {
    const uint64_t v = vals[i];
    const auto len = static_cast<uint32_t>(varint_size(v));
    if (len > 8) {  // >= 2^56: 9-10 byte encoding, exact-size scalar write
      dst = encode_varint(dst, v);
      continue;
    }
    uint64_t w = _pdep_u64(v, kLow7Mask) | continuation_mask(len);
    std::memcpy(dst, &w, 8);
    dst += len;
  }
  for (; i < count; ++i) dst = encode_varint(dst, vals[i]);
  return dst;
}
#endif  // DPURPC_VARINT_BATCH_X86

inline uint8_t* encode_run_portable(uint8_t* dst, uint8_t* dst_end,
                                    const uint64_t* vals, uint32_t count) noexcept {
  uint32_t i = 0;
  for (; i < count && dst + 8 <= dst_end; ++i) {
    const uint64_t v = vals[i];
    const auto len = static_cast<uint32_t>(varint_size(v));
    if (len > 8) {
      dst = encode_varint(dst, v);
      continue;
    }
    uint64_t w = spread7_portable(v) | continuation_mask(len);
    std::memcpy(dst, &w, 8);
    dst += len;
  }
  for (; i < count; ++i) dst = encode_varint(dst, vals[i]);
  return dst;
}

}  // namespace detail

/// Encode `count` varints at `dst`, never writing at or past `dst_end`.
/// While at least 8 bytes of headroom remain, each element is one
/// unconditional 8-byte store (spread + continuation mask) with the
/// cursor advancing by the encoded length; elements needing more than 8
/// bytes, and the tail once headroom drops below 8, use the scalar
/// encoder, which writes exactly varint_size(v) bytes. The caller
/// guarantees dst_end - dst >= varint_size_run(vals, count); output is
/// byte-identical to per-element encode_varint. Returns one past the
/// last byte written.
DPURPC_HOT_PATH inline uint8_t* encode_varint_run(uint8_t* dst, uint8_t* dst_end,
                                  const uint64_t* vals, uint32_t count) noexcept {
#ifdef DPURPC_VARINT_BATCH_X86
  if (detail::has_native_isa()) {
    return detail::encode_run_bmi2(dst, dst_end, vals, count);
  }
#endif
  return detail::encode_run_portable(dst, dst_end, vals, count);
}

}  // namespace dpurpc::wire
