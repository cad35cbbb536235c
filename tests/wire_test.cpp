// Unit + property tests for the wire primitives: varint, zigzag, tags,
// coded streams, and UTF-8 validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "wire/coded_stream.hpp"
#include "wire/utf8.hpp"
#include "wire/varint.hpp"
#include "wire/varint_batch.hpp"
#include "wire/wire_format.hpp"

namespace dpurpc::wire {
namespace {

// ---------------------------------------------------------------- varint

TEST(Varint, SizeBoundaries) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size((1ull << 14) - 1), 2u);
  EXPECT_EQ(varint_size(1ull << 14), 3u);
  EXPECT_EQ(varint_size((1ull << 28) - 1), 4u);
  EXPECT_EQ(varint_size(1ull << 28), 5u);
  EXPECT_EQ(varint_size(UINT64_MAX), 10u);
}

TEST(Varint, EncodeKnownVectors) {
  uint8_t buf[10];
  uint8_t* end = encode_varint(buf, 300);
  ASSERT_EQ(end - buf, 2);
  EXPECT_EQ(buf[0], 0xAC);  // protobuf docs example: 300 = AC 02
  EXPECT_EQ(buf[1], 0x02);
}

TEST(Varint, DecodeRejectsTruncated) {
  uint8_t buf[2] = {0x80, 0x80};  // continuation bits never end
  auto r = decode_varint(buf, buf + 2);
  EXPECT_FALSE(r.ok);
}

TEST(Varint, DecodeRejectsOverlong) {
  // 11 bytes of continuation: longer than any valid varint.
  uint8_t buf[11];
  for (auto& b : buf) b = 0x80;
  buf[10] = 0x01;
  auto r = decode_varint(buf, buf + 11);
  EXPECT_FALSE(r.ok);
}

TEST(Varint, DecodeRejectsOverflowInTenthByte) {
  // 10-byte encoding whose last byte pushes past 64 bits.
  uint8_t buf[10];
  for (int i = 0; i < 9; ++i) buf[i] = 0xFF;
  buf[9] = 0x02;  // bit 64+ set
  auto r = decode_varint(buf, buf + 10);
  EXPECT_FALSE(r.ok);
}

TEST(Varint, DecodeMaxU64) {
  uint8_t buf[10];
  uint8_t* end = encode_varint(buf, UINT64_MAX);
  ASSERT_EQ(end - buf, 10);
  auto r = decode_varint(buf, end);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, UINT64_MAX);
}

TEST(Varint, EmptyInput) {
  uint8_t buf[1];
  EXPECT_FALSE(decode_varint(buf, buf).ok);
}

// Property: round-trip over every byte-length class and random values.
class VarintRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VarintRoundTrip, EncodeDecodeIdentity) {
  int len = GetParam();
  std::mt19937_64 rng(dpurpc::kDefaultSeed + len);
  uint64_t lo = len == 1 ? 0 : 1ull << (7 * (len - 1));
  uint64_t hi = len == 10 ? UINT64_MAX : (1ull << (7 * len)) - 1;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = lo + rng() % (hi - lo + 1);
    uint8_t buf[kMaxVarint64Bytes];
    uint8_t* end = encode_varint(buf, v);
    ASSERT_EQ(static_cast<size_t>(end - buf), varint_size(v));
    ASSERT_EQ(varint_size(v), static_cast<size_t>(len));
    auto r = decode_varint(buf, end);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, v);
    EXPECT_EQ(r.next, end);
  }
}

INSTANTIATE_TEST_SUITE_P(AllByteLengths, VarintRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Varint, TruncationAtEveryPrefixFails) {
  // Every strict prefix of a valid encoding must fail cleanly — for every
  // encoded length class, not just the long ones.
  for (int len = 1; len <= 10; ++len) {
    uint64_t v = len == 1 ? 1 : 1ull << (7 * (len - 1));
    if (len == 10) v = UINT64_MAX;
    uint8_t buf[kMaxVarint64Bytes];
    uint8_t* end = encode_varint(buf, v);
    ASSERT_EQ(end - buf, len);
    for (int cut = 0; cut < len; ++cut) {
      EXPECT_FALSE(decode_varint(buf, buf + cut).ok)
          << "len " << len << " cut " << cut;
    }
    auto full = decode_varint(buf, end);
    ASSERT_TRUE(full.ok);
    EXPECT_EQ(full.value, v);
  }
}

TEST(Varint, TenthByteOverflowBoundary) {
  // 10th byte may only contribute bit 63: value 0x01 is the last legal
  // payload; every larger payload overflows uint64.
  uint8_t buf[10];
  for (int i = 0; i < 9; ++i) buf[i] = 0xFF;
  buf[9] = 0x01;
  auto ok = decode_varint(buf, buf + 10);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.value, UINT64_MAX);
  for (uint8_t tenth : {0x02, 0x03, 0x7F}) {
    buf[9] = tenth;
    EXPECT_FALSE(decode_varint(buf, buf + 10).ok)
        << "tenth byte " << int(tenth);
  }
}

// -------------------------------------------------------- batch decoding

TEST(VarintBatch, AllOneByteRun) {
  // The SWAR fast path: 8-byte word probe sees no continuation bits.
  uint8_t buf[64];
  for (int i = 0; i < 64; ++i) buf[i] = static_cast<uint8_t>(i);
  uint64_t out[64];
  const uint8_t* next = decode_varint_batch64(buf, buf + 64, 64, out);
  ASSERT_EQ(next, buf + 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], static_cast<uint64_t>(i));
}

TEST(VarintBatch, TwoByteFastPath) {
  uint8_t buf[2 * 16];
  uint8_t* p = buf;
  for (int i = 0; i < 16; ++i) p = encode_varint(p, 128 + i * 100);
  uint32_t out[16];
  const uint8_t* next = decode_varint_batch32(buf, p, 16, out);
  ASSERT_EQ(next, p);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 128u + i * 100);
}

TEST(VarintBatch, MalformedRunReturnsNull) {
  uint8_t buf[4] = {0x80, 0x80, 0x80, 0x80};  // never terminates
  uint64_t out[1];
  EXPECT_EQ(decode_varint_batch64(buf, buf + 4, 1, out), nullptr);
}

TEST(VarintBatch, XformApplied) {
  uint8_t buf[kMaxVarint64Bytes];
  uint8_t* end = encode_varint(buf, zigzag_encode64(-123456789));
  int64_t out[1];
  const uint8_t* next = decode_varint_run(
      buf, end, 1, out, [](uint64_t v) { return zigzag_decode64(v); });
  ASSERT_EQ(next, end);
  EXPECT_EQ(out[0], -123456789);
}

TEST(VarintBatch, RandomizedMatchesScalarDecoder) {
  // Differential test: random mixes of every byte-length class (skewed
  // toward short encodings, like real workloads) must decode identically
  // through the batch path and the scalar path.
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0xba7c);
  for (int round = 0; round < 200; ++round) {
    const size_t count = 1 + rng() % 700;
    std::vector<uint64_t> values(count);
    std::vector<uint8_t> buf(count * kMaxVarint64Bytes);
    uint8_t* p = buf.data();
    for (size_t i = 0; i < count; ++i) {
      int bits = static_cast<int>(rng() % 64) + 1;
      values[i] = rng() >> (64 - bits);
      p = encode_varint(p, values[i]);
    }
    std::vector<uint64_t> out(count);
    const uint8_t* next = decode_varint_batch64(buf.data(), p, count, out.data());
    ASSERT_EQ(next, p) << "round " << round;
    ASSERT_EQ(out, values) << "round " << round;

    // And through the 32-bit truncating wrapper.
    std::vector<uint32_t> out32(count);
    const uint8_t* next32 =
        decode_varint_batch32(buf.data(), p, count, out32.data());
    ASSERT_EQ(next32, p);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out32[i], static_cast<uint32_t>(values[i])) << i;
    }
  }
}

TEST(VarintBatch, TruncatedTailReturnsNull) {
  // A run whose final element is cut off mid-varint must fail, never read
  // past `end`.
  std::mt19937_64 rng(dpurpc::kDefaultSeed + 77);
  uint8_t buf[32];
  uint8_t* p = buf;
  for (int i = 0; i < 3; ++i) p = encode_varint(p, (1ull << 40) + rng() % 1000);
  uint64_t out[3];
  for (const uint8_t* cut = p - 1; cut > buf; --cut) {
    // Count how many whole varints remain before `cut`; asking for one
    // more than that must fail.
    uint32_t whole = 0;
    const uint8_t* q = buf;
    while (q < cut) {
      auto r = decode_varint(q, cut);
      if (!r.ok) break;
      q = r.next;
      ++whole;
    }
    if (whole >= 3) continue;
    EXPECT_EQ(decode_varint_batch64(buf, cut, whole + 1, out), nullptr)
        << "cut at " << (cut - buf);
  }
}

// ------------------------------------- fused kernels vs decode_varint loop
//
// The native (AVX2+BMI2) and portable instantiations are called directly,
// so both are checked on every machine that can run them. The reference is
// a plain decode_varint loop: values, the returned cursor and accept/reject
// must all match.

template <typename OutT, typename Xform>
const uint8_t* scalar_run(const uint8_t* p, const uint8_t* end, uint32_t count,
                          OutT* out, Xform xform) {
  for (uint32_t i = 0; i < count; ++i) {
    const VarintResult r = decode_varint(p, end);
    if (!r.ok) return nullptr;
    out[i] = xform(r.value);
    p = r.next;
  }
  return p;
}

uint32_t scalar_count(const std::vector<uint8_t>& buf) {
  uint32_t n = 0;
  for (uint8_t b : buf) n += (b & 0x80) == 0;
  return n;
}

// `buf` is held at exactly its size, so a kernel read past `end` is a heap
// overflow under ASan.
template <typename OutT, typename Xform>
void expect_kernels_match(const std::vector<uint8_t>& buf, uint32_t count, Xform xform,
                          const std::string& what) {
  const uint8_t* p = buf.data();
  const uint8_t* end = p + buf.size();
  std::vector<OutT> want(count), got(count);
  const uint8_t* want_next = scalar_run(p, end, count, want.data(), xform);
  const auto check = [&](const char* kernel, const uint8_t* next) {
    ASSERT_EQ(next, want_next) << kernel << ": " << what;
    if (want_next != nullptr) {
      ASSERT_EQ(got, want) << kernel << ": " << what;
    }
  };
  check("portable", detail::decode_run_portable(p, end, count, got.data(), xform));
#ifdef DPURPC_VARINT_BATCH_X86
  if (detail::has_native_isa()) {
    std::fill(got.begin(), got.end(), OutT{});
    check("native", detail::decode_run_native(p, end, count, got.data(), xform));
  }
#endif
}

// Every value transform the parse plans use: u64, u32, sint32, sint64, bool.
void expect_all_xforms_match(const std::vector<uint8_t>& buf, uint32_t count,
                             const std::string& what) {
  expect_kernels_match<uint64_t>(buf, count, [](uint64_t v) { return v; }, what);
  expect_kernels_match<uint32_t>(
      buf, count, [](uint64_t v) { return static_cast<uint32_t>(v); }, what);
  expect_kernels_match<int32_t>(
      buf, count,
      [](uint64_t v) { return zigzag_decode32(static_cast<uint32_t>(v)); }, what);
  expect_kernels_match<int64_t>(
      buf, count, [](uint64_t v) { return zigzag_decode64(v); }, what);
  expect_kernels_match<uint8_t>(
      buf, count, [](uint64_t v) { return static_cast<uint8_t>(v != 0); }, what);
}

// A `len`-byte encoding (1..10) of a random payload, overlong forms
// included; a 10-byte one carries bit 63 in its last byte (0 or 1).
void append_len(std::vector<uint8_t>& buf, uint32_t len, std::mt19937_64& rng) {
  for (uint32_t i = 0; i + 1 < len; ++i) buf.push_back(0x80 | (rng() & 0x7f));
  buf.push_back(len == 10 ? rng() & 1 : rng() & 0x7f);
}

TEST(VarintBatch, FusedKernelsMatchAtEveryWindowOffset) {
  // An element of every length 1..10 starts at every offset of the first
  // 64-byte window (and just past it), followed by a run long enough to
  // keep it in a full window, or by nothing so it sits in the tail.
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0xf05e);
  for (uint32_t len = 1; len <= 10; ++len) {
    for (uint32_t off = 0; off < 72; ++off) {
      for (uint32_t suffix : {0u, 3u, 100u}) {
        std::vector<uint8_t> buf;
        for (uint32_t i = 0; i < off; ++i) buf.push_back(rng() & 0x7f);
        append_len(buf, len, rng);
        for (uint32_t i = 0; i < suffix; ++i) append_len(buf, 1 + rng() % 3, rng);
        const auto count = scalar_count(buf);
        ASSERT_EQ(count, off + 1 + suffix);
        expect_all_xforms_match(buf, count,
                                "len " + std::to_string(len) + " off " +
                                    std::to_string(off) + " suffix " +
                                    std::to_string(suffix));
      }
    }
  }
}

TEST(VarintBatch, FusedKernelsDecodeTenByteElementMidLongRun) {
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0x10b);
  std::vector<uint8_t> buf;
  for (int i = 0; i < 500; ++i) append_len(buf, 1 + rng() % 3, rng);
  buf.resize(buf.size() + 10);
  encode_varint(buf.data() + buf.size() - 10, UINT64_MAX);
  for (int i = 0; i < 500; ++i) append_len(buf, 1 + rng() % 3, rng);
  ASSERT_EQ(scalar_count(buf), 1001u);
  expect_all_xforms_match(buf, 1001, "10-byte element at 500");
}

TEST(VarintBatch, FusedKernelsRejectOverlongAndOverflowMidRun) {
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0xbad);
  // An 11-byte element and a 10-byte element whose last byte spills past
  // bit 63, each in the middle of a run: decode_varint rejects both.
  const std::vector<std::vector<uint8_t>> bad = {
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}};
  for (const auto& elem : bad) {
    for (uint32_t before : {0u, 37u, 300u}) {
      std::vector<uint8_t> buf;
      for (uint32_t i = 0; i < before; ++i) append_len(buf, 1 + rng() % 3, rng);
      buf.insert(buf.end(), elem.begin(), elem.end());
      for (int i = 0; i < 200; ++i) append_len(buf, 1 + rng() % 3, rng);
      const auto count = scalar_count(buf);
      std::vector<uint64_t> sink(count);
      ASSERT_EQ(scalar_run(buf.data(), buf.data() + buf.size(), count, sink.data(),
                           [](uint64_t v) { return v; }),
                nullptr);
      expect_all_xforms_match(buf, count,
                              "bad element after " + std::to_string(before));
    }
  }
}

TEST(VarintBatch, FusedKernelsRejectTruncatedLastElement) {
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0x7a11);
  for (uint32_t n = 0; n < 120; ++n) {
    std::vector<uint8_t> buf;
    for (uint32_t i = 0; i < n; ++i) append_len(buf, 1 + rng() % 10, rng);
    const uint32_t whole = scalar_count(buf);
    // Start a last element and cut it after 1..9 continuation bytes.
    for (uint32_t i = 0, cut = 1 + rng() % 9; i < cut; ++i) buf.push_back(0x80);
    expect_all_xforms_match(buf, whole + 1, "truncated after " + std::to_string(n));
    expect_all_xforms_match(buf, whole, "whole prefix of " + std::to_string(n));
  }
}

TEST(VarintBatch, FusedKernelsMatchOnRandomPayloadsUpTo80Bytes) {
  // Raw random bytes (roughly half continuation bytes) at every size that
  // touches the tail copy, asking for the exact, one more and one fewer
  // element than the terminator count.
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0x80b);
  for (uint32_t size = 0; size <= 80; ++size) {
    for (int round = 0; round < 40; ++round) {
      std::vector<uint8_t> buf(size);
      const uint64_t cont_odds = 1 + round % 4;  // P(continuation) = k/(k+1)
      for (auto& b : buf) b = (rng() % (cont_odds + 1) ? 0x80 : 0) | (rng() & 0x7f);
      const uint32_t count = scalar_count(buf);
      const std::string what = "size " + std::to_string(size) + " round " +
                               std::to_string(round);
      expect_all_xforms_match(buf, count, what);
      expect_all_xforms_match(buf, count + 1, what + " +1");
      if (count > 0) expect_all_xforms_match(buf, count - 1, what + " -1");
    }
  }
}

TEST(VarintBatch, VectorCountMatchesScalarCount) {
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0xc0);
  for (uint32_t size = 0; size <= 300; ++size) {
    std::vector<uint8_t> buf(size);
    for (auto& b : buf) b = static_cast<uint8_t>(rng());
    const uint8_t* p = buf.data();
    const uint32_t want = scalar_count(buf);
    EXPECT_EQ(detail::count_terminators_portable(p, p + size), want) << size;
#ifdef DPURPC_VARINT_BATCH_X86
    if (detail::has_native_isa()) {
      EXPECT_EQ(detail::count_terminators_native(p, p + size), want) << size;
    }
#endif
    EXPECT_EQ(count_varint_terminators(p, p + size), want) << size;
  }
}

TEST(VarintBatch, EncodeRunMatchesScalarEncoder) {
  // Differential test for the emit direction: random mixes of every
  // byte-length class must produce the exact bytes the scalar encoder
  // does, through both the BMI2 and the exactly-sized-buffer tail paths.
  std::mt19937_64 rng(dpurpc::kDefaultSeed ^ 0xe4c0);
  for (int round = 0; round < 200; ++round) {
    const size_t count = 1 + rng() % 700;
    std::vector<uint64_t> values(count);
    std::vector<uint8_t> expect(count * kMaxVarint64Bytes);
    uint8_t* ep = expect.data();
    for (size_t i = 0; i < count; ++i) {
      int bits = static_cast<int>(rng() % 64) + 1;
      values[i] = rng() >> (64 - bits);
      ep = encode_varint(ep, values[i]);
    }
    const size_t wire_len = static_cast<size_t>(ep - expect.data());
    EXPECT_EQ(varint_size_run(values.data(), static_cast<uint32_t>(count)),
              wire_len);

    // Exactly-sized destination: the encoder must not touch a byte past
    // the end even when its 8-byte store fast path is in play.
    std::vector<uint8_t> got(wire_len);
    uint8_t* gp = encode_varint_run(got.data(), got.data() + wire_len,
                                    values.data(), static_cast<uint32_t>(count));
    ASSERT_EQ(gp, got.data() + wire_len) << "round " << round;
    ASSERT_EQ(std::memcmp(got.data(), expect.data(), wire_len), 0)
        << "round " << round;

    // Slack destination (the common case inside a larger message body).
    // Bytes between the returned pointer and dst_end are scratch (the
    // 8-byte fast path may scribble there; sequential emission overwrites
    // them), but nothing at or past dst_end may ever be touched.
    std::vector<uint8_t> slack(wire_len + 32, 0xCD);
    uint8_t* dst_end = slack.data() + wire_len + 16;
    gp = encode_varint_run(slack.data(), dst_end, values.data(),
                           static_cast<uint32_t>(count));
    ASSERT_EQ(gp, slack.data() + wire_len);
    ASSERT_EQ(std::memcmp(slack.data(), expect.data(), wire_len), 0);
    for (size_t i = wire_len + 16; i < slack.size(); ++i) {
      ASSERT_EQ(slack[i], 0xCD) << "encoder wrote past dst_end at +" << i;
    }
  }
}

TEST(VarintBatch, EncodeRunEdgeValues) {
  // Every length-class boundary in one run, incl. the 10-byte fallback.
  const uint64_t edges[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 28) - 1,
                            1ull << 28,
                            (1ull << 56) - 1,
                            1ull << 56,
                            UINT64_MAX};
  constexpr uint32_t n = sizeof(edges) / sizeof(edges[0]);
  uint8_t expect[n * kMaxVarint64Bytes];
  uint8_t* ep = expect;
  for (uint64_t v : edges) ep = encode_varint(ep, v);
  const size_t wire_len = static_cast<size_t>(ep - expect);

  std::vector<uint8_t> got(wire_len);
  uint8_t* gp = encode_varint_run(got.data(), got.data() + wire_len, edges, n);
  ASSERT_EQ(gp, got.data() + wire_len);
  EXPECT_EQ(std::memcmp(got.data(), expect, wire_len), 0);
}

// ---------------------------------------------------------------- zigzag

TEST(ZigZag, KnownVectors) {
  EXPECT_EQ(zigzag_encode32(0), 0u);
  EXPECT_EQ(zigzag_encode32(-1), 1u);
  EXPECT_EQ(zigzag_encode32(1), 2u);
  EXPECT_EQ(zigzag_encode32(-2), 3u);
  EXPECT_EQ(zigzag_encode32(INT32_MAX), 0xFFFFFFFEu);
  EXPECT_EQ(zigzag_encode32(INT32_MIN), 0xFFFFFFFFu);
}

class ZigZagRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(ZigZagRoundTrip, Identity64) {
  int64_t v = GetParam();
  EXPECT_EQ(zigzag_decode64(zigzag_encode64(v)), v);
}
TEST_P(ZigZagRoundTrip, Identity32) {
  auto v = static_cast<int32_t>(GetParam());
  EXPECT_EQ(zigzag_decode32(zigzag_encode32(v)), v);
}

INSTANTIATE_TEST_SUITE_P(Extremes, ZigZagRoundTrip,
                         ::testing::Values(int64_t{0}, int64_t{1}, int64_t{-1},
                                           int64_t{INT32_MAX}, int64_t{INT32_MIN},
                                           INT64_MAX, INT64_MIN, int64_t{42},
                                           int64_t{-123456789}));

// ------------------------------------------------------------------ tags

TEST(Tags, MakeAndSplit) {
  uint32_t tag = make_tag(5, WireType::kLengthDelimited);
  EXPECT_EQ(tag, 0x2Au);  // 5<<3 | 2
  EXPECT_EQ(tag_field_number(tag), 5u);
  EXPECT_EQ(tag_wire_type(tag), WireType::kLengthDelimited);
}

TEST(Tags, ValidWireTypes) {
  EXPECT_TRUE(is_valid_wire_type(0));
  EXPECT_TRUE(is_valid_wire_type(1));
  EXPECT_TRUE(is_valid_wire_type(2));
  EXPECT_TRUE(is_valid_wire_type(5));
  EXPECT_FALSE(is_valid_wire_type(3));  // group start (unsupported)
  EXPECT_FALSE(is_valid_wire_type(4));  // group end
  EXPECT_FALSE(is_valid_wire_type(6));
  EXPECT_FALSE(is_valid_wire_type(7));
}

// --------------------------------------------------------- coded streams

TEST(CodedStream, WriterReaderRoundTrip) {
  dpurpc::Bytes out;
  Writer w(out);
  w.write_varint(300);
  w.write_fixed32(0xAABBCCDD);
  w.write_fixed64(0x1122334455667788ull);
  w.write_length_delimited("hello");

  Reader r{dpurpc::ByteSpan(out)};
  EXPECT_EQ(*r.read_varint(), 300u);
  EXPECT_EQ(*r.read_fixed32(), 0xAABBCCDDu);
  EXPECT_EQ(*r.read_fixed64(), 0x1122334455667788ull);
  EXPECT_EQ(*r.read_length_delimited(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(CodedStream, TruncatedFixedFails) {
  uint8_t buf[3] = {1, 2, 3};
  Reader r(buf, buf + 3);
  EXPECT_EQ(r.read_fixed32().status().code(), dpurpc::Code::kDataLoss);
}

TEST(CodedStream, LengthDelimitedOverrunFails) {
  dpurpc::Bytes out;
  Writer w(out);
  w.write_varint(100);  // claims 100 bytes, none follow
  Reader r{dpurpc::ByteSpan(out)};
  EXPECT_EQ(r.read_length_delimited().status().code(), dpurpc::Code::kDataLoss);
}

TEST(CodedStream, ReadTagValidates) {
  {
    dpurpc::Bytes out;
    Writer w(out);
    w.write_varint(make_tag(0, WireType::kVarint));  // field number 0
    Reader r{dpurpc::ByteSpan(out)};
    EXPECT_FALSE(r.read_tag().is_ok());
  }
  {
    dpurpc::Bytes out;
    Writer w(out);
    w.write_varint((1 << 3) | 3);  // wire type 3 (group)
    Reader r{dpurpc::ByteSpan(out)};
    EXPECT_FALSE(r.read_tag().is_ok());
  }
}

TEST(CodedStream, SkipValueAllTypes) {
  dpurpc::Bytes out;
  Writer w(out);
  w.write_varint(12345);
  w.write_fixed64(1);
  w.write_length_delimited("abc");
  w.write_fixed32(2);
  w.write_varint(99);  // sentinel

  Reader r{dpurpc::ByteSpan(out)};
  EXPECT_TRUE(r.skip_value(WireType::kVarint).is_ok());
  EXPECT_TRUE(r.skip_value(WireType::kFixed64).is_ok());
  EXPECT_TRUE(r.skip_value(WireType::kLengthDelimited).is_ok());
  EXPECT_TRUE(r.skip_value(WireType::kFixed32).is_ok());
  EXPECT_EQ(*r.read_varint(), 99u);
}

// ------------------------------------------------------------------ utf8

TEST(Utf8, AcceptsAscii) {
  EXPECT_TRUE(validate_utf8("hello, world! 123"));
  EXPECT_TRUE(validate_utf8(""));
}

TEST(Utf8, AcceptsMultibyte) {
  EXPECT_TRUE(validate_utf8("caf\xc3\xa9"));                  // é (2-byte)
  EXPECT_TRUE(validate_utf8("\xe6\x97\xa5\xe6\x9c\xac"));     // 日本 (3-byte)
  EXPECT_TRUE(validate_utf8("\xf0\x9f\x98\x80"));             // emoji (4-byte)
}

TEST(Utf8, RejectsLoneContinuation) { EXPECT_FALSE(validate_utf8("\x80")); }

TEST(Utf8, RejectsOverlong) {
  EXPECT_FALSE(validate_utf8("\xc0\xaf"));          // overlong '/'
  EXPECT_FALSE(validate_utf8("\xe0\x80\xaf"));      // overlong 3-byte
  EXPECT_FALSE(validate_utf8("\xf0\x80\x80\xaf"));  // overlong 4-byte
}

TEST(Utf8, RejectsSurrogates) {
  EXPECT_FALSE(validate_utf8("\xed\xa0\x80"));  // U+D800
  EXPECT_FALSE(validate_utf8("\xed\xbf\xbf"));  // U+DFFF
  EXPECT_TRUE(validate_utf8("\xed\x9f\xbf"));   // U+D7FF is fine
}

TEST(Utf8, RejectsAboveMaxCodepoint) {
  EXPECT_FALSE(validate_utf8("\xf4\x90\x80\x80"));  // U+110000
  EXPECT_TRUE(validate_utf8("\xf4\x8f\xbf\xbf"));   // U+10FFFF is fine
}

TEST(Utf8, RejectsTruncatedSequences) {
  EXPECT_FALSE(validate_utf8("\xc3"));
  EXPECT_FALSE(validate_utf8("\xe6\x97"));
  EXPECT_FALSE(validate_utf8("\xf0\x9f\x98"));
}

TEST(Utf8, RejectsF5AndAboveLeads) {
  EXPECT_FALSE(validate_utf8("\xf5\x80\x80\x80"));
  EXPECT_FALSE(validate_utf8("\xff"));
}

// Property: SWAR validator agrees with the scalar DFA on random inputs,
// including strings with ASCII runs straddling the 8-byte boundary.
TEST(Utf8, SwarMatchesScalarOnRandomBytes) {
  std::mt19937_64 rng(dpurpc::kDefaultSeed);
  for (int i = 0; i < 3000; ++i) {
    size_t n = rng() % 64;
    std::string s = dpurpc::random_bytes(rng, n);
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    EXPECT_EQ(validate_utf8(p, n), validate_utf8_scalar(p, n)) << dpurpc::hex_dump(dpurpc::as_bytes_view(s));
  }
}

TEST(Utf8, SwarMatchesScalarOnValidMixed) {
  std::mt19937_64 rng(dpurpc::kDefaultSeed);
  const char* pieces[] = {"a", "bcdefghij", "\xc3\xa9", "\xe6\x97\xa5",
                          "\xf0\x9f\x98\x80", "0123456789abcdef"};
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    int n_pieces = 1 + static_cast<int>(rng() % 8);
    for (int j = 0; j < n_pieces; ++j) s += pieces[rng() % std::size(pieces)];
    EXPECT_TRUE(validate_utf8(s));
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    EXPECT_TRUE(validate_utf8_scalar(p, s.size()));
  }
}

}  // namespace
}  // namespace dpurpc::wire
