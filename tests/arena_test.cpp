// Unit tests for the arena allocator and zero-copy std::string crafting.
#include <gtest/gtest.h>

#include <cstring>

#include "arena/arena.hpp"
#include "arena/string_craft.hpp"
#include "common/rng.hpp"

namespace dpurpc::arena {
namespace {

TEST(Arena, BumpAllocatesSequentially) {
  OwningArena a(1024);
  void* p1 = a.allocate(16);
  void* p2 = a.allocate(16);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(static_cast<std::byte*>(p2) - static_cast<std::byte*>(p1), 16);
}

TEST(Arena, RespectsAlignment) {
  OwningArena a(1024);
  a.allocate(1, 1);
  void* p = a.allocate(8, 64);
  EXPECT_TRUE(dpurpc::is_aligned(p, 64));
}

TEST(Arena, ExhaustionReturnsNull) {
  OwningArena a(64);
  EXPECT_NE(a.allocate(64, 1), nullptr);
  EXPECT_EQ(a.allocate(1, 1), nullptr);
}

TEST(Arena, AlignmentPaddingCountsTowardCapacity) {
  OwningArena a(16);
  a.allocate(1, 1);                     // used = 1
  EXPECT_EQ(a.allocate(16, 8), nullptr);  // would need 8 (pad) + 16 > 16
  EXPECT_NE(a.allocate(8, 8), nullptr);
}

TEST(Arena, ResetReclaimsEverything) {
  OwningArena a(128);
  a.allocate(100, 1);
  EXPECT_EQ(a.allocate(100, 1), nullptr);
  a.reset();
  EXPECT_NE(a.allocate(100, 1), nullptr);
}

TEST(Arena, ContainsChecksBounds) {
  OwningArena a(64);
  void* p = a.allocate(8);
  EXPECT_TRUE(a.contains(p));
  int local;
  EXPECT_FALSE(a.contains(&local));
}

TEST(Arena, AllocateArrayTyped) {
  OwningArena a(1024);
  auto* xs = a.allocate_array<uint64_t>(10);
  ASSERT_NE(xs, nullptr);
  EXPECT_TRUE(dpurpc::is_aligned(xs, alignof(uint64_t)));
  for (int i = 0; i < 10; ++i) xs[i] = i;  // must be writable
}

TEST(Arena, TryExtendGrowsLastAllocationInPlace) {
  OwningArena a(1024);
  a.allocate(24, 8);
  void* p = a.allocate(32, 4);
  ASSERT_NE(p, nullptr);
  const size_t before = a.used();
  EXPECT_TRUE(a.try_extend(p, 32, 64));
  EXPECT_EQ(a.used(), before + 32);
  // Still the last allocation: it can keep growing, up to the last byte.
  EXPECT_TRUE(a.try_extend(p, 64, 64 + a.remaining()));
  EXPECT_EQ(a.used(), a.capacity());
  // The next allocation starts after the extended one.
  a.reset();
  void* q = a.allocate(16, 8);
  ASSERT_TRUE(a.try_extend(q, 16, 48));
  EXPECT_EQ(static_cast<std::byte*>(a.allocate(8, 8)) - static_cast<std::byte*>(q), 48);
}

TEST(Arena, TryExtendRefusesNonLastAllocation) {
  OwningArena a(1024);
  void* p = a.allocate(32, 8);
  a.allocate(8, 8);
  const size_t before = a.used();
  EXPECT_FALSE(a.try_extend(p, 32, 64));
  EXPECT_EQ(a.used(), before);
  // A prefix of the last allocation is not the last allocation either.
  void* r = a.allocate(32, 8);
  EXPECT_FALSE(a.try_extend(r, 16, 64));
  EXPECT_EQ(a.used(), before + 32);
  // Nor is memory outside the arena.
  alignas(8) std::byte outside[64];
  EXPECT_FALSE(a.try_extend(outside, 8, 16));
}

TEST(Arena, TryExtendPastCapacityLeavesUsedUnchanged) {
  OwningArena a(128);
  void* p = a.allocate(64, 8);
  EXPECT_FALSE(a.try_extend(p, 64, 129));
  EXPECT_FALSE(a.try_extend(p, 64, SIZE_MAX));
  EXPECT_EQ(a.used(), 64u);
  EXPECT_TRUE(a.try_extend(p, 64, 128));
  EXPECT_EQ(a.used(), 128u);
}

TEST(Arena, TryExtendShrinkOrSameSizeIsNoOpSuccess) {
  OwningArena a(256);
  void* p = a.allocate(64, 8);
  a.allocate(8, 8);  // p is no longer last; shrinking needs no room anyway
  const size_t before = a.used();
  EXPECT_TRUE(a.try_extend(p, 64, 64));
  EXPECT_TRUE(a.try_extend(p, 64, 16));
  EXPECT_EQ(a.used(), before);
}

// ------------------------------------------------------ string crafting

TEST(StringLayout, HostIsLibstdcpp) {
  // This build runs against libstdc++; the self-check must pass for it and
  // fail for the libc++ layout. (On a libc++ host the roles would flip —
  // exactly the runtime detection the paper calls for.)
  auto flavor = detect_string_layout();
  ASSERT_TRUE(flavor.is_ok()) << flavor.status().to_string();
  EXPECT_EQ(*flavor, StdLibFlavor::kLibstdcpp);
  EXPECT_TRUE(verify_string_layout(StdLibFlavor::kLibstdcpp).is_ok());
  EXPECT_FALSE(verify_string_layout(StdLibFlavor::kLibcpp).is_ok());
}

// Craft with delta=0 (the paper's mirrored address space): the crafted
// bytes must behave as a real std::string *in this process*.
TEST(StringCraft, SsoStringIsReadableAsRealString) {
  OwningArena a(4096);
  alignas(8) unsigned char slot[sizeof(std::string)];
  ASSERT_TRUE(craft_string(slot, "short", a, {}, StdLibFlavor::kLibstdcpp).is_ok());
  const auto* s = reinterpret_cast<const std::string*>(slot);
  EXPECT_EQ(*s, "short");
  EXPECT_EQ(s->size(), 5u);
  EXPECT_EQ(s->c_str()[5], '\0');
  // SSO: data must point inside the instance, and no arena use.
  EXPECT_GE(reinterpret_cast<const unsigned char*>(s->data()), slot);
  EXPECT_LT(reinterpret_cast<const unsigned char*>(s->data()), slot + sizeof(slot));
  EXPECT_EQ(a.used(), 0u);
}

TEST(StringCraft, SsoBoundaryAt15Chars) {
  OwningArena a(4096);
  alignas(8) unsigned char slot[sizeof(std::string)];
  std::string fifteen(15, 'x');
  ASSERT_TRUE(craft_string(slot, fifteen, a, {}, StdLibFlavor::kLibstdcpp).is_ok());
  EXPECT_EQ(a.used(), 0u);  // still SSO
  const auto* s = reinterpret_cast<const std::string*>(slot);
  EXPECT_EQ(*s, fifteen);

  std::string sixteen(16, 'y');
  ASSERT_TRUE(craft_string(slot, sixteen, a, {}, StdLibFlavor::kLibstdcpp).is_ok());
  EXPECT_GT(a.used(), 0u);  // out of line
  EXPECT_EQ(*reinterpret_cast<const std::string*>(slot), sixteen);
}

TEST(StringCraft, LongStringLivesInArena) {
  OwningArena a(4096);
  alignas(8) unsigned char slot[sizeof(std::string)];
  std::string big(1000, 'z');
  ASSERT_TRUE(craft_string(slot, big, a, {}, StdLibFlavor::kLibstdcpp).is_ok());
  const auto* s = reinterpret_cast<const std::string*>(slot);
  EXPECT_EQ(*s, big);
  EXPECT_TRUE(a.contains(s->data()));
  EXPECT_EQ(s->c_str()[1000], '\0');  // NUL-terminated like a real string
}

TEST(StringCraft, EmptyString) {
  OwningArena a(64);
  alignas(8) unsigned char slot[sizeof(std::string)];
  ASSERT_TRUE(craft_string(slot, "", a, {}, StdLibFlavor::kLibstdcpp).is_ok());
  const auto* s = reinterpret_cast<const std::string*>(slot);
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->c_str()[0], '\0');
}

TEST(StringCraft, ArenaExhaustionReported) {
  OwningArena a(8);  // too small for a 100-char payload
  alignas(8) unsigned char slot[sizeof(std::string)];
  std::string big(100, 'q');
  EXPECT_EQ(craft_string(slot, big, a, {}, StdLibFlavor::kLibstdcpp).code(),
            dpurpc::Code::kResourceExhausted);
}

// Nonzero delta: pointers are emitted in the receiver's address space.
// Simulate by crafting into a "send" buffer, memcpy'ing it to a "receive"
// buffer at a different address (the RDMA write), and reading it there.
TEST(StringCraft, DeltaRebasesPointersAcrossBufferCopy) {
  constexpr size_t kSize = 4096;
  std::vector<unsigned char> sbuf(kSize), rbuf(kSize);
  AddressTranslator xlate{reinterpret_cast<intptr_t>(rbuf.data()) -
                          reinterpret_cast<intptr_t>(sbuf.data())};
  Arena send_arena(sbuf.data() + 64, kSize - 64);

  std::string long_payload(200, 'p');
  ASSERT_TRUE(craft_string(sbuf.data(), long_payload, send_arena, xlate,
                           StdLibFlavor::kLibstdcpp)
                  .is_ok());
  std::string short_payload = "tiny";
  ASSERT_TRUE(craft_string(sbuf.data() + 32, short_payload, send_arena, xlate,
                           StdLibFlavor::kLibstdcpp)
                  .is_ok());

  std::memcpy(rbuf.data(), sbuf.data(), kSize);  // the "RDMA write"

  const auto* s_long = reinterpret_cast<const std::string*>(rbuf.data());
  const auto* s_short = reinterpret_cast<const std::string*>(rbuf.data() + 32);
  EXPECT_EQ(*s_long, long_payload);
  EXPECT_EQ(*s_short, short_payload);
  // The long string's chars must resolve inside the receive buffer.
  EXPECT_GE(reinterpret_cast<const unsigned char*>(s_long->data()), rbuf.data());
  EXPECT_LT(reinterpret_cast<const unsigned char*>(s_long->data()), rbuf.data() + kSize);
}

TEST(StringCraft, ReadCraftedStringMatchesWithoutStdString) {
  OwningArena a(4096);
  alignas(8) unsigned char slot[sizeof(std::string)];
  ASSERT_TRUE(craft_string(slot, "roundtrip-check", a, {}, StdLibFlavor::kLibstdcpp).is_ok());
  auto view = read_crafted_string(slot, StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(*view, "roundtrip-check");
}

// Property sweep: random contents across the SSO boundary round-trip.
class StringCraftSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(StringCraftSweep, RoundTripsAtEveryLength) {
  size_t n = GetParam();
  std::mt19937_64 rng(dpurpc::kDefaultSeed + n);
  OwningArena a(1 << 16);
  alignas(8) unsigned char slot[sizeof(std::string)];
  for (int i = 0; i < 50; ++i) {
    std::string content = dpurpc::random_ascii(rng, n);
    ASSERT_TRUE(craft_string(slot, content, a, {}, StdLibFlavor::kLibstdcpp).is_ok());
    EXPECT_EQ(*reinterpret_cast<const std::string*>(slot), content);
    a.reset();
  }
}

INSTANTIATE_TEST_SUITE_P(AroundSsoBoundary, StringCraftSweep,
                         ::testing::Values(0, 1, 7, 14, 15, 16, 17, 31, 32, 255,
                                           8000));

}  // namespace
}  // namespace dpurpc::arena
