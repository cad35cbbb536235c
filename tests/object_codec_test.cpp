// Tests for the ADT-driven object codec (serializer + LayoutBuilder): the
// response-serialization-offload extension (§III.A "this can be
// implemented similarly in our design"). The key property is the
// round-trip triangle:
//
//   DynamicMessage --WireCodec--> wire --ArenaDeserializer--> object
//        ^                                                       |
//        '------------------- ObjectSerializer ------------------'
//
// with byte-identical wire output (canonical field order in, canonical
// field order out).
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/rng.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"

namespace dpurpc::adt {
namespace {

using arena::AddressTranslator;
using arena::OwningArena;
using arena::StdLibFlavor;
using proto::DynamicMessage;
using proto::WireCodec;

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package oc;
message Leaf {
  int32 a = 1;
  sint64 b = 2;
  bool c = 3;
  float d = 4;
  double e = 5;
  fixed32 f = 6;
  sfixed64 g = 7;
  string s = 8;
  bytes raw = 9;
}
message Node {
  Leaf leaf = 1;
  repeated Leaf items = 2;
  repeated uint32 packed = 3;
  repeated string names = 4;
  repeated sint32 zz = 5;
  uint64 id = 6;
}
message Outer {
  Node node = 1;
  repeated bool flags = 2;
  repeated fixed64 wide = 3;
}
)";

class ObjectCodecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    leaf_ = *builder.add_message(pool_.find_message("oc.Leaf"));
    node_ = *builder.add_message(pool_.find_message("oc.Node"));
    outer_ = *builder.add_message(pool_.find_message("oc.Outer"));
    adt_ = std::move(builder).take();
    adt_.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
  }

  proto::DescriptorPool pool_;
  Adt adt_;
  uint32_t leaf_ = 0, node_ = 0, outer_ = 0;
};

DynamicMessage random_node(const proto::DescriptorPool& pool, std::mt19937_64& rng) {
  const auto* node = pool.find_message("oc.Node");
  const auto* leaf = pool.find_message("oc.Leaf");
  DynamicMessage m(node);
  auto fill_leaf = [&](DynamicMessage* l) {
    l->set_int64(leaf->field_by_name("a"), static_cast<int32_t>(rng()));
    l->set_int64(leaf->field_by_name("b"), static_cast<int64_t>(rng()));
    l->set_uint64(leaf->field_by_name("c"), rng() % 2);
    l->set_float(leaf->field_by_name("d"), static_cast<float>(rng() % 1000) / 8.0f);
    l->set_double(leaf->field_by_name("e"), static_cast<double>(rng() % 100000) / 3.0);
    l->set_uint64(leaf->field_by_name("f"), static_cast<uint32_t>(rng()));
    l->set_int64(leaf->field_by_name("g"), static_cast<int64_t>(rng()));
    l->set_string(leaf->field_by_name("s"), random_ascii(rng, rng() % 40));
    l->set_string(leaf->field_by_name("raw"), random_bytes(rng, rng() % 24));
  };
  if (rng() % 2) fill_leaf(m.mutable_message(node->field_by_name("leaf")));
  size_t items = rng() % 5;
  for (size_t i = 0; i < items; ++i) fill_leaf(m.add_message(node->field_by_name("items")));
  size_t packed = rng() % 40;
  SkewedVarintDistribution dist;
  for (size_t i = 0; i < packed; ++i) m.add_uint64(node->field_by_name("packed"), dist(rng));
  size_t names = rng() % 4;
  for (size_t i = 0; i < names; ++i) {
    m.add_string(node->field_by_name("names"), random_ascii(rng, rng() % 30));
  }
  size_t zz = rng() % 10;
  for (size_t i = 0; i < zz; ++i) {
    m.add_int64(node->field_by_name("zz"), static_cast<int32_t>(rng()));
  }
  if (rng() % 2) m.set_uint64(node->field_by_name("id"), rng());
  return m;
}

// ---------------------------------------------------------- serializer

TEST_F(ObjectCodecFixture, RoundTripIsByteIdentical) {
  std::mt19937_64 rng(kDefaultSeed);
  ArenaDeserializer deser(&adt_);
  ObjectSerializer ser(&adt_);
  OwningArena arena(1 << 18);
  for (int iter = 0; iter < 200; ++iter) {
    arena.reset();
    DynamicMessage m = random_node(pool_, rng);
    Bytes wire = WireCodec::serialize(m);

    auto obj = deser.deserialize(node_, ByteSpan(wire), arena, {});
    ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();

    Bytes back;
    auto st = ser.serialize(ObjectRef(node_, *obj), back);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(back, wire) << "iteration " << iter;

    auto size = ser.byte_size(ObjectRef(node_, *obj));
    ASSERT_TRUE(size.is_ok());
    EXPECT_EQ(*size, wire.size());
  }
}

TEST_F(ObjectCodecFixture, EmptyObjectSerializesToNothing) {
  OwningArena arena(1 << 12);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(node_, {}, arena, {});
  ASSERT_TRUE(obj.is_ok());
  ObjectSerializer ser(&adt_);
  Bytes out;
  ASSERT_TRUE(ser.serialize(ObjectRef(node_, *obj), out).is_ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(*ser.byte_size(ObjectRef(node_, *obj)), 0u);
}

TEST_F(ObjectCodecFixture, UnknownClassRejected) {
  ObjectSerializer ser(&adt_);
  Bytes out;
  char dummy[64] = {};
  EXPECT_EQ(ser.serialize(ObjectRef(999, dummy), out).code(), Code::kNotFound);
  EXPECT_FALSE(ser.byte_size(ObjectRef(999, dummy)).is_ok());
}

// ------------------------------------------------------- LayoutBuilder

TEST_F(ObjectCodecFixture, BuilderSetsScalarsAndStrings) {
  OwningArena arena(1 << 14);
  auto b = LayoutBuilder::create(&adt_, leaf_, &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->set_int64(1, -77).is_ok());
  ASSERT_TRUE(b->set_int64(2, -123456789).is_ok());  // sint64
  ASSERT_TRUE(b->set_bool(3, true).is_ok());
  ASSERT_TRUE(b->set_float(4, 2.5f).is_ok());
  ASSERT_TRUE(b->set_double(5, -0.125).is_ok());
  ASSERT_TRUE(b->set_string(8, "a string that is longer than SSO").is_ok());

  LayoutView v = b->view();
  EXPECT_EQ(v.get_int64(1), -77);
  EXPECT_EQ(v.get_int64(2), -123456789);
  EXPECT_TRUE(v.get_bool(3));
  EXPECT_FLOAT_EQ(v.get_float(4), 2.5f);
  EXPECT_DOUBLE_EQ(v.get_double(5), -0.125);
  EXPECT_EQ(v.get_string(8), "a string that is longer than SSO");
  EXPECT_TRUE(v.has(1));
  EXPECT_FALSE(v.has(6));
}

TEST_F(ObjectCodecFixture, BuilderTypeChecks) {
  OwningArena arena(1 << 12);
  auto b = LayoutBuilder::create(&adt_, leaf_, &arena);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b->set_string(1, "x").code(), Code::kInvalidArgument);  // int field
  EXPECT_EQ(b->set_float(5, 1.0f).code(), Code::kInvalidArgument);  // double field
  EXPECT_EQ(b->set_int64(99, 1).code(), Code::kNotFound);
  EXPECT_EQ(b->add_string(8, "x").code(), Code::kInvalidArgument);  // not repeated
}

TEST_F(ObjectCodecFixture, BuilderRepeatedAndNested) {
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(b->add_scalar(3, i * 3).is_ok());
  ASSERT_TRUE(b->add_string(4, "first").is_ok());
  ASSERT_TRUE(b->add_string(4, std::string(50, 'n')).is_ok());
  auto leaf1 = b->add_message(2);
  ASSERT_TRUE(leaf1.is_ok());
  ASSERT_TRUE(leaf1->set_int64(1, 11).is_ok());
  auto leaf2 = b->add_message(2);
  ASSERT_TRUE(leaf2.is_ok());
  ASSERT_TRUE(leaf2->set_int64(1, 22).is_ok());
  auto head = b->mutable_message(1);
  ASSERT_TRUE(head.is_ok());
  ASSERT_TRUE(head->set_string(8, "head leaf").is_ok());
  // mutable_message twice returns the same instance.
  auto head2 = b->mutable_message(1);
  ASSERT_TRUE(head2.is_ok());
  EXPECT_EQ(head->object(), head2->object());

  LayoutView v = b->view();
  ASSERT_EQ(v.repeated_size(3), 100u);
  EXPECT_EQ(v.repeated_uint64(3, 99), 297u);
  ASSERT_EQ(v.repeated_size(4), 2u);
  EXPECT_EQ(v.repeated_string(4, 1), std::string(50, 'n'));
  ASSERT_EQ(v.repeated_size(2), 2u);
  EXPECT_EQ(v.repeated_message(2, 0).get_int64(1), 11);
  EXPECT_EQ(v.repeated_message(2, 1).get_int64(1), 22);
  EXPECT_EQ(v.get_message(1).get_string(8), "head leaf");
}

TEST_F(ObjectCodecFixture, BuiltObjectSerializesLikeDynamicMessage) {
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->set_uint64(6, 424242).is_ok());
  for (uint64_t i = 1; i <= 5; ++i) ASSERT_TRUE(b->add_scalar(3, i * 1000).is_ok());
  ASSERT_TRUE(b->add_string(4, "alpha").is_ok());
  auto leaf = b->add_message(2);
  ASSERT_TRUE(leaf.is_ok());
  ASSERT_TRUE(leaf->set_int64(1, 9).is_ok());
  ASSERT_TRUE(leaf->set_string(8, "leafy").is_ok());

  ObjectSerializer ser(&adt_);
  Bytes from_object;
  // ObjectRef converts straight from the builder: no index to mismatch.
  ASSERT_TRUE(ser.serialize(ObjectRef(*b), from_object).is_ok());

  const auto* node_desc = pool_.find_message("oc.Node");
  const auto* leaf_desc = pool_.find_message("oc.Leaf");
  DynamicMessage m(node_desc);
  m.set_uint64(node_desc->field_by_name("id"), 424242);
  for (uint64_t i = 1; i <= 5; ++i) m.add_uint64(node_desc->field_by_name("packed"), i * 1000);
  m.add_string(node_desc->field_by_name("names"), "alpha");
  auto* l = m.add_message(node_desc->field_by_name("items"));
  l->set_int64(leaf_desc->field_by_name("a"), 9);
  l->set_string(leaf_desc->field_by_name("s"), "leafy");

  EXPECT_EQ(from_object, WireCodec::serialize(m));
}

TEST_F(ObjectCodecFixture, BuilderWithTranslationSurvivesBufferCopy) {
  // Build a response object in scratch, copy it into a "send buffer" with
  // host-space pointers (copy_relocated), copy that (the RDMA write) and
  // serialize it on the receiver: the offloaded response-serialization
  // path. 4096 packed elements cross several in-place growths, and the
  // grown array must still be found and rebased.
  constexpr size_t kBuf = 1 << 15;
  constexpr uint64_t kPacked = 4096;
  std::vector<std::byte> sbuf(kBuf), rbuf(kBuf);
  AddressTranslator xlate{reinterpret_cast<intptr_t>(rbuf.data()) -
                          reinterpret_cast<intptr_t>(sbuf.data())};
  ASSERT_NE(xlate.delta, 0);
  OwningArena scratch(kBuf);

  auto b = LayoutBuilder::create(&adt_, node_, &scratch);
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(static_cast<std::byte*>(b->object()), scratch.base());
  ASSERT_TRUE(b->set_uint64(6, 777).is_ok());
  for (uint64_t i = 0; i < kPacked; ++i) ASSERT_TRUE(b->add_scalar(3, i * 7).is_ok());
  ASSERT_TRUE(b->add_string(4, std::string(40, 'z')).is_ok());
  auto leaf = b->add_message(2);
  ASSERT_TRUE(leaf.is_ok());
  ASSERT_TRUE(leaf->set_int64(1, 5).is_ok());

  ArenaDeserializer deser(&adt_);
  deser.copy_relocated(node_, scratch.base(), scratch.used(), sbuf.data(),
                       xlate.delta);
  std::memset(scratch.base(), 0xdd, scratch.used());  // nor here
  std::memcpy(rbuf.data(), sbuf.data(), kBuf);  // the RDMA write
  std::memset(sbuf.data(), 0xee, kBuf);         // nothing may still point here

  auto* remote_obj = rbuf.data();
  ObjectSerializer ser(&adt_);
  Bytes wire;
  ASSERT_TRUE(ser.serialize(ObjectRef(node_, remote_obj), wire).is_ok());

  // Parse back with the reference codec and verify content.
  const auto* node_desc = pool_.find_message("oc.Node");
  DynamicMessage out(node_desc);
  ASSERT_TRUE(WireCodec::parse(ByteSpan(wire), out).is_ok());
  EXPECT_EQ(out.get_uint64(node_desc->field_by_name("id")), 777u);
  const auto* packed = node_desc->field_by_name("packed");
  ASSERT_EQ(out.repeated_size(packed), kPacked);
  for (uint64_t i = 0; i < kPacked; ++i) {
    ASSERT_EQ(out.get_repeated_uint64(packed, i), i * 7) << "element " << i;
  }
  EXPECT_EQ(out.get_repeated_string(node_desc->field_by_name("names"), 0),
            std::string(40, 'z'));
}

TEST_F(ObjectCodecFixture, BuilderArenaExhaustion) {
  OwningArena arena(192);  // barely fits the instance
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  Status st = Status::ok();
  uint32_t added = 0;
  for (int i = 0; i < 1000 && st.is_ok(); ++i) {
    st = b->add_scalar(3, i);
    if (st.is_ok()) ++added;
  }
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  // The failed growth left the field as it was.
  LayoutView v = b->view();
  ASSERT_EQ(v.repeated_size(3), added);
  for (uint32_t i = 0; i < added; ++i) EXPECT_EQ(v.repeated_uint64(3, i), i);
}

// ------------------------------------------- LayoutBuilder growth paths

TEST_F(ObjectCodecFixture, BuilderAppendGrowsInPlace) {
  // One field appended without interruption grows in place: the arena
  // holds the instance plus one live array, no outgrown copies.
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  for (uint64_t i = 0; i < 4096; ++i) ASSERT_TRUE(b->add_scalar(3, i).is_ok());
  EXPECT_LE(arena.used(), adt_.class_at(node_).size + 4096u * 4 + 64);
  LayoutView v = b->view();
  ASSERT_EQ(v.repeated_size(3), 4096u);
  for (uint32_t i = 0; i < 4096; ++i) ASSERT_EQ(v.repeated_uint64(3, i), i);
}

TEST_F(ObjectCodecFixture, BuilderInterleavedFieldsMatchOracle) {
  // Alternating appends keep stealing "last allocation" from each other,
  // so every growth takes the allocate-and-copy fallback. Every element
  // width (1, 4, 8 bytes) and the pointer arrays ride along.
  const auto* outer_desc = pool_.find_message("oc.Outer");
  const auto* node_desc = pool_.find_message("oc.Node");
  DynamicMessage want(outer_desc);
  DynamicMessage* want_node = want.mutable_message(outer_desc->field_by_name("node"));

  OwningArena arena(1 << 18);
  auto b = LayoutBuilder::create(&adt_, outer_, &arena);
  ASSERT_TRUE(b.is_ok());
  auto node = b->mutable_message(1);
  ASSERT_TRUE(node.is_ok());
  std::mt19937_64 rng(kDefaultSeed);
  for (uint32_t i = 0; i < 600; ++i) {
    const uint64_t r = rng();
    ASSERT_TRUE(node->add_scalar(3, static_cast<uint32_t>(r)).is_ok());
    want_node->add_uint64(node_desc->field_by_name("packed"), static_cast<uint32_t>(r));
    ASSERT_TRUE(node->add_scalar(5, static_cast<uint32_t>(r >> 32)).is_ok());
    want_node->add_int64(node_desc->field_by_name("zz"),
                         static_cast<int32_t>(static_cast<uint32_t>(r >> 32)));
    ASSERT_TRUE(b->add_scalar(2, r & 1).is_ok());
    want.add_uint64(outer_desc->field_by_name("flags"), r & 1);
    ASSERT_TRUE(b->add_scalar(3, r).is_ok());
    want.add_uint64(outer_desc->field_by_name("wide"), r);
    if (i % 7 == 0) {
      std::string name = "n" + std::to_string(i);
      ASSERT_TRUE(node->add_string(4, name).is_ok());
      want_node->add_string(node_desc->field_by_name("names"), name);
    }
    if (i % 11 == 0) {
      auto item = node->add_message(2);
      ASSERT_TRUE(item.is_ok());
      ASSERT_TRUE(item->set_int64(1, i).is_ok());
      want_node->add_message(node_desc->field_by_name("items"))
          ->set_int64(pool_.find_message("oc.Leaf")->field_by_name("a"), i);
    }
  }
  ObjectSerializer ser(&adt_);
  Bytes got;
  ASSERT_TRUE(ser.serialize(ObjectRef(*b), got).is_ok());
  EXPECT_EQ(got, WireCodec::serialize(want));
}

TEST_F(ObjectCodecFixture, BuilderHandlesToOneObjectAgree) {
  // Two handles to the same sub-object, each with its own fast-path
  // state: interleaved appends (and the growths either one triggers)
  // must land in one array.
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, outer_, &arena);
  ASSERT_TRUE(b.is_ok());
  auto h1 = b->mutable_message(1);
  auto h2 = b->mutable_message(1);
  ASSERT_TRUE(h1.is_ok() && h2.is_ok());
  ASSERT_EQ(h1->object(), h2->object());
  for (uint64_t i = 0; i < 1000; ++i) {
    LayoutBuilder& h = (i % 3 == 0) ? *h1 : *h2;
    ASSERT_TRUE(h.add_scalar(3, i).is_ok());
    if (i % 50 == 0) {
      ASSERT_TRUE(h1->add_string(4, "x").is_ok());  // interrupt the run
    }
  }
  for (const LayoutBuilder* h : {&*h1, &*h2}) {
    LayoutView v = h->view();
    ASSERT_EQ(v.repeated_size(3), 1000u);
    for (uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(v.repeated_uint64(3, i), i);
  }
  // A copy of a warmed handle appends to the same array too.
  LayoutBuilder copy = *h1;
  ASSERT_TRUE(copy.add_scalar(3, 1000).is_ok());
  EXPECT_EQ(h2->view().repeated_size(3), 1001u);
}

TEST_F(ObjectCodecFixture, BuilderFastPathKeepsChecks) {
  OwningArena arena(1 << 14);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->add_scalar(3, 1).is_ok());
  ASSERT_TRUE(b->add_scalar(3, 2).is_ok());  // fast path warm for field 3
  EXPECT_EQ(b->add_scalar(6, 9).code(), Code::kInvalidArgument);   // not repeated
  EXPECT_EQ(b->add_scalar(1, 9).code(), Code::kInvalidArgument);   // singular message
  EXPECT_EQ(b->add_scalar(4, 9).code(), Code::kInvalidArgument);   // repeated string
  EXPECT_EQ(b->add_scalar(2, 9).code(), Code::kInvalidArgument);   // repeated message
  EXPECT_EQ(b->add_scalar(99, 9).code(), Code::kNotFound);
  ASSERT_TRUE(b->add_scalar(3, 3).is_ok());
  LayoutView v = b->view();
  ASSERT_EQ(v.repeated_size(3), 3u);
  EXPECT_EQ(v.repeated_uint64(3, 2), 3u);
  EXPECT_FALSE(v.has(6));
}

}  // namespace
}  // namespace dpurpc::adt
