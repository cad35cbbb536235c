// End-to-end tests for the response-serialization offload (§III.A "the
// response's serialization ... can be implemented similarly in our
// design"): the host builds the response *object* once with a
// LayoutBuilder and ships it in an exactly-sized block slot; the DPU
// serializes it with the ADT-driven ObjectSerializer before answering the
// xRPC client. With both directions offloaded, the host performs no
// serialization work at all.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package ro;

message Query { string text = 1; uint32 top_k = 2; }
message Hit { string doc = 1; double score = 2; }
message Results { repeated Hit hits = 1; uint64 total = 2; string shard = 3; }
message Values { repeated uint32 v = 1; uint64 total = 2; }

service Search {
  rpc Find (Query) returns (Results);
  rpc Fetch (Query) returns (Values);
}
)";

class ResponseOffloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    auto built = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    // Ship it (serialize/deserialize round trip, incl. output classes).
    Bytes shipped = built->serialize();
    auto received = OffloadManifest::deserialize(ByteSpan(shipped));
    ASSERT_TRUE(received.is_ok()) << received.status().to_string();
    host_manifest_ = std::make_unique<OffloadManifest>(std::move(*built));
    dpu_manifest_ = std::make_unique<OffloadManifest>(std::move(*received));

    dpu_pd_ = std::make_unique<simverbs::ProtectionDomain>("dpu");
    host_pd_ = std::make_unique<simverbs::ProtectionDomain>("host");
    dpu_conn_ = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kClient,
                                                      dpu_pd_.get(),
                                                      rdmarpc::ConnectionConfig{});
    host_conn_ = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kServer,
                                                       host_pd_.get(),
                                                       rdmarpc::ConnectionConfig{});
    ASSERT_TRUE(rdmarpc::Connection::connect(*dpu_conn_, *host_conn_).is_ok());
    host_ = std::make_unique<HostEngine>(host_conn_.get(), host_manifest_.get(), &pool_);
  }

  void start() {
    host_thread_ = std::thread([this] {
      while (!stop_.load()) {
        auto n = host_->event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) host_->wait(1);
      }
    });
    proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
    auto port = proxy_->start();
    ASSERT_TRUE(port.is_ok());
    port_ = *port;
  }

  void expect_replies_match_oracle(int calls, size_t max_text,
                                   const std::string& pad);

  void TearDown() override {
    if (proxy_) proxy_->stop();
    stop_.store(true);
    host_conn_->interrupt();
    if (host_thread_.joinable()) host_thread_.join();
  }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> host_manifest_, dpu_manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<HostEngine> host_;
  std::unique_ptr<DpuProxy> proxy_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
  uint16_t port_ = 0;
};

TEST_F(ResponseOffloadFixture, ManifestCarriesOutputClasses) {
  const auto* find = host_manifest_->find_by_name("ro.Search/Find");
  ASSERT_NE(find, nullptr);
  EXPECT_EQ(host_manifest_->adt().class_at(find->output_class).name, "ro.Results");
  const auto* shipped = dpu_manifest_->find_by_name("ro.Search/Find");
  ASSERT_NE(shipped, nullptr);
  EXPECT_EQ(shipped->output_class, find->output_class);
}

TEST_F(ResponseOffloadFixture, FullyOffloadedRoundTrip) {
  // Host handler: reads the in-place request, BUILDS the in-place response
  // — zero host-side (de)serialization in either direction.
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Find",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        std::string text(req.get_string(1));
                        uint64_t top_k = req.get_uint64(2);
                        for (uint64_t i = 0; i < top_k; ++i) {
                          auto hit = resp.add_message(1);
                          if (!hit.is_ok()) return hit.status();
                          DPURPC_RETURN_IF_ERROR(hit->set_string(
                              1, text + "-doc-" + std::to_string(i)));
                          DPURPC_RETURN_IF_ERROR(
                              hit->set_double(2, 1.0 / static_cast<double>(i + 1)));
                        }
                        DPURPC_RETURN_IF_ERROR(resp.set_uint64(2, top_k * 100));
                        return resp.set_string(3, "shard-7");
                      })
                  .is_ok());
  start();

  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  proto::DynamicMessage q(query_desc);
  q.set_string(query_desc->field_by_name("text"), "fast rpc");
  q.set_uint64(query_desc->field_by_name("top_k"), 3);
  Bytes wire = proto::WireCodec::serialize(q);

  auto resp = (*chan)->call("ro.Search/Find", ByteSpan(wire));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();

  // The client receives ordinary proto3 wire bytes, produced by the DPU's
  // ObjectSerializer — parse them with the reference codec.
  const auto* results_desc = pool_.find_message("ro.Results");
  const auto* hit_desc = pool_.find_message("ro.Hit");
  proto::DynamicMessage r(results_desc);
  ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
  ASSERT_EQ(r.repeated_size(results_desc->field_by_name("hits")), 3u);
  EXPECT_EQ(r.get_repeated_message(results_desc->field_by_name("hits"), 0)
                ->get_string(hit_desc->field_by_name("doc")),
            "fast rpc-doc-0");
  EXPECT_DOUBLE_EQ(r.get_repeated_message(results_desc->field_by_name("hits"), 2)
                       ->get_double(hit_desc->field_by_name("score")),
                   1.0 / 3.0);
  EXPECT_EQ(r.get_uint64(results_desc->field_by_name("total")), 300u);
  EXPECT_EQ(r.get_string(results_desc->field_by_name("shard")), "shard-7");
}

// The acceptance criterion, literally: bytes serialized on the DPU are
// bit-identical to what the reference WireCodec produces for the
// equivalent DynamicMessage — over randomized response content, not one
// lucky shape. Every reply's shard is the request text plus `pad`, which
// decides whether the object crosses the lane-thread cutoff.
void ResponseOffloadFixture::expect_replies_match_oracle(int calls,
                                                         size_t max_text,
                                                         const std::string& pad) {
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Find",
                      [pad](const ServerContext&, const adt::LayoutView& req,
                            adt::LayoutBuilder& resp) {
                        // Deterministic function of the request, so the
                        // test can rebuild the exact message client-side.
                        std::string text(req.get_string(1));
                        uint64_t top_k = req.get_uint64(2) % 6;
                        for (uint64_t i = 0; i < top_k; ++i) {
                          auto hit = resp.add_message(1);
                          if (!hit.is_ok()) return hit.status();
                          DPURPC_RETURN_IF_ERROR(hit->set_string(
                              1, text + "#" + std::to_string(i)));
                          DPURPC_RETURN_IF_ERROR(hit->set_double(
                              2, static_cast<double>(i) * 0.25));
                        }
                        DPURPC_RETURN_IF_ERROR(resp.set_uint64(2, top_k));
                        return resp.set_string(3, text + pad);
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  const auto* results_desc = pool_.find_message("ro.Results");
  const auto* hit_desc = pool_.find_message("ro.Hit");

  std::mt19937_64 rng(kDefaultSeed);
  for (int i = 0; i < calls; ++i) {
    // Strings long and short: SSO and heap forms both cross the
    // serialize path.
    std::string text = random_ascii(rng, 1 + rng() % max_text);
    // top_k is uint32 on the wire: stay inside it so client and server
    // compute the same k % 6.
    uint64_t k = rng() % 100000;
    proto::DynamicMessage q(query_desc);
    q.set_string(query_desc->field_by_name("text"), text);
    q.set_uint64(query_desc->field_by_name("top_k"), k);
    Bytes wire = proto::WireCodec::serialize(q);
    auto resp = (*chan)->call("ro.Search/Find", ByteSpan(wire));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();

    // Rebuild the exact response message and demand the exact bytes.
    proto::DynamicMessage want(results_desc);
    for (uint64_t j = 0; j < k % 6; ++j) {
      auto* hit = want.add_message(results_desc->field_by_name("hits"));
      hit->set_string(hit_desc->field_by_name("doc"),
                      text + "#" + std::to_string(j));
      hit->set_double(hit_desc->field_by_name("score"),
                      static_cast<double>(j) * 0.25);
    }
    want.set_uint64(results_desc->field_by_name("total"), k % 6);
    want.set_string(results_desc->field_by_name("shard"), text + pad);
    EXPECT_EQ(*resp, proto::WireCodec::serialize(want)) << "call " << i;
  }
}

// Replies above the cutoff: every object is copied out and serialized by
// the codec pool's encode direction.
TEST_F(ResponseOffloadFixture, PoolSerializedBytesMatchWireCodecOracle) {
  constexpr int kCalls = 40;
  ASSERT_NO_FATAL_FAILURE(expect_replies_match_oracle(
      kCalls, 150, std::string(kInlineCodecMaxBytes, '=')));

  // The ledger: every reply was an in-place object, and each one was
  // serialized exactly once — on the pool unless the spill path fired.
  const auto& stats = proxy_->stats();
  EXPECT_EQ(stats.offloaded_responses.load() + stats.inline_serializes.load(),
            static_cast<uint64_t>(kCalls));
  // One blocking client, empty rings: nothing should ever have spilled.
  EXPECT_EQ(stats.inline_serializes.load(), 0u);
  uint64_t pool_encodes = 0;
  for (size_t w = 0; w < proxy_->codec_pool().worker_count(); ++w)
    pool_encodes += proxy_->codec_pool().worker_stats(w).encodes;
  EXPECT_EQ(pool_encodes, static_cast<uint64_t>(kCalls));
}

// Replies at most the cutoff: serialized on the lane thread straight from
// the receive block, with the same bytes; the pool runs no job at all.
TEST_F(ResponseOffloadFixture, LaneSerializedBytesMatchWireCodecOracle) {
  constexpr int kCalls = 40;
  ASSERT_NO_FATAL_FAILURE(expect_replies_match_oracle(kCalls, 40, ""));
  const auto& stats = proxy_->stats();
  EXPECT_EQ(stats.inline_serializes.load(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(stats.offloaded_responses.load(), 0u);
  EXPECT_EQ(proxy_->codec_pool().total_jobs(), 0u);
}

// A 16 KiB reply built with add_scalar in per-thread scratch: the host
// ships only live bytes (the array grew in place, no outgrown copies), and
// the pool-serialized reply is still the oracle's.
TEST_F(ResponseOffloadFixture, ObjectReplyShipsOnlyLiveBytes) {
  constexpr uint32_t kValues = 4096;
  auto value_at = [](uint64_t seed, uint32_t i) {
    return static_cast<uint32_t>((seed + i) * 2654435761u) >> (i % 29);
  };
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Fetch",
                      [value_at](const ServerContext&, const adt::LayoutView& req,
                          adt::LayoutBuilder& resp) {
                        const uint64_t seed = req.get_uint64(2);
                        for (uint32_t i = 0; i < kValues; ++i) {
                          DPURPC_RETURN_IF_ERROR(resp.add_scalar(1, value_at(seed, i)));
                        }
                        return resp.set_uint64(2, seed);
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  const auto* values_desc = pool_.find_message("ro.Values");
  proto::DynamicMessage q(query_desc);
  q.set_uint64(query_desc->field_by_name("top_k"), 12345);
  Bytes wire = proto::WireCodec::serialize(q);

  // Everything the host transmits for this one call is the reply block:
  // block and message headers plus the in-place object.
  const uint64_t host_tx0 = host_conn_->tx_counters().bytes.load();
  auto resp = (*chan)->call("ro.Search/Fetch", ByteSpan(wire));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  const uint64_t host_tx = host_conn_->tx_counters().bytes.load() - host_tx0;
  EXPECT_GE(host_tx, kValues * 4u);
  EXPECT_LE(host_tx, kValues * 4u + 256);

  proto::DynamicMessage want(values_desc);
  for (uint32_t i = 0; i < kValues; ++i) {
    want.add_uint64(values_desc->field_by_name("v"), value_at(12345, i));
  }
  want.set_uint64(values_desc->field_by_name("total"), 12345);
  EXPECT_EQ(*resp, proto::WireCodec::serialize(want));
  // Above the lane cutoff: the codec pool serialized it.
  EXPECT_EQ(proxy_->stats().offloaded_responses.load(), 1u);
  EXPECT_EQ(proxy_->stats().inline_serializes.load(), 0u);
}

// The handler builds a 16 KiB reply once per call, the first call
// included: the engine reserves the finished object's exact size, so no
// block-size guess can send the handler round again.
TEST_F(ResponseOffloadFixture, ObjectHandlerRunsOncePerCall) {
  constexpr uint32_t kValues = 4096;
  std::atomic<int> runs{0};
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Fetch",
                      [&runs](const ServerContext&, const adt::LayoutView&,
                              adt::LayoutBuilder& resp) {
                        runs.fetch_add(1);
                        for (uint32_t i = 0; i < kValues; ++i) {
                          DPURPC_RETURN_IF_ERROR(resp.add_scalar(1, i));
                        }
                        return resp.set_uint64(2, kValues);
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  for (int call = 1; call <= 3; ++call) {
    auto resp = (*chan)->call("ro.Search/Fetch", {});
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ(runs.load(), call);
  }
}

// A reply object past the 64 KiB payload limit reaches the xRPC client as
// RESOURCE_EXHAUSTED, and the next call on the same channel is served.
TEST_F(ResponseOffloadFixture, OversizeObjectReplyIsResourceExhausted) {
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Fetch",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        const uint64_t n = req.get_uint64(2);
                        for (uint32_t i = 0; i < n; ++i) {
                          DPURPC_RETURN_IF_ERROR(resp.add_scalar(1, i));
                        }
                        return resp.set_uint64(2, n);
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  const auto* values_desc = pool_.find_message("ro.Values");
  auto fetch = [&](uint32_t n) {
    proto::DynamicMessage q(query_desc);
    q.set_uint64(query_desc->field_by_name("top_k"), n);
    Bytes wire = proto::WireCodec::serialize(q);
    return (*chan)->call("ro.Search/Fetch", ByteSpan(wire));
  };

  constexpr uint32_t kOversize = 20000;  // 80 000 B of uint32
  static_assert(kOversize * 4 > rdmarpc::kMaxPayloadSize);
  auto big = fetch(kOversize);
  EXPECT_EQ(big.status().code(), Code::kResourceExhausted);

  auto small = fetch(16);
  ASSERT_TRUE(small.is_ok()) << small.status().to_string();
  proto::DynamicMessage want(values_desc);
  for (uint32_t i = 0; i < 16; ++i) want.add_uint64(values_desc->field_by_name("v"), i);
  want.set_uint64(values_desc->field_by_name("total"), 16);
  EXPECT_EQ(*small, proto::WireCodec::serialize(want));
}

TEST_F(ResponseOffloadFixture, ManyCallsStayConsistent) {
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Find",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        DPURPC_RETURN_IF_ERROR(
                            resp.set_uint64(2, req.get_uint64(2) * 2));
                        return resp.set_string(3, std::string(req.get_string(1)));
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  const auto* query_desc = pool_.find_message("ro.Query");
  const auto* results_desc = pool_.find_message("ro.Results");
  std::mt19937_64 rng(kDefaultSeed);
  for (int i = 0; i < 60; ++i) {
    std::string text = random_ascii(rng, rng() % 120);
    uint64_t k = rng() % 5000;
    proto::DynamicMessage q(query_desc);
    q.set_string(query_desc->field_by_name("text"), text);
    q.set_uint64(query_desc->field_by_name("top_k"), k);
    Bytes wire = proto::WireCodec::serialize(q);
    auto resp = (*chan)->call("ro.Search/Find", ByteSpan(wire));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(results_desc);
    ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
    EXPECT_EQ(r.get_uint64(results_desc->field_by_name("total")), k * 2);
    EXPECT_EQ(r.get_string(results_desc->field_by_name("shard")), text);
  }
}

TEST_F(ResponseOffloadFixture, HandlerErrorFallsBackToErrorResponse) {
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "ro.Search/Find",
                      [](const ServerContext&, const adt::LayoutView&,
                         adt::LayoutBuilder&) {
                        return Status(Code::kInvalidArgument, "bad query");
                      })
                  .is_ok());
  start();
  auto chan = xrpc::Channel::connect(port_);
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("ro.Search/Find", {});
  EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
}

}  // namespace
}  // namespace dpurpc::grpccompat
