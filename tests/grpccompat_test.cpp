// End-to-end offload tests: xRPC client → DPU proxy (deserialization
// offload) → RPC over RDMA → host compat layer → business logic → back.
// This is Fig. 1 of the paper as a running system.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/cpu_timer.hpp"
#include "common/endian.hpp"
#include "common/rng.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "metrics/metrics.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package kv;

message GetRequest { string key = 1; uint32 shard = 2; }
message GetResponse { string value = 1; bool found = 2; }
message PutRequest { string key = 1; string value = 2; }
message PutResponse { bool created = 1; }
message StatsRequest { repeated uint32 shard_ids = 1; }
message StatsResponse { uint64 keys = 1; double load = 2; }
// ~1 KiB in host layout per row, 2 bytes on the wire when empty: a small
// request whose decoded object outgrows any block.
message WideRow {
  string c1 = 1;   string c2 = 2;   string c3 = 3;   string c4 = 4;
  string c5 = 5;   string c6 = 6;   string c7 = 7;   string c8 = 8;
  string c9 = 9;   string c10 = 10; string c11 = 11; string c12 = 12;
  string c13 = 13; string c14 = 14; string c15 = 15; string c16 = 16;
  string c17 = 17; string c18 = 18; string c19 = 19; string c20 = 20;
  string c21 = 21; string c22 = 22; string c23 = 23; string c24 = 24;
  string c25 = 25; string c26 = 26; string c27 = 27; string c28 = 28;
  string c29 = 29; string c30 = 30;
}
message ScanRequest { uint32 limit = 1; repeated WideRow rows = 2; }

service KvStore {
  rpc Get (GetRequest) returns (GetResponse);
  rpc Put (PutRequest) returns (PutResponse);
  rpc Stats (StatsRequest) returns (StatsResponse);
  rpc Scan (ScanRequest) returns (StatsResponse);
}
)";

// Full deployment harness: host engine thread + DPU proxy + xRPC channel.
class OffloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());

    // Host builds the manifest and "ships" it to the DPU (serialize →
    // deserialize round-trip, like the real one-time transfer).
    auto built = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    host_manifest_ = std::make_unique<OffloadManifest>(std::move(*built));
    Bytes shipped = host_manifest_->serialize();
    auto received = OffloadManifest::deserialize(ByteSpan(shipped));
    ASSERT_TRUE(received.is_ok()) << received.status().to_string();
    dpu_manifest_ = std::make_unique<OffloadManifest>(std::move(*received));

    // RDMA link between DPU (client role) and host (server role).
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

  void start_host_loop() {
    host_thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        auto n = host_->event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) host_->wait(1);
      }
    });
  }

  void expect_oversized_request_rejected(std::string_view method,
                                         const Bytes& oversized);

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
};

TEST_F(OffloadFixture, ManifestMapsAllMethods) {
  EXPECT_EQ(host_manifest_->methods().size(), 4u);
  const auto* get = host_manifest_->find_by_name("kv.KvStore/Get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->input_type, "kv.GetRequest");
  EXPECT_EQ(get->output_type, "kv.GetResponse");
  EXPECT_EQ(host_manifest_->find_by_id(get->method_id), get);
  EXPECT_EQ(host_manifest_->find_by_name("kv.KvStore/Nope"), nullptr);
  // The shipped manifest agrees.
  EXPECT_EQ(dpu_manifest_->methods().size(), 4u);
  EXPECT_NE(dpu_manifest_->adt().find_class("kv.GetRequest"), UINT32_MAX);
}

TEST_F(OffloadFixture, RegisterUnknownMethodFails) {
  EXPECT_EQ(host_->register_unary("kv.KvStore/Nope", nullptr).code(), Code::kNotFound);
  EXPECT_EQ(host_->register_stream("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
  EXPECT_EQ(host_->register_unary_object("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
}

TEST_F(OffloadFixture, FullOffloadPathEndToEnd) {
  // Business logic on the host: zero deserialization — reads the request
  // through the in-place object view.
  std::map<std::string, std::string> store;
  const auto* get_resp_desc = pool_.find_message("kv.GetResponse");
  const auto* put_resp_desc = pool_.find_message("kv.PutResponse");
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Put",
                      [&store](const ServerContext&, const adt::LayoutView& req,
                               proto::DynamicMessage& resp) {
                        std::string key(req.get_string(1));
                        bool created = store.find(key) == store.end();
                        store[key] = std::string(req.get_string(2));
                        resp.set_uint64(resp.descriptor()->field_by_name("created"),
                                        created ? 1 : 0);
                        return Status::ok();
                      })
                  .is_ok());
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [&store](const ServerContext& ctx, const adt::LayoutView& req,
                               proto::DynamicMessage& resp) {
                        EXPECT_EQ(ctx.grpc_context, nullptr);  // mocked (§V.D)
                        auto it = store.find(std::string(req.get_string(1)));
                        if (it != store.end()) {
                          resp.set_string(resp.descriptor()->field_by_name("value"),
                                          it->second);
                          resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
                        }
                        return Status::ok();
                      })
                  .is_ok());
  (void)get_resp_desc;
  (void)put_resp_desc;
  start_host_loop();

  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();

  // The unmodified xRPC client dials the DPU's address (§III.A).
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  // Serialize requests the way any gRPC client would.
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  const auto* get_desc = pool_.find_message("kv.GetRequest");

  auto put = [&](const std::string& k, const std::string& v) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), k);
    m.set_string(put_desc->field_by_name("value"), v);
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Put", ByteSpan(wire));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(pool_.find_message("kv.PutResponse"));
    ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
  };
  auto get = [&](const std::string& k) -> std::pair<bool, std::string> {
    proto::DynamicMessage m(get_desc);
    m.set_string(get_desc->field_by_name("key"), k);
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire));
    EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
    EXPECT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
    return {r.get_uint64(r.descriptor()->field_by_name("found")) != 0,
            r.get_string(r.descriptor()->field_by_name("value"))};
  };

  put("alpha", "first value");
  put("beta", std::string(500, 'b'));  // beyond SSO, spills to the arena
  auto [found_a, val_a] = get("alpha");
  EXPECT_TRUE(found_a);
  EXPECT_EQ(val_a, "first value");
  auto [found_b, val_b] = get("beta");
  EXPECT_TRUE(found_b);
  EXPECT_EQ(val_b, std::string(500, 'b'));
  auto [found_c, val_c] = get("gamma");
  EXPECT_FALSE(found_c);
  EXPECT_TRUE(val_c.empty());

  EXPECT_EQ(proxy_->stats().offloaded_requests.load(), 5u);
  EXPECT_EQ(proxy_->stats().responses_forwarded.load(), 5u);
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 0u);
}

TEST_F(OffloadFixture, ObjectResponsePathServedByThePlanSerializer) {
  // register_unary_object: the handler builds the response *object* with
  // a LayoutBuilder and the DPU serializes it through the compiled plan.
  // An unmodified client must see byte-compatible responses.
  std::map<std::string, std::string> store;
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "kv.KvStore/Get",
                      [&store](const ServerContext& ctx, const adt::LayoutView& req,
                               adt::LayoutBuilder& resp) {
                        EXPECT_EQ(ctx.grpc_context, nullptr);
                        auto it = store.find(std::string(req.get_string(1)));
                        if (it == store.end()) return Status::ok();  // empty resp
                        DPURPC_RETURN_IF_ERROR(resp.set_string(1, it->second));
                        return resp.set_bool(2, true);
                      })
                  .is_ok());
  // Unknown method still rejected through this registration flavor.
  EXPECT_EQ(host_->register_unary_object("kv.KvStore/Nope", nullptr).code(),
            Code::kNotFound);
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  store["alpha"] = "plan-served value";
  store["big"] = std::string(2000, 'z');  // spills past SSO into the arena

  const auto* get_desc = pool_.find_message("kv.GetRequest");
  auto get = [&](const std::string& k) -> std::pair<bool, std::string> {
    proto::DynamicMessage m(get_desc);
    m.set_string(get_desc->field_by_name("key"), k);
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire));
    EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
    proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
    EXPECT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
    return {r.get_uint64(r.descriptor()->field_by_name("found")) != 0,
            r.get_string(r.descriptor()->field_by_name("value"))};
  };

  auto [found_a, val_a] = get("alpha");
  EXPECT_TRUE(found_a);
  EXPECT_EQ(val_a, "plan-served value");
  auto [found_b, val_b] = get("big");
  EXPECT_TRUE(found_b);
  EXPECT_EQ(val_b, std::string(2000, 'z'));
  auto [found_c, val_c] = get("missing");  // handler returns an empty object
  EXPECT_FALSE(found_c);
  EXPECT_TRUE(val_c.empty());
  EXPECT_EQ(host_->requests_served(), 3u);
}

TEST_F(OffloadFixture, RepeatedFieldsThroughTheFullPath) {
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Stats",
                      [](const ServerContext&, const adt::LayoutView& req,
                         proto::DynamicMessage& resp) {
                        uint64_t sum = 0;
                        for (uint32_t i = 0; i < req.repeated_size(1); ++i) {
                          sum += req.repeated_uint64(1, i);
                        }
                        resp.set_uint64(resp.descriptor()->field_by_name("keys"), sum);
                        resp.set_double(resp.descriptor()->field_by_name("load"),
                                        static_cast<double>(req.repeated_size(1)));
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* desc = pool_.find_message("kv.StatsRequest");
  proto::DynamicMessage m(desc);
  uint64_t expect = 0;
  std::mt19937_64 rng(kDefaultSeed);
  SkewedVarintDistribution dist;
  for (int i = 0; i < 512; ++i) {
    uint32_t v = dist(rng);
    expect += v;
    m.add_uint64(desc->field_by_name("shard_ids"), v);
  }
  Bytes wire = proto::WireCodec::serialize(m);
  auto resp = (*chan)->call("kv.KvStore/Stats", ByteSpan(wire));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  proto::DynamicMessage r(pool_.find_message("kv.StatsResponse"));
  ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
  EXPECT_EQ(r.get_uint64(r.descriptor()->field_by_name("keys")), expect);
  EXPECT_DOUBLE_EQ(r.get_double(r.descriptor()->field_by_name("load")), 512.0);
}

TEST_F(OffloadFixture, MalformedPayloadRejectedAtTheDpu) {
  // The DPU (not the host) pays for and rejects malformed requests.
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  Bytes garbage = to_bytes("\x0a\xff\xff\xff\xff not a protobuf");
  auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(garbage));
  EXPECT_FALSE(resp.is_ok());
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 1u);
  EXPECT_EQ(host_->requests_served(), 0u);  // the host never saw it
}

// A request whose decoded object cannot fit even a maximum-size block is
// answered OUT_OF_RANGE on its own call; the lane keeps serving the next
// call on the same channel, and the host never sees the bad request.
void OffloadFixture::expect_oversized_request_rejected(std::string_view method,
                                                       const Bytes& oversized) {
  ASSERT_TRUE(host_
                  ->register_unary("kv.KvStore/Stats",
                                   [](const ServerContext&, const adt::LayoutView& req,
                                      proto::DynamicMessage& resp) {
                                     resp.set_uint64(
                                         resp.descriptor()->field_by_name("keys"),
                                         req.repeated_size(1));
                                     return Status::ok();
                                   })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  auto bad = (*chan)->call(method, ByteSpan(oversized), /*timeout_ms=*/1000);
  EXPECT_EQ(bad.status().code(), Code::kOutOfRange) << bad.status().to_string();
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 1u);

  Bytes small = to_bytes("\x08\x07");  // StatsRequest{shard_ids: [7]}
  auto good = (*chan)->call("kv.KvStore/Stats", ByteSpan(small), 1000);
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(host_->requests_served(), 1u);  // only the good call
}

TEST_F(OffloadFixture, OversizedPoolDecodeRejectedWithoutWedgingTheLane) {
  // 20 000 one-byte shard ids: 20 004 wire bytes (past the inline cutoff,
  // so the pool decodes it) and 80 000 decoded bytes (> kMaxPayloadSize).
  Bytes wire = to_bytes("\x0a\xa0\x9c\x01");  // field 1, packed, 20 000 B
  wire.insert(wire.end(), 20000, std::byte{1});
  ASSERT_GT(wire.size(), kInlineCodecMaxBytes);
  expect_oversized_request_rejected("kv.KvStore/Stats", wire);
}

TEST_F(OffloadFixture, OversizedLaneDecodeRejectedWithoutWedgingTheLane) {
  // 500 empty WideRows: 1 000 wire bytes (decoded on the lane thread)
  // that inflate to ~500 KB of host-layout objects.
  Bytes wire;
  for (int i = 0; i < 500; ++i) {
    wire.push_back(std::byte{0x12});
    wire.push_back(std::byte{0x00});
  }
  ASSERT_LE(wire.size(), kInlineCodecMaxBytes);
  expect_oversized_request_rejected("kv.KvStore/Scan", wire);
}

TEST_F(OffloadFixture, UnknownXrpcMethodRejectedAtTheDpu) {
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("kv.KvStore/DoesNotExist", {});
  EXPECT_EQ(resp.status().code(), Code::kNotFound);  // rejected by the proxy
  EXPECT_EQ(host_->requests_served(), 0u);
}

TEST_F(OffloadFixture, ConcurrentXrpcClientsThroughOneProxy) {
  // The DPU multiplexes many xRPC connections onto one host link (§III.A).
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [](const ServerContext&, const adt::LayoutView& req,
                         proto::DynamicMessage& resp) {
                        resp.set_string(resp.descriptor()->field_by_name("value"),
                                        std::string(req.get_string(1)) + "!");
                        resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());

  constexpr int kClients = 3, kCallsEach = 30;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      const auto* desc = pool_.find_message("kv.GetRequest");
      for (int i = 0; i < kCallsEach; ++i) {
        proto::DynamicMessage m(desc);
        std::string key = "k" + std::to_string(c) + "-" + std::to_string(i);
        m.set_string(desc->field_by_name("key"), key);
        Bytes wire = proto::WireCodec::serialize(m);
        auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire));
        ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
        proto::DynamicMessage r(pool_.find_message("kv.GetResponse"));
        ASSERT_TRUE(proto::WireCodec::parse(ByteSpan(*resp), r).is_ok());
        EXPECT_EQ(r.get_string(r.descriptor()->field_by_name("value")), key + "!");
        ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kCallsEach);
  EXPECT_EQ(host_->requests_served(), static_cast<uint64_t>(kClients * kCallsEach));
}

// ------------------------------------------------------------- streaming

uint64_t fnv1a(ByteSpan data) {
  uint64_t h = 1469598103934665603ull;
  for (std::byte b : data) {
    h ^= static_cast<uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

TEST_F(OffloadFixture, StreamedBulkTransferEndToEnd) {
  // The tentpole path: a multi-MB stream of kv.PutRequest records chunked
  // by the client, cut at record boundaries and chunk-decoded on the DPU
  // pool under a bounded per-stream budget, forwarded to the host as
  // (possibly fragmented) unary RPCs, and answered with a digest of the
  // reassembled bytes. Bit-for-bit parity: the host must accumulate
  // exactly the WireCodec oracle's concatenation.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  Bytes finished_stream;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t stream_id,
                          ByteSpan chunk, bool end, Bytes& final_response) {
                        std::lock_guard<std::mutex> lk(mu);
                        Bytes& acc = accumulated[stream_id];
                        if (end) {
                          final_response.resize(8);
                          store_le(final_response.data(), fnv1a(ByteSpan(acc)));
                          finished_stream = std::move(acc);
                          accumulated.erase(stream_id);
                          return Status::ok();
                        }
                        acc.insert(acc.end(), chunk.begin(), chunk.end());
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();

  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  StreamOptions sopts;
  sopts.per_stream_budget = 256 * 1024;  // force backpressure on a 1.5 MB stream
  sopts.piece_target = 64 * 1024;        // pieces fragment on the RDMA hop too
  proxy_->set_stream_options(sopts);
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  // The oracle: WireCodec-serialized records, concatenated.
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  std::mt19937_64 rng(kDefaultSeed);
  Bytes oracle;
  int n_records = 0;
  while (oracle.size() < 1536u * 1024) {  // ~1.5 MB, 6x the budget
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"),
                 "key-" + std::to_string(n_records));
    m.set_string(put_desc->field_by_name("value"),
                 random_ascii(rng, 200 + rng() % 1200));
    Bytes wire = proto::WireCodec::serialize(m);
    oracle.insert(oracle.end(), wire.begin(), wire.end());
    ++n_records;
  }
  ASSERT_GT(oracle.size(), sopts.per_stream_budget);

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok()) << stream.status().to_string();
  constexpr size_t kWrite = 32 * 1024;  // deliberately not record-aligned
  for (size_t off = 0; off < oracle.size(); off += kWrite) {
    size_t n = std::min(kWrite, oracle.size() - off);
    ASSERT_TRUE((*stream)->write(ByteSpan(oracle.data() + off, n)).is_ok());
  }
  auto resp = (*stream)->finish(60000);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  ASSERT_EQ(resp->size(), 8u);
  EXPECT_EQ(load_le<uint64_t>(resp->data()), fnv1a(ByteSpan(oracle)));

  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(finished_stream.size(), oracle.size());
    EXPECT_TRUE(std::equal(finished_stream.begin(), finished_stream.end(),
                           oracle.begin()));
    EXPECT_TRUE(accumulated.empty());
  }

  // Bounded memory: the proxy never held more than the configured budget.
  EXPECT_GT(proxy_->stats().stream_chunks.load(), 0u);
  EXPECT_EQ(proxy_->stats().stream_bytes.load(), oracle.size());
  EXPECT_LE(proxy_->stats().stream_peak_bytes.load(), sopts.per_stream_budget);
  EXPECT_EQ(proxy_->stats().stream_aborts.load(), 0u);
  EXPECT_EQ(proxy_->stats().deserialize_failures.load(), 0u);
  // Backpressure engaged at the xRPC edge: the 1.5 MB stream had to wait
  // for the 256 KiB window at least once.
  EXPECT_GE((*stream)->credit_stalls(), 1u);
}

TEST_F(OffloadFixture, StreamMalformedRecordAbortsAtTheDpu) {
  bool host_saw_stream = false;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t, ByteSpan, bool,
                          Bytes&) {
                        host_saw_stream = true;
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok());
  // Field number 0 is never a valid tag: the record-boundary scan must
  // refuse it at the DPU without forwarding anything to the host.
  Bytes junk = {std::byte{0x00}, std::byte{0x01}, std::byte{0x02}};
  ASSERT_TRUE((*stream)->write(ByteSpan(junk)).is_ok());
  auto resp = (*stream)->finish();
  EXPECT_FALSE(resp.is_ok());
  EXPECT_FALSE(host_saw_stream);
  EXPECT_GE(proxy_->stats().stream_aborts.load(), 1u);
}

TEST_F(OffloadFixture, StreamAbortMidTransferDrainsCleanly) {
  // Client abort mid-stream: the proxy must drop every buffered piece and
  // retire its in-pool decodes without leaking a slice (ASan-checked when
  // the tier runs sanitized), and the datapath must stay healthy for the
  // next call — including a full second stream over the same lane.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  Bytes finished_stream;
  ASSERT_TRUE(host_
                  ->register_stream(
                      "kv.KvStore/Put",
                      [&](const ServerContext&, uint32_t stream_id,
                          ByteSpan chunk, bool end, Bytes& final_response) {
                        std::lock_guard<std::mutex> lk(mu);
                        Bytes& acc = accumulated[stream_id];
                        if (end) {
                          final_response.resize(8);
                          store_le(final_response.data(), fnv1a(ByteSpan(acc)));
                          finished_stream = std::move(acc);
                          accumulated.erase(stream_id);
                          return Status::ok();
                        }
                        acc.insert(acc.end(), chunk.begin(), chunk.end());
                        return Status::ok();
                      })
                  .is_ok());
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [](const ServerContext&, const adt::LayoutView&,
                         proto::DynamicMessage& resp) {
                        resp.set_uint64(resp.descriptor()->field_by_name("found"),
                                        0);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  StreamOptions sopts;
  sopts.per_stream_budget = 256 * 1024;
  sopts.piece_target = 32 * 1024;
  proxy_->set_stream_options(sopts);
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  const auto* put_desc = pool_.find_message("kv.PutRequest");
  std::mt19937_64 rng(kDefaultSeed);
  Bytes records;
  for (int i = 0; i < 400; ++i) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), "k" + std::to_string(i));
    m.set_string(put_desc->field_by_name("value"), random_ascii(rng, 700));
    Bytes wire = proto::WireCodec::serialize(m);
    records.insert(records.end(), wire.begin(), wire.end());
  }

  auto stream = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream.is_ok());
  // Push enough that pieces are in the pool and on the RDMA hop, then pull
  // the plug mid-transfer.
  size_t sent = 0;
  for (; sent < records.size() / 2; sent += 16 * 1024) {
    size_t n = std::min<size_t>(16 * 1024, records.size() - sent);
    ASSERT_TRUE((*stream)->write(ByteSpan(records.data() + sent, n)).is_ok());
  }
  (*stream)->abort(Code::kAborted);

  // The abort races the in-flight pieces; give the proxy a moment to drain.
  for (int i = 0; i < 200 && proxy_->stats().stream_aborts.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(proxy_->stats().stream_aborts.load(), 1u);

  // Datapath still healthy: a unary call and a complete second stream.
  const auto* get_desc = pool_.find_message("kv.GetRequest");
  proto::DynamicMessage g(get_desc);
  g.set_string(get_desc->field_by_name("key"), "after-abort");
  Bytes gw = proto::WireCodec::serialize(g);
  auto unary = (*chan)->call("kv.KvStore/Get", ByteSpan(gw));
  EXPECT_TRUE(unary.is_ok()) << unary.status().to_string();

  auto stream2 = (*chan)->open_stream("kv.KvStore/Put");
  ASSERT_TRUE(stream2.is_ok());
  for (size_t off = 0; off < records.size(); off += 16 * 1024) {
    size_t n = std::min<size_t>(16 * 1024, records.size() - off);
    ASSERT_TRUE((*stream2)->write(ByteSpan(records.data() + off, n)).is_ok());
  }
  auto resp2 = (*stream2)->finish(60000);
  ASSERT_TRUE(resp2.is_ok()) << resp2.status().to_string();
  EXPECT_EQ(load_le<uint64_t>(resp2->data()), fnv1a(ByteSpan(records)));
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(finished_stream.size(), records.size());
  }
}

// ------------------------------------------------- host reply trust boundary

TEST_F(OffloadFixture, ReplyObjectWithOutOfRangeClassIsRejectedNotFatal) {
  // A raw in-place handler answers with an object whose ADT class index
  // (999) is not in the shipped manifest: 4096 B (codec-pool path) and
  // 64 B (lane path). Each call gets kDataLoss, the next call on the
  // channel is served, and the proxy keeps running.
  const MethodEntry* get = dpu_manifest_->find_by_name("kv.KvStore/Get");
  ASSERT_NE(get, nullptr);
  std::atomic<uint32_t> reply_bytes{4096};
  host_->rpc_server().register_inplace_handler(
      get->method_id,
      [&](const rdmarpc::RequestView&,
          rdmarpc::RpcServer::Reserve& reserve) -> StatusOr<uint16_t> {
        const uint32_t size = reply_bytes.load();
        DPURPC_ASSIGN_OR_RETURN(auto space, reserve(size));
        std::memset(space.data, 0, size);
        return uint16_t{999};
      });
  ASSERT_TRUE(host_
                  ->register_unary("kv.KvStore/Stats",
                                   [](const ServerContext&, const adt::LayoutView& req,
                                      proto::DynamicMessage& resp) {
                                     resp.set_uint64(
                                         resp.descriptor()->field_by_name("keys"),
                                         req.repeated_size(1));
                                     return Status::ok();
                                   })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  Bytes key = to_bytes("\x0a\x01k");  // GetRequest{key: "k"}
  Bytes small = to_bytes("\x08\x07");  // StatsRequest{shard_ids: [7]}
  static_assert(4096 > kInlineCodecMaxBytes && 64 <= kInlineCodecMaxBytes);
  for (uint32_t size : {4096u, 64u}) {
    reply_bytes = size;
    auto bad = (*chan)->call("kv.KvStore/Get", ByteSpan(key), 2000);
    EXPECT_EQ(bad.status().code(), Code::kDataLoss)
        << size << " B: " << bad.status().to_string();
    auto good = (*chan)->call("kv.KvStore/Stats", ByteSpan(small), 2000);
    ASSERT_TRUE(good.is_ok()) << size << " B: " << good.status().to_string();
  }
  EXPECT_EQ(host_->requests_served(), 4u);
  EXPECT_EQ(proxy_->stats().offloaded_responses.load(), 0u);
}

// ---------------------------------------------------------- reply coalescing

Status register_get_echo(HostEngine& host) {
  return host.register_unary(
      "kv.KvStore/Get", [](const ServerContext&, const adt::LayoutView& req,
                           proto::DynamicMessage& resp) {
        resp.set_string(resp.descriptor()->field_by_name("value"),
                        std::string(req.get_string(1)) + "!");
        resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
        return Status::ok();
      });
}

Bytes get_request(const proto::DescriptorPool& pool, const std::string& key) {
  const auto* desc = pool.find_message("kv.GetRequest");
  proto::DynamicMessage m(desc);
  m.set_string(desc->field_by_name("key"), key);
  return proto::WireCodec::serialize(m);
}

std::string get_value(const proto::DescriptorPool& pool, ByteSpan reply) {
  proto::DynamicMessage r(pool.find_message("kv.GetResponse"));
  EXPECT_TRUE(proto::WireCodec::parse(reply, r).is_ok());
  return r.get_string(r.descriptor()->field_by_name("value"));
}

/// Waits for `n` async completions counted by `done()`.
class Countdown {
 public:
  explicit Countdown(int n) : left_(n) {}
  void done() {
    std::lock_guard<std::mutex> lk(mu_);
    if (--left_ == 0) cv_.notify_all();
  }
  bool wait(int timeout_ms) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                        [&] { return left_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int left_;
};

TEST_F(OffloadFixture, PipelinedRepliesReachTheirOwnChannels) {
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  constexpr int kChannels = 2, kCallsEach = 64;
  std::vector<std::unique_ptr<xrpc::Channel>> chans;
  for (int c = 0; c < kChannels; ++c) {
    auto chan = xrpc::Channel::connect(*port);
    ASSERT_TRUE(chan.is_ok());
    chans.push_back(std::move(*chan));
  }
  // Both channels keep all their calls in flight at once, so the lane
  // finishes replies for both connections in the same turns.
  Countdown all(kChannels * kCallsEach);
  std::atomic<int> right{0};
  for (int i = 0; i < kCallsEach; ++i) {
    for (int c = 0; c < kChannels; ++c) {
      std::string key = "c" + std::to_string(c) + "-" + std::to_string(i);
      Bytes wire = get_request(pool_, key);
      ASSERT_TRUE(chans[c]
                      ->call_async("kv.KvStore/Get", ByteSpan(wire),
                                   [&, key](Code code, Bytes payload) {
                                     if (code == Code::kOk &&
                                         get_value(pool_, ByteSpan(payload)) ==
                                             key + "!") {
                                       ++right;
                                     }
                                     all.done();
                                   })
                      .is_ok());
    }
  }
  ASSERT_TRUE(all.wait(10000));
  EXPECT_EQ(right.load(), kChannels * kCallsEach);
}

TEST_F(OffloadFixture, PipelinedCallsShareReplyWrites) {
  // The host holds its first call until the client has issued all 64, so
  // the rest queue up and come back in shared response blocks; the lane
  // then finishes several replies per turn and writes them together.
  std::atomic<bool> all_sent{false};
  std::atomic<bool> first{true};
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Get",
                      [&](const ServerContext&, const adt::LayoutView& req,
                          proto::DynamicMessage& resp) {
                        if (first.exchange(false)) {
                          for (int i = 0; i < 2000 && !all_sent.load(); ++i) {
                            std::this_thread::sleep_for(std::chrono::milliseconds(1));
                          }
                        }
                        resp.set_string(resp.descriptor()->field_by_name("value"),
                                        std::string(req.get_string(1)) + "!");
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  constexpr int kCalls = 64;
  Countdown all(kCalls);
  std::atomic<int> right{0};
  for (int i = 0; i < kCalls; ++i) {
    std::string key = "t" + std::to_string(i);
    Bytes wire = get_request(pool_, key);
    ASSERT_TRUE((*chan)
                    ->call_async("kv.KvStore/Get", ByteSpan(wire),
                                 [&, key](Code code, Bytes payload) {
                                   if (code == Code::kOk &&
                                       get_value(pool_, ByteSpan(payload)) == key + "!") {
                                     ++right;
                                   }
                                   all.done();
                                 })
                    .is_ok());
  }
  all_sent = true;
  ASSERT_TRUE(all.wait(10000));
  EXPECT_EQ(right.load(), kCalls);
  proxy_->stop();  // joins the lane: the counters are final
  const uint64_t replies = proxy_->stats().responses_forwarded.load();
  const uint64_t writes = proxy_->stats().reply_writes.load();
  EXPECT_EQ(replies, static_cast<uint64_t>(kCalls));
  EXPECT_GE(writes, 1u);
  EXPECT_LT(writes, replies) << "no two replies shared a write";
}

TEST_F(OffloadFixture, SerialCallsAreNeverHeldBack) {
  // One call in flight at a time: every reply is written in the turn that
  // finished it, alone — coalescing never delays a lone reply.
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  metrics::Counter& total = metrics::default_counter("dpurpc_xrpc_reply_writes_total", "");
  const uint64_t total_before = total.value();
  constexpr int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    std::string key = "s" + std::to_string(i);
    Bytes wire = get_request(pool_, key);
    auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire), 2000);
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ(get_value(pool_, ByteSpan(*resp)), key + "!");
  }
  proxy_->stop();
  EXPECT_EQ(proxy_->stats().reply_writes.load(), static_cast<uint64_t>(kCalls));
  // The registry mirror moves with it (other proxies in this process may
  // add to the process-wide counter, never subtract).
  EXPECT_GE(total.value() - total_before, static_cast<uint64_t>(kCalls));
}

TEST_F(OffloadFixture, StopWithRepliesInFlightAnswersEachCallExactlyOnce) {
  // stop() races a pipelined burst: some replies are delivered, some are
  // still batched or in flight when the sockets close. Every call must be
  // answered exactly once — its reply, or kUnavailable — and nothing else.
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  constexpr int kCalls = 200;
  std::vector<std::atomic<int>> answers(kCalls);
  std::atomic<int> ok{0}, unavailable{0}, other{0};
  Bytes wire = get_request(pool_, "burst");
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE((*chan)
                    ->call_async("kv.KvStore/Get", ByteSpan(wire),
                                 [&, i](Code code, Bytes) {
                                   ++answers[i];
                                   if (code == Code::kOk) {
                                     ++ok;
                                   } else if (code == Code::kUnavailable) {
                                     ++unavailable;
                                   } else {
                                     ++other;
                                   }
                                 })
                    .is_ok());
  }
  proxy_->stop();
  (*chan)->close();  // fails every call whose reply never arrived
  for (int i = 0; i < kCalls; ++i) EXPECT_EQ(answers[i].load(), 1) << "call " << i;
  EXPECT_EQ(ok.load() + unavailable.load(), kCalls);
  EXPECT_EQ(other.load(), 0);
}

// ------------------------------------------------ run-to-completion lanes

/// Host stream handler for kv.KvStore/Put: answers each stream with the
/// FNV-1a digest of every byte it received.
Status register_put_digest(HostEngine& host, std::mutex& mu,
                           std::map<uint32_t, Bytes>& accumulated) {
  return host.register_stream(
      "kv.KvStore/Put", [&](const ServerContext&, uint32_t stream_id, ByteSpan chunk,
                            bool end, Bytes& final_response) {
        std::lock_guard<std::mutex> lk(mu);
        Bytes& acc = accumulated[stream_id];
        if (end) {
          final_response.resize(8);
          store_le(final_response.data(), fnv1a(ByteSpan(acc)));
          accumulated.erase(stream_id);
          return Status::ok();
        }
        acc.insert(acc.end(), chunk.begin(), chunk.end());
        return Status::ok();
      });
}

/// Concatenated kv.PutRequest records, at least `bytes` long.
Bytes put_records(const proto::DescriptorPool& pool, size_t bytes, uint64_t seed) {
  const auto* desc = pool.find_message("kv.PutRequest");
  std::mt19937_64 rng(seed);
  Bytes out;
  for (int i = 0; out.size() < bytes; ++i) {
    proto::DynamicMessage m(desc);
    m.set_string(desc->field_by_name("key"), "k" + std::to_string(i));
    m.set_string(desc->field_by_name("value"), random_ascii(rng, 300 + rng() % 700));
    Bytes wire = proto::WireCodec::serialize(m);
    out.insert(out.end(), wire.begin(), wire.end());
  }
  return out;
}

TEST_F(OffloadFixture, OneLaneServesEightConnectionsWithInterleavedUnaryAndStreams) {
  // One lane owns all eight connections and reads them in turn. Each
  // client interleaves unary calls with streams; one closes its socket in
  // the middle of a stream, which the lane must see as that stream's
  // abort while the other seven carry on.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  ASSERT_TRUE(register_put_digest(*host_, mu, accumulated).is_ok());
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  StreamOptions sopts;
  sopts.per_stream_budget = 128 * 1024;
  sopts.piece_target = 16 * 1024;
  proxy_->set_stream_options(sopts);
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  ASSERT_EQ(proxy_->lane_count(), 1u);

  constexpr int kConns = 8, kRounds = 3, kCallsPerRound = 5, kQuitter = 5;
  const Bytes records = put_records(pool_, 200 * 1024, kDefaultSeed);
  const uint64_t digest = fnv1a(ByteSpan(records));
  std::atomic<int> unary_ok{0}, streams_ok{0}, failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      if (!chan.is_ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kCallsPerRound; ++i) {
          const std::string key = std::to_string(c) + "/" + std::to_string(round) +
                                  "/" + std::to_string(i);
          Bytes wire = get_request(pool_, key);
          auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire), 5000);
          if (resp.is_ok() && get_value(pool_, ByteSpan(*resp)) == key + "!") {
            ++unary_ok;
          } else {
            ++failures;
          }
        }
        auto stream = (*chan)->open_stream("kv.KvStore/Put");
        if (!stream.is_ok()) {
          ++failures;
          return;
        }
        const bool quit = c == kQuitter && round == 1;
        const size_t stop_at = quit ? records.size() / 2 : records.size();
        for (size_t off = 0; off < stop_at; off += 8 * 1024) {
          const size_t n = std::min<size_t>(8 * 1024, stop_at - off);
          if (!(*stream)->write(ByteSpan(records.data() + off, n)).is_ok()) ++failures;
        }
        if (quit) {
          // Close the socket with the stream open: no abort frame, the
          // lane only sees the connection end.
          (*chan)->close();
          return;
        }
        auto resp = (*stream)->finish(30000);
        if (resp.is_ok() && resp->size() == 8 && load_le<uint64_t>(resp->data()) == digest) {
          ++streams_ok;
        } else {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(unary_ok.load(), kConns * kRounds * kCallsPerRound - kCallsPerRound);
  EXPECT_EQ(streams_ok.load(), kConns * kRounds - 2);
  // The closed connection's stream was aborted, and every byte any
  // stream held inside the proxy was released.
  for (int i = 0; i < 400 && (proxy_->stats().stream_aborts.load() == 0 ||
                              proxy_->stats().stream_held_bytes.load() != 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(proxy_->stats().stream_aborts.load(), 1u);
  EXPECT_EQ(proxy_->stats().stream_held_bytes.load(), 0u);
  EXPECT_LE(proxy_->stats().stream_peak_bytes.load(), sopts.per_stream_budget);
}

TEST_F(OffloadFixture, TricklingOversizedChunkDoesNotDelayAnotherConnection) {
  // A stream chunk larger than the reader's buffer arrives a piece at a
  // time on one connection. The lane gathers it across turns and keeps
  // serving unary calls from another connection in between; a lane that
  // blocked on the half-received frame would time those calls out.
  std::mutex mu;
  std::map<uint32_t, Bytes> accumulated;
  ASSERT_TRUE(register_put_digest(*host_, mu, accumulated).is_ok());
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());

  const Bytes records = put_records(pool_, 4 * xrpc::FrameReader::kBufferBytes,
                                    kDefaultSeed);
  ASSERT_LT(records.size(), proxy_->stream_options().per_stream_budget);
  auto raw = xrpc::dial(*port);
  ASSERT_TRUE(raw.is_ok());
  constexpr uint32_t kCall = 1;
  ASSERT_TRUE(xrpc::write_stream_open(*raw, kCall, "kv.KvStore/Put").is_ok());
  // One kStreamChunk frame, encoded from the documented layout.
  Bytes frame(9);
  store_le<uint32_t>(frame.data(), static_cast<uint32_t>(5 + records.size()));
  frame[4] = static_cast<std::byte>(xrpc::FrameType::kStreamChunk);
  store_le<uint32_t>(frame.data() + 5, kCall);
  frame.insert(frame.end(), records.begin(), records.end());

  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  const size_t kPieces = 8;
  const size_t piece = frame.size() / kPieces + 1;
  uint64_t worst_ns = 0;
  for (size_t off = 0, i = 0; off < frame.size(); off += piece, ++i) {
    const size_t n = std::min(piece, frame.size() - off);
    ASSERT_TRUE(xrpc::write_all(*raw, frame.data() + off, n).is_ok());
    // While the chunk is incomplete, the other connection is served.
    const std::string key = "between-" + std::to_string(i);
    Bytes wire = get_request(pool_, key);
    const uint64_t t0 = WallTimer::now();
    auto resp = (*chan)->call("kv.KvStore/Get", ByteSpan(wire), 2000);
    worst_ns = std::max(worst_ns, WallTimer::now() - t0);
    ASSERT_TRUE(resp.is_ok()) << "piece " << i << ": " << resp.status().to_string();
    EXPECT_EQ(get_value(pool_, ByteSpan(*resp)), key + "!");
  }
  EXPECT_LT(worst_ns, 1'000'000'000u);
  ASSERT_TRUE(xrpc::write_stream_end(*raw, kCall).is_ok());
  xrpc::FrameReader reader(*raw);
  for (;;) {
    auto f = reader.next();
    ASSERT_TRUE(f.is_ok()) << f.status().to_string();
    if (f->type != xrpc::FrameType::kResponse) continue;  // credit grants
    ASSERT_EQ(f->response.call_id, kCall);
    ASSERT_EQ(f->response.status, Code::kOk);
    ASSERT_EQ(f->response.payload.size(), 8u);
    EXPECT_EQ(load_le<uint64_t>(f->response.payload.data()), fnv1a(ByteSpan(records)));
    break;
  }
  EXPECT_EQ(proxy_->stats().stream_bytes.load(), records.size());
}

TEST_F(OffloadFixture, StopOnAnIdleLaneReturnsPromptly) {
  // An idle lane sleeps in poll() with no timeout; stop() must wake it
  // through its completion channel, not wait for a timer.
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  Bytes wire = get_request(pool_, "idle");
  ASSERT_TRUE((*chan)->call("kv.KvStore/Get", ByteSpan(wire), 2000).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // lane idles
  const uint64_t t0 = WallTimer::now();
  proxy_->stop();
  EXPECT_LT(WallTimer::now() - t0, 100'000'000u);
  // The lane closed its socket: nothing answers any more.
  EXPECT_FALSE((*chan)->call("kv.KvStore/Get", ByteSpan(wire), 200).is_ok());
}

TEST_F(OffloadFixture, CallAfterStopFailsAtOnceNotAtItsTimeout) {
  // stop() closes the lane's sockets; the channel's reader sees EOF and
  // from then on refuses calls, so a sync call with a 5 s timeout fails
  // at once rather than waiting the timeout out.
  ASSERT_TRUE(register_get_echo(*host_).is_ok());
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  Bytes wire = get_request(pool_, "bye");
  ASSERT_TRUE((*chan)->call("kv.KvStore/Get", ByteSpan(wire), 2000).is_ok());
  proxy_->stop();
  const uint64_t t0 = WallTimer::now();
  auto late = (*chan)->call("kv.KvStore/Get", ByteSpan(wire), 5000);
  EXPECT_LT(WallTimer::now() - t0, 100'000'000u);
  ASSERT_FALSE(late.is_ok());
  EXPECT_EQ(late.status().code(), Code::kUnavailable);
}

TEST_F(OffloadFixture, MetricsScrapeIsAnsweredThroughTheProxyPort) {
  start_host_loop();
  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), dpu_manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok());
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());
  auto text = (*chan)->call(std::string(xrpc::kMetricsMethod), {}, 2000);
  ASSERT_TRUE(text.is_ok()) << text.status().to_string();
  EXPECT_NE(as_string_view(ByteSpan(*text)).find("dpurpc_xrpc_reply_writes_total"),
            std::string_view::npos);
  EXPECT_EQ(host_->requests_served(), 0u);  // answered on the DPU
}

}  // namespace
}  // namespace dpurpc::grpccompat
