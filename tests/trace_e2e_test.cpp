// End-to-end trace propagation over the full offload datapath: xRPC
// client → DPU proxy (pool or lane-thread codec) → RPC over RDMA → host →
// back. Every datapath stage must record exactly one span into the
// request's tree.
#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <map>
#include <span>
#include <thread>

#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "proto/schema_parser.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package kv;

message PutRequest { string key = 1; string value = 2; }
message PutResponse { bool created = 1; string echo = 2; }

service KvStore {
  rpc Put (PutRequest) returns (PutResponse);
}
)";

class TraceE2eFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    auto built = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    manifest_ = std::make_unique<OffloadManifest>(std::move(*built));

    dpu_pd_ = std::make_unique<simverbs::ProtectionDomain>("dpu");
    host_pd_ = std::make_unique<simverbs::ProtectionDomain>("host");
    dpu_conn_ = std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kClient, dpu_pd_.get(), rdmarpc::ConnectionConfig{});
    host_conn_ = std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kServer, host_pd_.get(), rdmarpc::ConnectionConfig{});
    ASSERT_TRUE(rdmarpc::Connection::connect(*dpu_conn_, *host_conn_).is_ok());
    host_ = std::make_unique<HostEngine>(host_conn_.get(), manifest_.get(),
                                         &pool_);
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

  void TearDown() override {
    chan_.reset();
    if (proxy_) proxy_->stop();
    stop_.store(true);
    host_conn_->interrupt();
    if (host_thread_.joinable()) host_thread_.join();
    trace::Tracer::instance().configure(trace::TraceConfig{});
  }

  /// Trace every request, after draining whatever an earlier test left
  /// in the rings.
  static void enable_full_tracing() {
    std::vector<trace::SpanRecord> junk;
    trace::Tracer::instance().drain_into(junk);
    trace::TraceConfig config;
    config.mode = trace::Mode::kFull;
    trace::Tracer::instance().configure(config);
  }

  /// Collector options that retain every tree (we inspect them all) and
  /// never age one out mid-test.
  static trace::TraceCollector::Options keep_every_tree(metrics::Registry* reg) {
    trace::TraceCollector::Options options;
    options.registry = reg;
    options.tail_keep_every = 1;
    options.orphan_max_age = 10000;
    return options;
  }

  void start_proxy() {
    proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), manifest_.get());
    auto port = proxy_->start();
    ASSERT_TRUE(port.is_ok()) << port.status().to_string();
    auto chan = xrpc::Channel::connect(*port);
    ASSERT_TRUE(chan.is_ok());
    chan_ = std::move(*chan);
  }

  /// A Put request whose value is `value_bytes` long.
  Bytes put_wire(int i, size_t value_bytes) const {
    const auto* put_desc = pool_.find_message("kv.PutRequest");
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), "k" + std::to_string(i));
    m.set_string(put_desc->field_by_name("value"),
                 "v" + std::string(value_bytes - 1, 'v'));
    return proto::WireCodec::serialize(m);
  }

  void run_puts(int calls, size_t value_bytes) {
    for (int i = 0; i < calls; ++i) {
      Bytes wire = put_wire(i, value_bytes);
      auto resp = chan_->call("kv.KvStore/Put", ByteSpan(wire));
      ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    }
  }

  /// The root span lands on the channel reader thread *after* the
  /// callback that completed the sync call, so keep collecting until all
  /// trees close.
  static void await_trees(trace::TraceCollector& collector, int calls) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (collector.traces_completed() < static_cast<uint64_t>(calls) &&
           std::chrono::steady_clock::now() < deadline) {
      collector.collect();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(collector.traces_completed(), static_cast<uint64_t>(calls));
    ASSERT_EQ(collector.retained().size(), static_cast<size_t>(calls));
  }

  /// Every retained tree holds exactly the `expected` stages, once each,
  /// all parented to one root; each stage's histogram counted every call.
  static void expect_stage_set(const trace::TraceCollector& collector,
                               metrics::Registry& reg, int calls,
                               std::span<const trace::Stage> expected) {
    for (const trace::SpanTree& tree : collector.retained()) {
      std::map<trace::Stage, int> counts;
      for (const trace::Span& s : tree.spans) counts[s.stage] += 1;
      for (trace::Stage st : expected) {
        EXPECT_EQ(counts[st], 1) << "stage " << trace::stage_name(st)
                                 << " in trace " << tree.trace_id;
      }
      EXPECT_EQ(tree.spans.size(), expected.size())
          << "unexpected extra spans in trace " << tree.trace_id;

      // Tree shape: one root, every stage span parented to it.
      const trace::Span* root = tree.root();
      ASSERT_NE(root, nullptr);
      EXPECT_GT(root->duration_ns(), 0u);
      for (const trace::Span& s : tree.spans) {
        if (&s == root) continue;
        EXPECT_EQ(s.parent_span_id, root->span_id);
        EXPECT_LE(s.start_ns, s.end_ns);
      }
    }
    metrics::Snapshot snap = reg.scrape();
    for (trace::Stage st : expected) {
      const metrics::Sample* count = snap.find(
          "dpurpc_trace_stage_seconds_count", {{"stage", trace::stage_name(st)}});
      ASSERT_NE(count, nullptr) << trace::stage_name(st);
      EXPECT_EQ(count->value, static_cast<double>(calls))
          << trace::stage_name(st);
    }
  }

  uint64_t pool_jobs() const { return proxy_->codec_pool().total_jobs(); }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<HostEngine> host_;
  std::unique_ptr<DpuProxy> proxy_;
  std::unique_ptr<xrpc::Channel> chan_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
};

/// Value length that puts a Put request (or an echoing reply object)
/// above the lane-thread cutoff, onto the codec pool.
constexpr size_t kPoolValueBytes = kInlineCodecMaxBytes + 64;

TEST_F(TraceE2eFixture, EveryStageRecordsExactlyOnce) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  enable_full_tracing();
  metrics::Registry reg;
  trace::TraceCollector collector(keep_every_tree(&reg));

  std::map<std::string, std::string> store;
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Put",
                      [&store](const ServerContext&, const adt::LayoutView& req,
                               proto::DynamicMessage& resp) {
                        store[std::string(req.get_string(1))] =
                            std::string(req.get_string(2));
                        resp.set_uint64(resp.descriptor()->field_by_name("created"),
                                        1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  ASSERT_NO_FATAL_FAILURE(start_proxy());

  // Requests above the cutoff: every decode rides the pool.
  constexpr int kCalls = 8;
  ASSERT_NO_FATAL_FAILURE(run_puts(kCalls, kPoolValueBytes));
  ASSERT_EQ(proxy_->stats().inline_decodes.load(), 0u);
  ASSERT_EQ(pool_jobs(), static_cast<uint64_t>(kCalls));
  ASSERT_NO_FATAL_FAILURE(await_trees(collector, kCalls));

  // The stages a pool-decoded offloaded request passes through, in Fig. 1
  // order. Each must appear exactly once per tree.
  const trace::Stage expected[] = {
      trace::Stage::kRequest,        trace::Stage::kClientSerialize,
      trace::Stage::kXrpcInbound,    trace::Stage::kProxyDispatch,
      trace::Stage::kLaneQueueWait,  trace::Stage::kDecodeRingWait,
      trace::Stage::kWorkerDecode,   trace::Stage::kBlockBuild,
      trace::Stage::kFlushWait,      trace::Stage::kRdmaInbound,
      trace::Stage::kHostDispatch,   trace::Stage::kHostSerialize,
      trace::Stage::kRespFlushWait,  trace::Stage::kRdmaOutbound,
      trace::Stage::kComplete,       trace::Stage::kXrpcOutbound,
  };
  expect_stage_set(collector, reg, kCalls, expected);

  // The exporter produces an openable timeline for what we retained.
  std::string json = collector.export_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_decode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
}

// The response-offload variant: handlers built with register_unary_object
// reply with an in-place *object* that the codec pool serializes on the
// DPU. The host-serialize span disappears and the two response-side pool
// stages appear — each exactly once per reply.
TEST_F(TraceE2eFixture, OffloadedReplyStagesRecordExactlyOnce) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  enable_full_tracing();
  metrics::Registry reg;
  trace::TraceCollector collector(keep_every_tree(&reg));

  // The reply echoes a value above the cutoff, so the object goes to the
  // pool too.
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "kv.KvStore/Put",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, 1));
                        return resp.set_string(2, req.get_string(2));
                      })
                  .is_ok());
  start_host_loop();
  ASSERT_NO_FATAL_FAILURE(start_proxy());

  constexpr int kCalls = 8;
  ASSERT_NO_FATAL_FAILURE(run_puts(kCalls, kPoolValueBytes));
  // Nothing ran on the lane: every request and every reply actually rode
  // the pool.
  ASSERT_EQ(proxy_->stats().offloaded_responses.load(),
            static_cast<uint64_t>(kCalls));
  ASSERT_EQ(proxy_->stats().inline_serializes.load(), 0u);
  ASSERT_EQ(proxy_->stats().inline_decodes.load(), 0u);
  ASSERT_NO_FATAL_FAILURE(await_trees(collector, kCalls));

  // The offloaded-reply stage set: the copy path's 16 stages, minus the
  // host serialize (the host never serializes), plus the encode ring wait
  // and the pool serialize span.
  const trace::Stage expected[] = {
      trace::Stage::kRequest,        trace::Stage::kClientSerialize,
      trace::Stage::kXrpcInbound,    trace::Stage::kProxyDispatch,
      trace::Stage::kLaneQueueWait,  trace::Stage::kDecodeRingWait,
      trace::Stage::kWorkerDecode,   trace::Stage::kBlockBuild,
      trace::Stage::kFlushWait,      trace::Stage::kRdmaInbound,
      trace::Stage::kHostDispatch,   trace::Stage::kRespFlushWait,
      trace::Stage::kRdmaOutbound,   trace::Stage::kEncodeRingWait,
      trace::Stage::kWorkerEncode,   trace::Stage::kComplete,
      trace::Stage::kXrpcOutbound,
  };
  expect_stage_set(collector, reg, kCalls, expected);

  // Perfetto/Chrome timelines still tile: the response-side spans export
  // under their wire names.
  std::string json = collector.export_chrome_json();
  EXPECT_NE(json.find("\"name\":\"worker_encode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"encode_ring_wait\""), std::string::npos);
}

// Size routing: a small request and a small reply object run to
// completion on the lane thread. The four pool stages vanish from the
// tree, every other stage still records exactly once, and the pool never
// sees a job.
TEST_F(TraceE2eFixture, SmallCallsRunOnTheLaneThread) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  enable_full_tracing();
  metrics::Registry reg;
  trace::TraceCollector collector(keep_every_tree(&reg));

  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "kv.KvStore/Put",
                      [](const ServerContext&, const adt::LayoutView& req,
                         adt::LayoutBuilder& resp) {
                        DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, 1));
                        return resp.set_string(2, req.get_string(1));
                      })
                  .is_ok());
  start_host_loop();
  ASSERT_NO_FATAL_FAILURE(start_proxy());

  constexpr int kCalls = 8;
  ASSERT_NO_FATAL_FAILURE(run_puts(kCalls, 16));
  EXPECT_EQ(pool_jobs(), 0u);
  EXPECT_EQ(proxy_->stats().inline_decodes.load(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(proxy_->stats().inline_serializes.load(),
            static_cast<uint64_t>(kCalls));
  EXPECT_EQ(proxy_->stats().offloaded_responses.load(), 0u);
  EXPECT_EQ(proxy_->stats().offloaded_requests.load(),
            static_cast<uint64_t>(kCalls));
  ASSERT_NO_FATAL_FAILURE(await_trees(collector, kCalls));

  const trace::Stage expected[] = {
      trace::Stage::kRequest,       trace::Stage::kClientSerialize,
      trace::Stage::kXrpcInbound,   trace::Stage::kProxyDispatch,
      trace::Stage::kLaneQueueWait, trace::Stage::kBlockBuild,
      trace::Stage::kFlushWait,     trace::Stage::kRdmaInbound,
      trace::Stage::kHostDispatch,  trace::Stage::kRespFlushWait,
      trace::Stage::kRdmaOutbound,  trace::Stage::kComplete,
      trace::Stage::kXrpcOutbound,
  };
  expect_stage_set(collector, reg, kCalls, expected);
  for (const trace::SpanTree& tree : collector.retained()) {
    for (const trace::Span& s : tree.spans) {
      EXPECT_NE(s.stage, trace::Stage::kDecodeRingWait);
      EXPECT_NE(s.stage, trace::Stage::kWorkerDecode);
      EXPECT_NE(s.stage, trace::Stage::kEncodeRingWait);
      EXPECT_NE(s.stage, trace::Stage::kWorkerEncode);
    }
  }
}

// The cutoff is inclusive: a request of exactly kInlineCodecMaxBytes
// decodes on the lane, one byte more goes to the pool. Untraced — the
// route must not depend on tracing.
TEST_F(TraceE2eFixture, CutoffSplitsRoutesAtExactlyMaxBytes) {
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Put",
                      [](const ServerContext&, const adt::LayoutView&,
                         proto::DynamicMessage& resp) {
                        resp.set_uint64(resp.descriptor()->field_by_name("created"),
                                        1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();
  ASSERT_NO_FATAL_FAILURE(start_proxy());

  // Key "k0" (4 B) + value tag and 2-byte length (3 B) + value.
  Bytes at_cutoff = put_wire(0, kInlineCodecMaxBytes - 7);
  Bytes above = put_wire(0, kInlineCodecMaxBytes - 6);
  ASSERT_EQ(at_cutoff.size(), kInlineCodecMaxBytes);
  ASSERT_EQ(above.size(), kInlineCodecMaxBytes + 1);

  ASSERT_TRUE(chan_->call("kv.KvStore/Put", ByteSpan(at_cutoff)).is_ok());
  EXPECT_EQ(proxy_->stats().inline_decodes.load(), 1u);
  EXPECT_EQ(pool_jobs(), 0u);

  ASSERT_TRUE(chan_->call("kv.KvStore/Put", ByteSpan(above)).is_ok());
  EXPECT_EQ(proxy_->stats().inline_decodes.load(), 1u);
  EXPECT_EQ(pool_jobs(), 1u);
  EXPECT_EQ(proxy_->stats().offloaded_requests.load(), 2u);
}

}  // namespace
}  // namespace dpurpc::grpccompat
