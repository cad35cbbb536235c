#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "arena/arena.hpp"
#include "common/cpu_timer.hpp"
#include "common/rng.hpp"
#include "dpu/codec_pool.hpp"
#include "proto/schema_parser.hpp"
#include "rdmarpc/client.hpp"
#include "rdmarpc/server.hpp"
#include "wire/utf8.hpp"
#include "wire/varint_batch.hpp"
#include "xrpc/channel.hpp"
#include "xrpc/server.hpp"

namespace perfbench {

namespace {

constexpr uint16_t kRpcMethod = 1;
constexpr size_t kFragBytes = 1u << 20;

/// The workload's messages as the layers see them.
struct Corpus {
  std::vector<std::pair<uint32_t, Bytes>> requests;  ///< (ADT class, wire)
  std::vector<uint64_t> varints;  ///< every varint value the messages carry
  std::string text;               ///< their string/bytes payloads
  uint32_t resp_class = 0;
  bool fetch = false;
};

bool read_varint(const std::byte*& p, const std::byte* end, uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64 && p < end; shift += 7) {
    auto b = static_cast<uint8_t>(*p++);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

/// Collects a message's varints (and the elements of a packed field 1 when
/// `packed1`) and appends its length-delimited payloads to `text`. Calls
/// `on_record(begin)` at every field-1 tag (Row record boundaries).
template <typename OnRecord>
void walk(ByteSpan wire, bool packed1, Corpus& c, OnRecord on_record) {
  const std::byte* p = wire.data();
  const std::byte* end = p + wire.size();
  while (p < end) {
    const std::byte* begin = p;
    uint64_t tag, v;
    if (!read_varint(p, end, tag)) return;
    if ((tag >> 3) == 1) on_record(begin);
    switch (tag & 7) {
      case 0:
        if (!read_varint(p, end, v)) return;
        c.varints.push_back(v);
        break;
      case 5:
        p += 4;
        break;
      case 1:
        p += 8;
        break;
      case 2: {
        if (!read_varint(p, end, v) || v > static_cast<uint64_t>(end - p)) return;
        const std::byte* q = p;
        p += v;
        if (packed1 && (tag >> 3) == 1) {
          while (q < p && read_varint(q, p, v)) c.varints.push_back(v);
        } else {
          c.text.append(reinterpret_cast<const char*>(q), static_cast<size_t>(p - q));
        }
        break;
      }
      default:
        return;
    }
  }
}

Corpus make_corpus(const Traffic& t, const grpccompat::OffloadManifest& mf) {
  Corpus c;
  auto no_record = [](const std::byte*) {};
  if (t.kind() == Kind::kStreamIngest) {
    // The stream's unit of work is one Row record.
    const auto* entry = mf.find_by_name(kIngest);
    c.resp_class = entry->output_class;
    const Bytes& s = t.stream_payload();
    std::vector<const std::byte*> starts;
    walk(ByteSpan(s), false, c, [&](const std::byte* b) { starts.push_back(b); });
    starts.push_back(s.data() + s.size());
    for (size_t i = 0; i + 1 < starts.size() && i < 256; ++i) {
      c.requests.emplace_back(entry->input_class, Bytes(starts[i], starts[i + 1]));
    }
  } else {
    for (size_t m = 0; m < t.mix_weights().size(); ++m) {
      const auto* entry = mf.find_by_name(t.method(m));
      c.resp_class = entry->output_class;
      for (uint64_t k = 0; k < t.bodies(m).size(); ++k) {
        Bytes wire;
        t.request(m, k, wire);
        walk(ByteSpan(wire), t.method(m) == kInts, c, no_record);
        c.requests.emplace_back(entry->input_class, std::move(wire));
      }
    }
    c.fetch = t.kind() == Kind::kUnaryFetch;
  }
  if (c.fetch) {
    for (uint64_t key = 1; key <= 4; ++key) {
      for (uint32_t i = 0; i < kFetchValues; ++i) c.varints.push_back(fetch_value(key, i));
    }
  }
  if (c.text.size() < 4096) {
    // Text-free workloads time the validator on seed-generated ASCII.
    std::mt19937_64 rng(mix64(t.seed()));
    c.text = random_ascii(rng, 8000);
  }
  return c;
}

/// Median over five batches of `f`'s time per operation, in ns; each
/// batch repeats `f` (which performs `ops` operations) for `seconds` / 5.
template <typename F>
double ns_per_op(double seconds, double ops, F&& f) {
  std::vector<double> batches;
  const auto batch_ns = static_cast<uint64_t>(seconds * 1e9 / 5);
  for (int b = 0; b < 5; ++b) {
    uint64_t n = 0;
    const uint64_t t0 = WallTimer::now();
    uint64_t t1 = t0;
    do {
      f();
      ++n;
    } while ((t1 = WallTimer::now()) - t0 < batch_ns);
    batches.push_back(static_cast<double>(t1 - t0) / (static_cast<double>(n) * ops));
  }
  return median(batches);
}

StatusOr<void*> build_response(const adt::Adt& adt, const Corpus& c, arena::Arena& a,
                               uint64_t key) {
  auto b = adt::LayoutBuilder::create(&adt, c.resp_class, &a);
  if (!b.is_ok()) return b.status();
  if (c.fetch) {
    for (uint32_t i = 0; i < kFetchValues; ++i) {
      DPURPC_RETURN_IF_ERROR(b->add_scalar(1, fetch_value(key, i)));
    }
    DPURPC_RETURN_IF_ERROR(b->set_uint64(2, key));
  } else {
    DPURPC_RETURN_IF_ERROR(b->set_uint64(1, key));
    DPURPC_RETURN_IF_ERROR(b->set_uint64(2, 4096));
  }
  return b->object();
}

void wire_layer(const Corpus& c, double budget_s, Metrics& out) {
  const double s = budget_s / 3;
  std::vector<uint64_t> vals = c.varints;
  while (vals.size() < 4096) vals.insert(vals.end(), c.varints.begin(), c.varints.end());
  const auto n = static_cast<uint32_t>(vals.size());
  std::vector<uint8_t> enc(static_cast<size_t>(n) * 10 + 16);
  const uint8_t* enc_end = wire::encode_varint_run(enc.data(), enc.data() + enc.size(), vals.data(), n);
  std::vector<uint64_t> dec(n);
  volatile uint64_t sink = 0;
  out.set("wire.varint_decode_ns_per_val", ns_per_op(s, n, [&] {
            sink = sink + (wire::decode_varint_batch64(enc.data(), enc_end, n, dec.data()) != nullptr);
          }), "ns");
  out.set("wire.varint_encode_ns_per_val", ns_per_op(s, n, [&] {
            sink = sink + static_cast<uint64_t>(
                wire::encode_varint_run(enc.data(), enc.data() + enc.size(), vals.data(), n) - enc.data());
          }), "ns");
  const auto* text = reinterpret_cast<const uint8_t*>(c.text.data());
  out.set("wire.utf8_ns_per_kib",
          ns_per_op(s, static_cast<double>(c.text.size()) / 1024.0,
                    [&] { sink = sink + wire::validate_utf8(text, c.text.size()); }),
          "ns");
}

bool adt_layer(const grpccompat::OffloadManifest& mf, const Corpus& c, double budget_s,
               Metrics& out) {
  const double s = budget_s / 3;
  const adt::Adt& adt = mf.adt();
  adt::ArenaDeserializer deser(&adt);
  adt::ObjectSerializer ser(&adt);
  arena::OwningArena a(1u << 20);
  bool ok = true;
  size_t i = 0;
  out.set("adt.decode_ns", ns_per_op(s, 1, [&] {
            const auto& [cls, wire] = c.requests[i++ % c.requests.size()];
            a.reset();
            ok &= deser.deserialize(cls, ByteSpan(wire), a, {}).is_ok();
          }), "ns");
  uint64_t key = 1;
  out.set("adt.build_ns", ns_per_op(s, 1, [&] {
            a.reset();
            ok &= build_response(adt, c, a, ++key).is_ok();
          }), "ns");
  a.reset();
  auto obj = build_response(adt, c, a, 1);
  if (!obj.is_ok()) return false;
  Bytes wire;
  out.set("adt.encode_ns", ns_per_op(s, 1, [&] {
            wire.clear();
            ok &= ser.serialize(adt::ObjectRef(c.resp_class, *obj), wire).is_ok();
          }), "ns");
  return ok;
}

bool dpu_layer(const grpccompat::OffloadManifest& mf, const Corpus& c, double s, Metrics& out) {
  adt::ArenaDeserializer deser(&mf.adt());
  adt::ObjectSerializer ser(&mf.adt());
  dpu::CodecPool::Options opts;
  opts.workers = 1;
  dpu::CodecPool pool(&deser, &ser, 1, opts);
  pool.start();
  auto job = [&](uint64_t i) {
    dpu::CodecJob j;
    j.kind = dpu::JobKind::kDecode;
    const auto& [cls, wire] = c.requests[i % c.requests.size()];
    j.class_index = cls;
    j.cookie = i;
    j.wire = wire;
    return j;
  };
  bool ok = true;
  dpu::CodecResult res;
  // Idle: one job in flight, submit to result.
  std::vector<double> rtt;
  const auto before = pool.worker_stats(0);
  const uint64_t idle_end = WallTimer::now() + static_cast<uint64_t>(s * 0.6e9);
  for (uint64_t i = 0; WallTimer::now() < idle_end; ++i) {
    dpu::CodecJob j = job(i);
    const uint64_t t0 = WallTimer::now();
    if (!pool.submit(0, j)) return false;
    while (!pool.try_pop_result(0, res)) std::this_thread::yield();
    rtt.push_back(static_cast<double>(WallTimer::now() - t0));
    ok &= res.status.is_ok();
  }
  const auto after = pool.worker_stats(0);
  const double rtt_ns = median(rtt);
  const double busy_ns = static_cast<double>(after.busy_ns - before.busy_ns) /
                         static_cast<double>(std::max<uint64_t>(1, after.jobs - before.jobs));
  out.set("dpu.rtt_ns.idle", rtt_ns, "ns");
  out.set("dpu.handoff_ns", rtt_ns - busy_ns, "ns");
  // Busy: the ring kept full.
  uint64_t submitted = 0, done = 0;
  const uint64_t t0 = WallTimer::now();
  const uint64_t busy_end = t0 + static_cast<uint64_t>(s * 0.4e9);
  while (WallTimer::now() < busy_end) {
    while (submitted - done < 128) {
      dpu::CodecJob j = job(submitted);
      if (!pool.submit(0, j)) break;
      ++submitted;
    }
    bool popped = false;
    while (pool.try_pop_result(0, res)) {
      ok &= res.status.is_ok();
      ++done;
      popped = true;
    }
    if (!popped) std::this_thread::yield();
  }
  const double busy_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
  while (done < submitted) {
    if (pool.try_pop_result(0, res)) {
      ++done;
    } else {
      std::this_thread::yield();
    }
  }
  out.set("dpu.jobs_per_s.busy", static_cast<double>(done) / busy_s, "1/s");
  pool.stop();
  return ok;
}

bool rdmarpc_layer(const Corpus& c, double s, Metrics& out) {
  const Bytes reply = encode_ack(1, 1);
  auto handler = [&reply](const rdmarpc::RequestView&, Bytes& resp) {
    resp = reply;
    return Status::ok();
  };
  bool ok = true;
  {
    simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
    rdmarpc::Connection cc(rdmarpc::Role::kClient, &dpu_pd, {});
    rdmarpc::Connection sc(rdmarpc::Role::kServer, &host_pd, {});
    if (!rdmarpc::Connection::connect(cc, sc).is_ok()) return false;
    rdmarpc::RpcServer server(&sc);
    server.register_handler(kRpcMethod, handler);
    uint64_t sent = 0, done = 0;  // outlive the client and its continuations
    rdmarpc::RpcClient client(&cc);
    auto call = [&](uint64_t i) {
      const Bytes& wire = c.requests[i % c.requests.size()].second;
      Status st = client.call(kRpcMethod, ByteSpan(wire),
                              [&](const Status& r, const rdmarpc::InMessage&) {
                                ok &= r.is_ok();
                                ++done;
                              });
      if (st.is_ok()) ++sent;
      return st.is_ok();
    };
    auto pump = [&] {
      ok &= client.event_loop_once().is_ok();
      ok &= server.event_loop_once().is_ok();
    };
    // One call at a time, both sides pumped by this thread: protocol and
    // simverbs transfer cost without thread wake-ups.
    std::vector<double> rtt;
    const uint64_t single_end = WallTimer::now() + static_cast<uint64_t>(s * 0.4e9);
    while (ok && WallTimer::now() < single_end) {
      const uint64_t t0 = WallTimer::now();
      if (!call(sent)) return false;
      while (ok && done < sent) pump();
      rtt.push_back(static_cast<double>(WallTimer::now() - t0));
    }
    out.set("rdmarpc.rtt_ns.single", median(rtt), "ns");
    // Pipelined: up to 64 calls in flight.
    const uint64_t base = done;
    const uint64_t t0 = WallTimer::now();
    const uint64_t pipe_end = t0 + static_cast<uint64_t>(s * 0.3e9);
    while (ok && WallTimer::now() < pipe_end) {
      while (sent - done < 64 && call(sent)) {
      }
      pump();
    }
    const double pipe_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
    out.set("rdmarpc.msgs_per_s.pipelined", static_cast<double>(done - base) / pipe_s, "1/s");
    while (ok && done < sent) pump();
  }
  {
    // Fragmented calls: 1 MiB of the workload's bytes per call, server on
    // its own thread (the client pumps only itself while it waits for
    // credit).
    Bytes payload;
    while (payload.size() < kFragBytes) {
      for (const auto& r : c.requests) payload.insert(payload.end(), r.second.begin(), r.second.end());
    }
    payload.resize(kFragBytes);
    simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
    rdmarpc::Connection cc(rdmarpc::Role::kClient, &dpu_pd, {});
    rdmarpc::Connection sc(rdmarpc::Role::kServer, &host_pd, {});
    if (!rdmarpc::Connection::connect(cc, sc).is_ok()) return false;
    rdmarpc::RpcServer server(&sc);
    server.register_handler(kRpcMethod, handler);
    std::atomic<bool> stop{false};
    std::thread server_thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto n = server.event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) server.wait(1);
      }
    });
    uint64_t done = 0, calls = 0;
    rdmarpc::RpcClient client(&cc);
    const uint64_t t0 = WallTimer::now();
    const uint64_t frag_end = t0 + static_cast<uint64_t>(s * 0.3e9);
    while (ok && WallTimer::now() < frag_end) {
      Status st = client.call_fragmented(kRpcMethod, ByteSpan(payload),
                                         [&](const Status& r, const rdmarpc::InMessage&) {
                                           ok &= r.is_ok();
                                           ++done;
                                         });
      ok &= st.is_ok();
      ++calls;
      while (ok && done < calls) {
        auto n = client.event_loop_once();
        ok &= n.is_ok();
        if (ok && *n == 0) client.wait(1);
      }
    }
    const double frag_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
    stop.store(true);
    sc.interrupt();
    server_thread.join();
    out.set("rdmarpc.frag_mib_s", static_cast<double>(done * kFragBytes) / (1 << 20) / frag_s,
            "MiB/s");
  }
  return ok;
}

bool xrpc_layer(const Corpus& c, double s, Metrics& out) {
  // Declared first: closing the channel fails outstanding calls through
  // callbacks that touch these.
  std::atomic<uint64_t> done{0};
  std::atomic<bool> ok{true};
  uint64_t sent = 0;
  auto server = xrpc::Server::start(
      [](xrpc::CallContext ctx) { ctx.respond(Code::kOk, ByteSpan(ctx.payload)); });
  if (!server.is_ok()) return false;
  auto chan = xrpc::Channel::connect((*server)->port());
  if (!chan.is_ok()) return false;
  auto call = [&](uint64_t i) {
    const Bytes& wire = c.requests[i % c.requests.size()].second;
    Status st = (*chan)->call_async("echo", ByteSpan(wire), [&](Code code, Bytes) {
      if (code != Code::kOk) ok.store(false);
      done.fetch_add(1);
    });
    if (st.is_ok()) ++sent;
    return st.is_ok();
  };
  std::vector<double> rtt;
  const uint64_t single_end = WallTimer::now() + static_cast<uint64_t>(s * 0.5e9);
  while (ok.load() && WallTimer::now() < single_end) {
    const uint64_t t0 = WallTimer::now();
    if (!call(sent)) return false;
    while (done.load() < sent) std::this_thread::yield();
    rtt.push_back(static_cast<double>(WallTimer::now() - t0) * 1e-3);
  }
  out.set("xrpc.rtt_us.single", median(rtt), "us");
  const uint64_t base = done.load();
  const uint64_t t0 = WallTimer::now();
  const uint64_t pipe_end = t0 + static_cast<uint64_t>(s * 0.5e9);
  while (ok.load() && WallTimer::now() < pipe_end) {
    if (sent - done.load() >= 64 || !call(sent)) std::this_thread::yield();
  }
  const double pipe_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
  out.set("xrpc.calls_per_s.pipelined", static_cast<double>(done.load() - base) / pipe_s, "1/s");
  const uint64_t drain_end = WallTimer::now() + 2'000'000'000ull;
  while (done.load() < sent && WallTimer::now() < drain_end) std::this_thread::yield();
  (*chan)->close();
  (*server)->shutdown();
  return ok.load() && done.load() == sent;
}

}  // namespace

bool measure_layers(const Traffic& t, double budget_s, Metrics& out) {
  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  if (!parser.parse_and_link(kSchema).is_ok()) return false;
  auto mf = grpccompat::OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  if (!mf.is_ok()) return false;
  const Corpus c = make_corpus(t, *mf);
  const double s = budget_s / 5;
  wire_layer(c, s, out);
  return adt_layer(*mf, c, s, out) && dpu_layer(*mf, c, s, out) &&
         rdmarpc_layer(c, s, out) && xrpc_layer(c, s, out);
}

}  // namespace perfbench
