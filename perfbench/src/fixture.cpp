#include "fixture.hpp"

#include <chrono>

#include "common/cpu_timer.hpp"
#include "proto/schema_parser.hpp"
#include "traffic.hpp"
#include "util.hpp"
#include "xrpc/channel.hpp"

namespace perfbench {

namespace {

/// The warm-up call's stamp; the self-test hook leaves this reply intact
/// so a corrupted deployment still starts and the per-reply check is what
/// catches it.
constexpr uint64_t kWarmupStamp = 1;

/// Times one handler invocation into the deployment's span counters.
class HandlerSpan {
 public:
  explicit HandlerSpan(Deployment& d) : d_(d), t0_(WallTimer::now()) {}
  ~HandlerSpan() {
    d_.handler_ns.fetch_add(WallTimer::now() - t0_, std::memory_order_relaxed);
    d_.handler_calls.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Deployment& d_;
  uint64_t t0_;
};

uint64_t stamp_out(const Deployment& d, uint64_t stamp) {
  return d.wrong_reply && stamp != kWarmupStamp ? stamp + 1 : stamp;
}

Status register_handlers(Deployment& d) {
  using grpccompat::ServerContext;
  auto& host = *d.host;
  DPURPC_RETURN_IF_ERROR(host.register_unary_object(
      kTiny, [&d](const ServerContext&, const adt::LayoutView& req,
                  adt::LayoutBuilder& resp) {
        HandlerSpan span(d);
        DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, stamp_out(d, req.get_uint64(4))));
        return resp.set_uint64(2, static_cast<uint64_t>(req.get_int64(1)));
      }));
  DPURPC_RETURN_IF_ERROR(host.register_unary_object(
      kInts, [&d](const ServerContext&, const adt::LayoutView& req,
                  adt::LayoutBuilder& resp) {
        HandlerSpan span(d);
        DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, stamp_out(d, req.get_uint64(2))));
        return resp.set_uint64(2, req.repeated_size(1));
      }));
  DPURPC_RETURN_IF_ERROR(host.register_unary_object(
      kChars, [&d](const ServerContext&, const adt::LayoutView& req,
                   adt::LayoutBuilder& resp) {
        HandlerSpan span(d);
        DPURPC_RETURN_IF_ERROR(resp.set_uint64(1, stamp_out(d, req.get_uint64(2))));
        return resp.set_uint64(2, req.get_string(1).size());
      }));
  DPURPC_RETURN_IF_ERROR(host.register_unary_object(
      kFetch, [&d](const ServerContext&, const adt::LayoutView& req,
                   adt::LayoutBuilder& resp) {
        HandlerSpan span(d);
        const uint64_t key = static_cast<uint64_t>(req.get_int64(1));
        for (uint32_t i = 0; i < kFetchValues; ++i) {
          DPURPC_RETURN_IF_ERROR(resp.add_scalar(1, fetch_value(key, i)));
        }
        return resp.set_uint64(2, stamp_out(d, req.get_uint64(4)));
      }));
  // Bulk sink: count each stream's bytes and ack the total at the end.
  return host.register_stream(
      kIngest, [&d](const ServerContext&, uint32_t stream_id, ByteSpan chunk,
                    bool end, Bytes& final_response) -> Status {
        HandlerSpan span(d);
        if (!end) {
          d.stream_bytes[stream_id] += chunk.size();
          return Status::ok();
        }
        uint64_t total = d.stream_bytes[stream_id];
        d.stream_bytes.erase(stream_id);
        final_response = encode_ack(stamp_out(d, total), 0);
        return Status::ok();
      });
}

}  // namespace

Deployment::~Deployment() {
  if (proxy) proxy->stop();
  stop.store(true);
  if (host_conn) host_conn->interrupt();
  if (host_thread.joinable()) host_thread.join();
}

double Deployment::host_cpu_s() {
  return host_thread.joinable() ? thread_cpu_s(host_thread.native_handle()) : 0.0;
}

bool Deployment::idle() const {
  const auto& s = proxy->stats();
  return proxy->lane_outstanding(0) == 0 &&
         s.offloaded_requests.load() == s.responses_forwarded.load();
}

bool Deployment::wait_idle() const {
  for (int i = 0; i < 2000 && !idle(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return idle();
}

uint64_t Deployment::counter(const std::string& name) {
  auto& fam = registry.counter_family(name, "");
  return fam.counter({{"role", "client"}}).value() +
         fam.counter({{"role", "server"}}).value();
}

std::unique_ptr<Deployment> deploy(bool wrong_reply, std::string* err) {
  auto d = std::make_unique<Deployment>();
  d->wrong_reply = wrong_reply;
  const uint64_t t0 = WallTimer::now();
  auto fail = [&](const std::string& what, const Status& st) {
    *err = what + ": " + st.to_string();
    return nullptr;
  };

  proto::SchemaParser parser(d->pool);
  if (auto st = parser.parse_and_link(kSchema); !st.is_ok()) return fail("schema", st);
  auto built = grpccompat::OffloadManifest::build(d->pool, arena::StdLibFlavor::kLibstdcpp);
  if (!built.is_ok()) return fail("manifest", built.status());
  d->manifest = std::make_unique<grpccompat::OffloadManifest>(std::move(*built));

  d->dpu_pd = std::make_unique<simverbs::ProtectionDomain>("dpu");
  d->host_pd = std::make_unique<simverbs::ProtectionDomain>("host");
  rdmarpc::ConnectionConfig cfg;
  cfg.registry = &d->registry;
  d->dpu_conn = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kClient,
                                                      d->dpu_pd.get(), cfg);
  d->host_conn = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kServer,
                                                       d->host_pd.get(), cfg);
  if (auto st = rdmarpc::Connection::connect(*d->dpu_conn, *d->host_conn); !st.is_ok()) {
    return fail("connect", st);
  }
  d->host = std::make_unique<grpccompat::HostEngine>(d->host_conn.get(),
                                                     d->manifest.get(), &d->pool);
  if (auto st = register_handlers(*d); !st.is_ok()) return fail("handlers", st);

  Deployment* raw = d.get();
  d->host_thread = std::thread([raw] {
    while (!raw->stop.load(std::memory_order_relaxed)) {
      auto n = raw->host->event_loop_once();
      if (!n.is_ok()) return;
      if (*n == 0) raw->host->wait(1);
    }
  });

  d->proxy = std::make_unique<grpccompat::DpuProxy>(d->dpu_conn.get(), d->manifest.get());
  auto port = d->proxy->start();
  if (!port.is_ok()) return fail("proxy start", port.status());
  d->port = *port;

  // Set-up ends at the first verified reply through the whole datapath.
  auto chan = xrpc::Channel::connect(d->port);
  if (!chan.is_ok()) return fail("connect channel", chan.status());
  const uint64_t id = 7;
  Bytes wire = encode_small(id, kWarmupStamp);
  auto reply = (*chan)->call(kTiny, ByteSpan(wire), 5000);
  if (!reply.is_ok()) return fail("first call", reply.status());
  if (!check_ack(ByteSpan(*reply), kWarmupStamp, id)) {
    *err = "first call: wrong reply";
    return nullptr;
  }
  d->setup_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
  (*chan)->close();
  return d;
}

}  // namespace perfbench
