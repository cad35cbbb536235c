// Ablation: how much host CPU each offload direction saves.
//
// Three configurations over the same echo-with-payload workload:
//   none     — the traditional scenario: host deserializes the request AND
//              serializes the response (CPU scenario of Fig. 8 plus a real
//              response, since response cost is what this ablation probes)
//   request  — the paper's implemented scope (§III.A): request
//              deserialization on the DPU, response serialized by the host
//   both     — the §III.A extension: the host touches no wire bytes in
//              either direction (request object in, response object out;
//              built in host scratch, then copied into an exactly-sized
//              block slot)
//
// Reported: host CPU ns/request (the Fig. 8c quantity) and DPU-side
// ns/request, measured with thread CPU clocks on the real datapath.
#include <cstdio>

#include "adt/object_codec.hpp"
#include "bench_util.hpp"
#include "common/cpu_timer.hpp"
#include "grpccompat/engine_pool.hpp"
#include "grpccompat/manifest.hpp"
#include "rdmarpc/client.hpp"

namespace {

using namespace dpurpc;

const uint64_t kRequests = bench::smoke_scaled(8000, 400);
constexpr uint32_t kConcurrency = 512;

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package ab;
message Query { string text = 1; repeated uint32 ids = 2; }
message Reply { string echoed = 1; repeated uint32 doubled = 2; uint64 n = 3; }
service Echo { rpc Do (Query) returns (Reply); }
)";

enum class Mode { kNone, kRequestOnly, kBoth };

struct Result {
  double host_ns_per_req;
  double dpu_ns_per_req;
};

Result run(Mode mode) {
  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  if (!parser.parse_and_link(kSchema).is_ok()) std::abort();
  auto manifest =
      grpccompat::OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  if (!manifest.is_ok()) std::abort();
  const auto* entry = manifest->find_by_name("ab.Echo/Do");

  // The workload: a 40-char string + 64 skewed ints.
  Bytes wire;
  {
    const auto* q = pool.find_message("ab.Query");
    proto::DynamicMessage m(q);
    std::mt19937_64 rng(kDefaultSeed);
    m.set_string(q->field_by_name("text"), random_ascii(rng, 40));
    SkewedVarintDistribution dist;
    for (int i = 0; i < 64; ++i) m.add_uint64(q->field_by_name("ids"), dist(rng));
    wire = proto::WireCodec::serialize(m);
  }

  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, {});
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, {});
  if (!rdmarpc::Connection::connect(dpu_conn, host_conn).is_ok()) std::abort();

  rdmarpc::RpcClient client(&dpu_conn);
  rdmarpc::RpcServer server(&host_conn);
  adt::ArenaDeserializer deser(&manifest->adt());
  adt::ObjectSerializer ser(&manifest->adt());
  arena::OwningArena host_arena(1 << 20);
  const auto* reply_desc = pool.find_message("ab.Reply");

  // Host business logic shared by all modes: echo string, double ints.
  if (mode == Mode::kBoth) {
    // Build into the host's own scratch, then reserve exactly the
    // object's size in the send block and copy it in rebased — the
    // register_unary_object path, minus the grpccompat wrapper.
    server.register_inplace_handler(
        entry->method_id,
        [&](const rdmarpc::RequestView& req,
            rdmarpc::RpcServer::Reserve& reserve) -> StatusOr<uint16_t> {
          adt::LayoutView view(&manifest->adt(), entry->input_class, req.object);
          host_arena.reset();
          auto resp = adt::LayoutBuilder::create(&manifest->adt(), entry->output_class,
                                                 &host_arena);
          if (!resp.is_ok()) return resp.status();
          DPURPC_RETURN_IF_ERROR(resp->set_string(1, view.get_string(1)));
          for (uint32_t i = 0; i < view.repeated_size(2); ++i) {
            DPURPC_RETURN_IF_ERROR(
                resp->add_scalar(2, view.repeated_uint64(2, i) * 2));
          }
          DPURPC_RETURN_IF_ERROR(resp->set_uint64(3, view.repeated_size(2)));
          DPURPC_ASSIGN_OR_RETURN(
              auto space, reserve(static_cast<uint32_t>(host_arena.used())));
          deser.copy_relocated(entry->output_class, host_arena.base(),
                               host_arena.used(), space.data, space.xlate.delta);
          return static_cast<uint16_t>(entry->output_class);
        });
  } else {
    server.register_handler(entry->method_id, [&](const rdmarpc::RequestView& req,
                                                  Bytes& out) -> Status {
      proto::DynamicMessage reply(reply_desc);
      if (mode == Mode::kNone) {
        // Host deserializes the request itself.
        host_arena.reset();
        auto obj = deser.deserialize(entry->input_class, req.payload, host_arena, {});
        if (!obj.is_ok()) return obj.status();
        adt::LayoutView view(&manifest->adt(), entry->input_class, *obj);
        reply.set_string(reply_desc->field_by_name("echoed"),
                         std::string(view.get_string(1)));
        for (uint32_t i = 0; i < view.repeated_size(2); ++i) {
          reply.add_uint64(reply_desc->field_by_name("doubled"),
                           view.repeated_uint64(2, i) * 2);
        }
        reply.set_uint64(reply_desc->field_by_name("n"), view.repeated_size(2));
      } else {
        adt::LayoutView view(&manifest->adt(), entry->input_class, req.object);
        reply.set_string(reply_desc->field_by_name("echoed"),
                         std::string(view.get_string(1)));
        for (uint32_t i = 0; i < view.repeated_size(2); ++i) {
          reply.add_uint64(reply_desc->field_by_name("doubled"),
                           view.repeated_uint64(2, i) * 2);
        }
        reply.set_uint64(reply_desc->field_by_name("n"), view.repeated_size(2));
      }
      // Host-side response serialization (the cost 'both' eliminates).
      proto::WireCodec::serialize(reply, out);
      return Status::ok();
    });
  }

  uint64_t completed = 0, enqueued = 0;
  double host_ns = 0, dpu_ns = 0;
  while (completed < kRequests) {
    {
      ThreadCpuTimer t;
      while (enqueued - completed < kConcurrency && enqueued < kRequests) {
        Status st;
        if (mode == Mode::kNone) {
          st = client.call(entry->method_id, ByteSpan(wire),
                           [&](const Status&, const rdmarpc::InMessage&) { ++completed; });
        } else {
          st = client.call_inplace(
              entry->method_id, static_cast<uint16_t>(entry->input_class),
              static_cast<uint32_t>(wire.size() * 4 + 256),
              [&](arena::Arena& a, const arena::AddressTranslator& x)
                  -> StatusOr<uint32_t> {
                auto obj = deser.deserialize(entry->input_class, ByteSpan(wire), a, x);
                if (!obj.is_ok()) return obj.status();
                return static_cast<uint32_t>(a.used());
              },
              [&](const Status& rs, const rdmarpc::InMessage& resp) {
                ++completed;
                if (mode == Mode::kBoth && rs.is_ok()) {
                  // DPU serializes the response object for the client.
                  Bytes out;
                  (void)ser.serialize(adt::ObjectRef(resp.header.aux, resp.payload_addr), out);
                  volatile size_t sink = out.size();
                  (void)sink;
                }
              });
        }
        if (!st.is_ok()) break;
        ++enqueued;
      }
      if (!client.event_loop_once().is_ok()) std::abort();
      dpu_ns += static_cast<double>(t.elapsed_ns());
    }
    {
      ThreadCpuTimer t;
      if (!server.event_loop_once().is_ok()) std::abort();
      host_ns += static_cast<double>(t.elapsed_ns());
    }
  }
  return {host_ns / static_cast<double>(completed),
          dpu_ns / static_cast<double>(completed)};
}

}  // namespace

int main() {
  std::printf("Ablation: offload directions vs host CPU (echo with 40-char string +\n");
  std::printf("64 skewed u32s; real datapath, single-core measured costs)\n\n");
  std::printf("%-22s %16s %16s\n", "configuration", "host ns/req", "dpu ns/req");
  Result none = run(Mode::kNone);
  std::printf("%-22s %16.0f %16.0f\n", "no offload", none.host_ns_per_req,
              none.dpu_ns_per_req);
  Result req = run(Mode::kRequestOnly);
  std::printf("%-22s %16.0f %16.0f\n", "request offload", req.host_ns_per_req,
              req.dpu_ns_per_req);
  Result both = run(Mode::kBoth);
  std::printf("%-22s %16.0f %16.0f\n", "request+response", both.host_ns_per_req,
              both.dpu_ns_per_req);
  std::printf("\nhost CPU saved by request offload (the paper's scope): %.2fx\n",
              none.host_ns_per_req / req.host_ns_per_req);
  std::printf("additional saving from response offload (the paper's §III.A\n"
              "extension, implemented here): %.2fx further (%.2fx total)\n",
              req.host_ns_per_req / both.host_ns_per_req,
              none.host_ns_per_req / both.host_ns_per_req);
  return 0;
}
