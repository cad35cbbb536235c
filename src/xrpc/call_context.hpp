// The unified call surface (DESIGN.md §3.16).
//
// A handler served by xrpc::Server — a unary dispatch or a streaming
// open — gets one typed context that owns its method name and payload,
// instead of the historical ad-hoc shapes (raw (method, payload)
// callbacks, ad-hoc HostEngine registration signatures). The deprecated
// register_method* shims that bridged one release are gone;
// register_unary*/register_stream are the only entry points. Server
// builds each context from the one frame switch (server.hpp); the DPU
// proxy's lanes take the same calls from that switch as views
// (InboundCall), without the copy.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "trace/trace.hpp"
#include "xrpc/reply.hpp"

namespace dpurpc::xrpc {

class ServerStream;

struct CallContext {
  /// Full method name, "pkg.Service/Method".
  std::string method;
  /// Unary request payload; empty for streaming calls (their bytes arrive
  /// through `stream`).
  Bytes payload;
  /// Tenant-ready key/value metadata (the gRPC-metadata analogue). Empty
  /// today — the wire does not carry it yet — but handlers written against
  /// CallContext keep working when it does.
  std::vector<std::pair<std::string, std::string>> metadata;
  /// Propagated trace context (inactive when the client did not trace).
  trace::TraceContext trace;
  Responder respond;
  /// Non-null for streaming calls: install chunk/end/abort callbacks on it
  /// before the handler returns (frames cannot arrive earlier).
  std::shared_ptr<ServerStream> stream;

  bool is_stream() const noexcept { return stream != nullptr; }
};

/// Handler for the unified surface: xrpc::Server invokes it on the
/// thread that reads the call's connection, for every call, unary or
/// streaming.
using CallHandler = std::function<void(CallContext ctx)>;

}  // namespace dpurpc::xrpc
