// xRPC server side: one frame switch, and the thread-per-connection
// server that drives it.
//
// In the offloaded deployment the DPU terminates xRPC (§III.A: "the DPU
// acts now as the xRPC server"); in the traditional baseline the host
// does. Every inbound frame of a server connection goes through one
// switch, ServerConnection::dispatch_one: it records the inbound trace
// span, answers the built-in metrics scrape, and hands each call or
// stream event to a CallSink as views into the connection's reader. The
// DPU proxy's lanes are CallSinks and read their own connections
// (grpccompat/dpu_proxy.hpp); Server below adapts the switch to the
// owning CallContext surface with one reader thread per connection, for
// host handlers, tests and benches. Responses may be sent from any
// thread.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/lockdep.hpp"
#include "common/relaxed.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"
#include "xrpc/call_context.hpp"
#include "xrpc/frame.hpp"
#include "xrpc/stream.hpp"

namespace dpurpc::xrpc {

/// Method name the server answers itself with Registry::expose_text()
/// when started with a metrics registry — the paper's monitoring-process
/// scrape, served over the real transport instead of in-process calls.
inline constexpr std::string_view kMetricsMethod = "dpurpc.Metrics/Scrape";

/// One inbound call as the frame switch hands it over. `method` and
/// `payload` view the connection's reader memory: valid only until the
/// sink callback returns.
struct InboundCall {
  uint32_t call_id = 0;
  std::string_view method;
  ByteSpan payload;  ///< unary calls only
  /// Propagated trace context (inactive when the client did not trace).
  trace::TraceContext trace;
  Responder respond;
};

/// The other side of the frame switch: what one server connection's
/// frames turn into. A sink keeps its own per-stream state keyed by call
/// id, and ignores stream frames for a call id it does not know.
class CallSink {
 public:
  virtual ~CallSink() = default;
  virtual void on_call(const InboundCall& call) = 0;
  /// A streaming call opened; its bytes follow as on_stream_chunk.
  virtual void on_stream_open(const InboundCall& call) = 0;
  virtual void on_stream_chunk(uint32_t call_id, ByteSpan chunk) = 0;
  virtual void on_stream_end(uint32_t call_id) = 0;
  virtual void on_stream_abort(uint32_t call_id, Code code) = 0;
  /// The connection is gone: drop every stream still open on it.
  virtual void on_disconnect() = 0;
};

/// One accepted server connection: the socket, its frame reader, and the
/// frame switch.
class ServerConnection {
 public:
  /// A non-null `metrics` makes the switch answer kMetricsMethod itself.
  ServerConnection(Fd fd, metrics::Registry* metrics);
  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  int fd() const noexcept { return state_->fd.get(); }
  const std::shared_ptr<ConnState>& state() const noexcept { return state_; }

  /// One recv() into the reader, blocking only if asked to. kUnavailable
  /// when the peer closed or the socket failed.
  Status receive(bool block) { return reader_.receive(block); }

  /// The frame switch: hand the next whole received frame to `sink`.
  /// False when no whole frame is buffered; kDataLoss on a malformed
  /// frame or one a server never receives (the connection is done).
  StatusOr<bool> dispatch_one(CallSink& sink);

 private:
  std::shared_ptr<ConnState> state_;
  FrameReader reader_;
  metrics::Registry* metrics_;
};

class Server {
 public:
  /// Completes one call; thread-safe, callable once per request.
  using Responder = xrpc::Responder;

  /// The unified surface: invoked on the connection's reader thread for
  /// every call — unary (ctx.payload, respond inline or stash the
  /// responder) or streaming (ctx.stream non-null; install its callbacks
  /// before returning). See call_context.hpp.
  using Handler = CallHandler;

  /// Listen on an OS-assigned loopback port and serve until shutdown().
  /// A non-null `metrics` enables the built-in kMetricsMethod handler
  /// (answered before the handler ever sees the call).
  static StatusOr<std::unique_ptr<Server>> start(
      Handler handler, metrics::Registry* metrics = nullptr);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const noexcept { return listener_.port(); }
  void shutdown();

  uint64_t requests_accepted() const noexcept {
    return relaxed::load(requests_accepted_);
  }

 private:
  Server(Listener listener, Handler handler, metrics::Registry* metrics);
  void accept_loop();
  void connection_loop(std::shared_ptr<ServerConnection> conn);

  Listener listener_;
  Handler handler_;
  metrics::Registry* metrics_;
  std::thread accept_thread_;
  lockdep::Mutex mu_{"xrpc.Server.mu"};
  // Shutdown protocol (stop/join ordering): shutdown() publishes
  // stopping_, closes the listener, then — under mu_ — shuts down every
  // fd in conns_ so blocked readers fail out. accept_loop() re-checks
  // stopping_ under the same mu_ before registering a new connection, so
  // a connection is either registered (and its fd shut down by
  // shutdown()'s sweep) or never spawned; no thread can be created after
  // the sweep and escape it. Only then are accept/conn threads joined.
  std::vector<std::thread> conn_threads_ DPURPC_GUARDED_BY(mu_);
  std::vector<std::weak_ptr<ConnState>> conns_ DPURPC_GUARDED_BY(mu_);
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_accepted_{0};
};

}  // namespace dpurpc::xrpc
