#include "xrpc/server.hpp"

#include <map>

#include "common/cpu_timer.hpp"

namespace dpurpc::xrpc {

StatusOr<std::unique_ptr<Server>> Server::start(Handler handler,
                                                metrics::Registry* metrics) {
  auto listener = Listener::create();
  if (!listener.is_ok()) return listener.status();
  return std::unique_ptr<Server>(
      new Server(std::move(*listener), std::move(handler), metrics));
}

Server::Server(Listener listener, Handler handler, metrics::Registry* metrics)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      metrics_(metrics) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  listener_.shutdown();
  {
    lockdep::ScopedLock lk(mu_);
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) conn->fd.shutdown();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // accept_thread_ is joined, so conn_threads_ can no longer grow; swap
  // it out under mu_ and join outside the lock (a connection thread may
  // itself need mu_-free progress to observe its dead fd and exit).
  std::vector<std::thread> threads;
  {
    lockdep::ScopedLock lk(mu_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

void Server::accept_loop() {
  while (!relaxed::load(stopping_)) {
    auto client = listener_.accept();
    if (!client.is_ok()) break;  // listener shut down
    auto conn = std::make_shared<ServerConnection>(std::move(*client), metrics_);
    lockdep::ScopedLock lk(mu_);
    // Re-check under mu_: shutdown() sets stopping_ before it sweeps
    // conns_, so either we see it here (drop the connection), or the
    // sweep sees our registration (and shuts our fd down).
    if (relaxed::load(stopping_)) break;
    conns_.push_back(conn->state());
    conn_threads_.emplace_back([this, conn] { connection_loop(conn); });
  }
}

ServerConnection::ServerConnection(Fd fd, metrics::Registry* metrics)
    : state_(std::make_shared<ConnState>()), reader_(state_->fd), metrics_(metrics) {
  state_->fd = std::move(fd);
}

StatusOr<bool> ServerConnection::dispatch_one(CallSink& sink) {
  FrameView f;
  DPURPC_ASSIGN_OR_RETURN(bool got, reader_.take_frame(f));
  if (!got) return false;
  switch (f.type) {
    case FrameType::kRequest:
    case FrameType::kStreamOpen: {
      InboundCall call;
      call.call_id = f.call_id;
      call.method = f.method;
      call.payload = f.payload;
      if (trace::enabled() && f.trace.active()) {
        call.trace = {f.trace.trace_id, f.trace.span_id};
        // TCP wire + the wait until this reader parsed the frame, from
        // the client's send stamp.
        trace::Tracer::instance().record(
            trace::Stage::kXrpcInbound, call.trace, f.trace.send_ns,
            WallTimer::now(),
            f.type == FrameType::kRequest ? f.payload.size() : f.method.size());
      }
      call.respond = Responder(state_, f.call_id, call.trace);
      if (f.type == FrameType::kStreamOpen) {
        sink.on_stream_open(call);
      } else if (metrics_ != nullptr && f.method == kMetricsMethod) {
        // Built-in scrape endpoint: answered here, never reaches the sink.
        // dpulint: allow(hot-path): the metrics scrape renders the whole
        // registry as text — a monitoring call, not a datapath request.
        std::string text = metrics_->expose_text();
        // dpulint: allow(trace-pairing,hot-path): the scrape is not a
        // datapath traversal; no stage span precedes its direct reply.
        call.respond(Code::kOk, ByteSpan(reinterpret_cast<const std::byte*>(text.data()),
                                         text.size()));
      } else {
        sink.on_call(call);
      }
      return true;
    }
    case FrameType::kStreamChunk:
      sink.on_stream_chunk(f.call_id, f.payload);
      return true;
    case FrameType::kStreamEnd:
      sink.on_stream_end(f.call_id);
      return true;
    case FrameType::kStreamAbort:
      sink.on_stream_abort(f.call_id, f.status);
      return true;
    case FrameType::kResponse:
    case FrameType::kStreamCredit:
      break;
  }
  return Status(Code::kDataLoss, "client-bound frame sent to a server");
}

namespace {

/// The CallContext surface over the frame switch: each call's method and
/// payload are copied out of the reader, and stream events reach the
/// handler through its ServerStream callbacks.
class HandlerSink final : public CallSink {
 public:
  HandlerSink(const CallHandler& handler, std::atomic<uint64_t>& accepted,
              std::shared_ptr<ConnState> conn)
      : handler_(handler), accepted_(accepted), conn_(std::move(conn)) {}

  // The lane's sink (DpuProxy) takes views; this one copies by contract.
  // dpulint reaches these bodies from a lane only through the name of the
  // virtual call in dispatch_one, hence the waivers below.
  void on_call(const InboundCall& call) override {
    relaxed::add(accepted_, 1);
    CallContext ctx = context(call);
    // dpulint: allow(hot-path): CallContext owns its payload.
    ctx.payload.assign(call.payload.begin(), call.payload.end());
    handler_(std::move(ctx));
  }
  void on_stream_open(const InboundCall& call) override {
    relaxed::add(accepted_, 1);
    // dpulint: allow(hot-path): one ServerStream per stream open.
    auto stream = std::make_shared<ServerStream>(conn_, call.call_id);
    streams_[call.call_id] = stream;
    CallContext ctx = context(call);
    ctx.stream = std::move(stream);
    handler_(std::move(ctx));
  }
  void on_stream_chunk(uint32_t call_id, ByteSpan chunk) override {
    auto it = streams_.find(call_id);
    if (it != streams_.end()) it->second->deliver_chunk(Bytes(chunk.begin(), chunk.end()));
  }
  void on_stream_end(uint32_t call_id) override {
    if (auto stream = erase_stream(call_id)) stream->deliver_end();
  }
  void on_stream_abort(uint32_t call_id, Code code) override {
    if (auto stream = erase_stream(call_id)) stream->deliver_abort(code);
  }
  void on_disconnect() override {
    // Tell every live stream's owner, so each downstream resource drains.
    for (auto& [id, stream] : streams_) stream->deliver_abort(Code::kUnavailable);
    streams_.clear();
  }

 private:
  static CallContext context(const InboundCall& call) {
    CallContext ctx;
    ctx.method = std::string(call.method);
    ctx.trace = call.trace;
    ctx.respond = call.respond;
    return ctx;
  }
  std::shared_ptr<ServerStream> erase_stream(uint32_t call_id) {
    auto it = streams_.find(call_id);
    if (it == streams_.end()) return nullptr;
    auto stream = std::move(it->second);
    streams_.erase(it);
    return stream;
  }

  const CallHandler& handler_;
  std::atomic<uint64_t>& accepted_;
  std::shared_ptr<ConnState> conn_;
  /// call_id -> live inbound stream; reader-thread-only.
  std::map<uint32_t, std::shared_ptr<ServerStream>> streams_;
};

}  // namespace

void Server::connection_loop(std::shared_ptr<ServerConnection> conn) {
  HandlerSink sink(handler_, requests_accepted_, conn->state());
  while (!relaxed::load(stopping_)) {
    auto dispatched = conn->dispatch_one(sink);
    if (!dispatched.is_ok()) break;  // malformed: drop the connection
    if (*dispatched) continue;
    if (!conn->receive(/*block=*/true).is_ok()) break;  // closed or broken
  }
  sink.on_disconnect();
}

}  // namespace dpurpc::xrpc
