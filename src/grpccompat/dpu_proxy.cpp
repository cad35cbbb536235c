#include "grpccompat/dpu_proxy.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "arena/arena.hpp"
#include "common/cpu_timer.hpp"
#include "common/hot_path.hpp"
#include "metrics/metrics.hpp"
#include "trace/resource_sampler.hpp"

namespace dpurpc::grpccompat {

namespace {
// Per-lane cap on jobs out with the pool, decode and encode combined.
// Half the pool ring so the completion ring (same capacity) can always
// absorb every outstanding result even across the ring's power-of-two
// rounding.
constexpr size_t kMaxOutstandingJobs = 128;
constexpr size_t kCodecRingCapacity = 256;
// Backpressure retries per RDMA send (each pumps the event loop and waits
// up to 1 ms when nothing moved) before the lane gives up on the host.
constexpr int kMaxSendAttempts = 100000;
// Slice cap for the pool: unary payloads are bounded by the block size,
// but stream pieces (piece_target-sized, 8x decode inflation) need more
// headroom. Slices are sized from the wire first and only grow to the
// cap on arena exhaustion, so the larger cap costs nothing on the unary
// path.
constexpr size_t kPoolSliceCap = 4u << 20;

/// One protobuf varint at the front of [p, p+n). Returns its byte
/// length; 0 when the buffer ends mid-varint (caller decides between
/// "need more bytes" and "malformed" from how much it already has).
size_t read_varint(const std::byte* p, size_t n, uint64_t* out) {
  uint64_t v = 0;
  size_t limit = std::min<size_t>(n, 10);
  for (size_t i = 0; i < limit; ++i) {
    uint8_t b = static_cast<uint8_t>(p[i]);
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      *out = v;
      return i + 1;
    }
  }
  return 0;
}

constexpr size_t kMalformedRecord = SIZE_MAX;

/// Length of the complete top-level protobuf record at the front of
/// `data`: 0 = incomplete (need more bytes), kMalformedRecord = the
/// bytes can never parse. Repeated *message* fields are consecutive
/// such records, which is what makes the stream splittable here —
/// concatenation of record subsets is protobuf merge semantics.
size_t record_length(ByteSpan data) {
  uint64_t tag = 0;
  size_t tag_len = read_varint(data.data(), data.size(), &tag);
  if (tag_len == 0) return data.size() >= 10 ? kMalformedRecord : 0;
  if ((tag >> 3) == 0) return kMalformedRecord;  // field number 0
  switch (tag & 7u) {
    case 0: {  // varint
      uint64_t v = 0;
      size_t n = read_varint(data.data() + tag_len, data.size() - tag_len, &v);
      if (n == 0) {
        return data.size() - tag_len >= 10 ? kMalformedRecord : 0;
      }
      return tag_len + n;
    }
    case 1:  // fixed64
      return data.size() < tag_len + 8 ? 0 : tag_len + 8;
    case 2: {  // length-delimited
      uint64_t len = 0;
      size_t n = read_varint(data.data() + tag_len, data.size() - tag_len, &len);
      if (n == 0) {
        return data.size() - tag_len >= 10 ? kMalformedRecord : 0;
      }
      if (len > (1u << 31)) return kMalformedRecord;
      uint64_t total = tag_len + n + len;
      return total > data.size() ? 0 : static_cast<size_t>(total);
    }
    case 5:  // fixed32
      return data.size() < tag_len + 4 ? 0 : tag_len + 4;
    default:  // wire types 3/4 (groups): unsupported
      return kMalformedRecord;
  }
}

/// Monotone max on a relaxed stats cell (pollers race across lanes).
void note_peak(std::atomic<uint64_t>& cell, uint64_t value) {
  // dpulint: allow(relaxed-atomic): monitor-only monotone max — the cell is
  // a stats high-water mark read by tests/benches after quiescence; no data
  // is published through it, so relaxed CAS is the whole protocol.
  uint64_t seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         // dpulint: allow(relaxed-atomic): same monitor-only max protocol.
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// The reject rule: statuses that condemn the request itself — malformed
/// (kDataLoss, kInvalidArgument) or too large for any block
/// (kOutOfRange) — answer only that xRPC call. Everything else that is
/// not backpressure is a transport failure.
bool rejects_only_the_call(Code code) {
  return code == Code::kDataLoss || code == Code::kInvalidArgument ||
         code == Code::kOutOfRange;
}
}  // namespace

template <typename SendOnce, typename Gone>
Status DpuProxy::send_to_host(Lane& lane, SendOnce&& send_once, Gone&& gone) {
  for (int attempt = 0;; ++attempt) {
    Status st = send_once();
    if (st.code() != Code::kUnavailable && st.code() != Code::kResourceExhausted) {
      return st;
    }
    // Backpressure (no RDMA credit, full send buffer or ID pool): drain
    // the event loop and retry. Continuations run inside the pump.
    if (attempt > kMaxSendAttempts) return st;
    // dpulint: allow(hot-path): backpressure only (no credit, send buffer
    // or request id): the lane's own event-loop turn, run early.
    auto pumped = lane.client.event_loop_once();
    if (!pumped.is_ok()) return pumped.status();
    if (*pumped == 0) {
      flush_replies(lane);  // never hold finished replies across a wait
      // dpulint: allow(hot-path): backpressure only — §III.C's blocking
      // poll on the completion channel until the host frees credit.
      lane.conn->wait(1);
    }
    if (gone()) return st;
  }
}

DpuProxy::DpuProxy(rdmarpc::Connection* conn, const OffloadManifest* manifest)
    : DpuProxy(std::vector<rdmarpc::Connection*>{conn}, manifest) {}

DpuProxy::DpuProxy(const std::vector<rdmarpc::Connection*>& conns,
                   const OffloadManifest* manifest, int codec_workers)
    : manifest_(manifest),
      deserializer_(&manifest->adt()),
      serializer_(&manifest->adt()),
      reply_writes_total_(&metrics::default_counter(
          "dpurpc_xrpc_reply_writes_total",
          "Socket writes carrying DPU proxy xRPC replies (coalesced per "
          "connection per lane turn)")) {
  for (auto* conn : conns) {
    lanes_.push_back(std::make_unique<Lane>(conn, lanes_.size()));
  }
  dpu::CodecPool::Options pool_options;
  pool_options.workers = codec_workers;
  pool_options.ring_capacity = kCodecRingCapacity;
  pool_options.max_slice_bytes =
      std::max<size_t>(rdmarpc::kMaxPayloadSize, kPoolSliceCap);
  pool_ = std::make_unique<dpu::CodecPool>(
      &deserializer_, &serializer_, lanes_.size(), pool_options,
      // Completion wakeup: runs on the worker thread; interrupt() kicks
      // the lane poller out of conn->wait().
      [this](size_t lane) { lanes_[lane]->conn->interrupt(); });
}

DpuProxy::~DpuProxy() { stop(); }

StatusOr<uint16_t> DpuProxy::start() {
  auto listener = xrpc::Listener::create();
  if (!listener.is_ok()) return listener.status();
  listener_ = std::make_unique<xrpc::Listener>(std::move(*listener));
  pool_->start();
  for (auto& lane : lanes_) {
    lane->thread = std::thread([this, lane = lane.get()] { poller_loop(*lane); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return listener_->port();
}

void DpuProxy::stop() {
  if (stopped_.exchange(true)) return;
  relaxed::store(stopping_, true);
  if (listener_) listener_->shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& lane : lanes_) lane->conn->interrupt();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  // After the pollers: workers may be mid-job until here, and their
  // completion pushes bail out once the pool's stop flag is up. Results
  // still in the rings are freed with the pool; their calls were already
  // failed out by fail_pending on poller exit.
  pool_->stop();
}

void DpuProxy::accept_loop() {
  for (size_t next = 0;; ++next) {
    auto fd = listener_->accept();
    if (!fd.is_ok()) return;  // listener shut down: stop()
    // Pin the connection to a lane (§III.C: a dedicated poller per RDMA
    // connection); from here on only that lane touches the socket.
    Lane& lane = *lanes_[next % lanes_.size()];
    {
      lockdep::ScopedLock lk(lane.inbox_mu);
      lane.inbox.push_back(std::move(*fd));
    }
    lane.inbox_ready.store(true);
    lane.conn->interrupt();
  }
}

bool DpuProxy::adopt_connections(Lane& lane) {
  if (!lane.inbox_ready.exchange(false)) return false;
  std::vector<xrpc::Fd> fresh;
  {
    lockdep::ScopedLock lk(lane.inbox_mu);
    fresh.swap(lane.inbox);
  }
  for (xrpc::Fd& fd : fresh) {
    lane.conns.push_back(std::make_unique<LaneConn>(*this, lane, std::move(fd)));
  }
  return !fresh.empty();
}

bool DpuProxy::dispatch_buffered(Lane& lane, LaneConn& c, bool& did_work) {
  while (relaxed::load(lane.outstanding) < kMaxOutstandingJobs && lane.fault.is_ok()) {
    auto dispatched = c.conn.dispatch_one(c);
    if (!dispatched.is_ok()) return false;
    if (!*dispatched) break;
    did_work = true;
  }
  return true;
}

DPURPC_HOT_PATH Status DpuProxy::read_connections(Lane& lane, bool& did_work) {
  // Each turn starts one connection further on, so at the cap the free
  // slots go round the connections instead of to the first one.
  const size_t n = lane.conns.size();
  bool any_closed = false;
  for (size_t k = 0; k < n; ++k) {
    LaneConn& c = *lane.conns[(lane.first_conn + k) % n];
    // Frames a previous turn left at the cap go first, then one recv —
    // but only below the cap: a lane that cannot take more work leaves
    // the bytes in the socket, and TCP pushes back on the client.
    bool alive = dispatch_buffered(lane, c, did_work);
    if (alive && relaxed::load(lane.outstanding) < kMaxOutstandingJobs) {
      // dpulint: allow(hot-path): MSG_DONTWAIT — one recv per connection
      // per turn that never blocks.
      alive = c.conn.receive(/*block=*/false).is_ok() &&
              dispatch_buffered(lane, c, did_work);
    }
    if (!lane.fault.is_ok()) return lane.fault;
    if (!alive) {
      // Closed, broken or malformed: its open streams die with it. Calls
      // already forwarded still answer through their responders, which
      // hold the socket open until the last one is done.
      c.on_disconnect();
      c.closed = true;
      any_closed = true;
    }
  }
  lane.first_conn = n == 0 ? 0 : (lane.first_conn + 1) % n;
  if (any_closed) {
    std::erase_if(lane.conns, [](const std::unique_ptr<LaneConn>& c) { return c->closed; });
    did_work = true;
  }
  return Status::ok();
}

void DpuProxy::sleep(Lane& lane) {
  // Until the held request block's deadline; 1 ms while RDMA calls or
  // codec jobs are out (their completions wake us sooner); otherwise
  // until a socket, a completion or interrupt() wakes us.
  timespec timeout{0, 1'000'000};
  const timespec* until = &timeout;
  if (const uint64_t hold = lane.client.hold_deadline_ns(); hold != 0) {
    const uint64_t now = WallTimer::now();
    if (hold <= now) return;
    timeout.tv_nsec = static_cast<long>(std::min<uint64_t>(hold - now, 999'999'999));
  } else if (lane.client.in_flight() == 0 && relaxed::load(lane.outstanding) == 0) {
    until = nullptr;
  }
  simverbs::CompletionChannel& channel = lane.conn->channel();
  if (!channel.arm()) return;  // something completed during the turn
  lane.pollset.clear();
  lane.pollset.push_back({channel.fd(), POLLIN, 0});
  if (relaxed::load(lane.outstanding) < kMaxOutstandingJobs) {
    for (const auto& c : lane.conns) lane.pollset.push_back({c->conn.fd(), POLLIN, 0});
  }
  const int ready = ::ppoll(lane.pollset.data(), lane.pollset.size(), until, nullptr);
  channel.disarm(ready > 0 && (lane.pollset[0].revents & POLLIN) != 0);
}

void DpuProxy::LaneConn::on_call(const xrpc::InboundCall& call) {
  proxy.handle_call(lane, call);
}

// Stream frames leave the unary hot path here: per-stream state and the
// carry buffer grow within the stream budget, and scan_and_submit is a
// hot root of its own.
void DpuProxy::LaneConn::on_stream_open(const xrpc::InboundCall& call) {
  // dpulint: allow(hot-path): stream open — one ServerStream per stream.
  auto stream = std::make_shared<xrpc::ServerStream>(conn.state(), call.call_id);
  // dpulint: allow(hot-path): stream open — one ProxyStream per stream.
  const uint32_t sid = proxy.open_stream(lane, call, std::move(stream));
  // dpulint: allow(hot-path): one map entry per open stream.
  if (sid != 0) stream_ids[call.call_id] = sid;
}

void DpuProxy::LaneConn::on_stream_chunk(uint32_t call_id, ByteSpan chunk) {
  auto it = stream_ids.find(call_id);
  // dpulint: allow(hot-path): stream path (see above).
  if (it != stream_ids.end()) proxy.stream_chunk(lane, it->second, chunk);
}

void DpuProxy::LaneConn::on_stream_end(uint32_t call_id) {
  auto it = stream_ids.find(call_id);
  if (it == stream_ids.end()) return;
  const uint32_t sid = it->second;
  stream_ids.erase(it);
  // dpulint: allow(hot-path): stream path (see above).
  proxy.stream_end(lane, sid);
}

void DpuProxy::LaneConn::on_stream_abort(uint32_t call_id, Code) {
  auto it = stream_ids.find(call_id);
  if (it == stream_ids.end()) return;
  const uint32_t sid = it->second;
  stream_ids.erase(it);
  proxy.stream_abort(lane, sid);
}

void DpuProxy::LaneConn::on_disconnect() {
  for (const auto& [call_id, sid] : stream_ids) proxy.stream_abort(lane, sid);
  stream_ids.clear();
}

void DpuProxy::handle_call(Lane& lane, const xrpc::InboundCall& call) {
  const uint64_t t0 = call.trace.active() ? WallTimer::now() : 0;
  const MethodEntry* entry = manifest_->find_by_name(call.method);
  if (entry == nullptr) {
    // dpulint: allow(trace-pairing): unknown method — rejected before
    // any stage span exists, so there is no kComplete to record.
    lane.replies.add(call.respond, Code::kNotFound, {});
    return;
  }
  uint64_t dispatch_ns = 0;
  if (call.trace.active()) {
    // Method lookup on the lane, right after the frame switch parsed the
    // frame (where kXrpcInbound ended).
    dispatch_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kProxyDispatch, call.trace, t0,
                                     dispatch_ns);
  }
  Status st = submit_decode(lane, entry, call.payload, call.respond, call.trace,
                            dispatch_ns);
  if (!st.is_ok()) lane.fault = st;
}

uint32_t DpuProxy::open_stream(Lane& lane, const xrpc::InboundCall& call,
                               std::shared_ptr<xrpc::ServerStream> stream) {
  const uint64_t t0 = call.trace.active() ? WallTimer::now() : 0;
  const MethodEntry* entry = manifest_->find_by_name(call.method);
  if (entry == nullptr) {
    // dpulint: allow(trace-pairing): unknown method — rejected before
    // any stage span exists, so there is no kComplete to record.
    lane.replies.add(call.respond, Code::kNotFound, {});
    return 0;
  }
  const uint32_t sid = static_cast<uint32_t>(relaxed::add(next_stream_id_, 1)) + 1;
  auto ps = std::make_unique<ProxyStream>();
  ps->method = entry;
  ps->stream = std::move(stream);
  ps->respond = call.respond;
  ps->trace = call.trace;
  if (call.trace.active()) {
    ps->open_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kProxyDispatch, call.trace, t0,
                                     ps->open_ns);
  }
  xrpc::ServerStream* s = ps->stream.get();
  lane.streams.emplace(sid, std::move(ps));
  // Open the credit window: the client may ship up to the whole budget
  // before the first host ack re-grants — the proxy-side bound on held
  // bytes falls straight out of this being the only unearned credit.
  (void)s->grant(static_cast<uint32_t>(
      std::min<size_t>(stream_options_.per_stream_budget, UINT32_MAX)));
  return sid;
}

void DpuProxy::stream_chunk(Lane& lane, uint32_t stream_id, ByteSpan chunk) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;  // failed/aborted: drop quietly
  ProxyStream& ps = *it->second;
  ps.held_bytes += chunk.size();
  ps.total_bytes += chunk.size();
  relaxed::add(stats_.stream_held_bytes, chunk.size());
  note_peak(stats_.stream_peak_bytes, ps.held_bytes);
  ps.carry.insert(ps.carry.end(), chunk.begin(), chunk.end());
  Status st = scan_and_submit(lane, stream_id);
  if (!st.is_ok()) {
    fail_stream(lane, stream_id, st);
    return;
  }
  forward_ready(lane, stream_id);
}

void DpuProxy::stream_end(Lane& lane, uint32_t stream_id) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  ProxyStream& ps = *it->second;
  ps.ended = true;
  if (ps.trace.active()) {
    // Client-paced transfer: open → end-frame arrival. Chunk wire time,
    // credit stalls, and pool decode overlap all live in here; per-piece
    // decode cost shows on the kWorkerDecodeChunk global track.
    ps.end_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kStreamTransfer, ps.trace,
                                     ps.open_ns, ps.end_ns, ps.total_bytes);
  }
  Status st = scan_and_submit(lane, stream_id);
  if (!st.is_ok()) {
    fail_stream(lane, stream_id, st);
    return;
  }
  forward_ready(lane, stream_id);
  maybe_finish_stream(lane, stream_id);
}

void DpuProxy::stream_abort(Lane& lane, uint32_t stream_id) {
  // Dropping the entry frees carry/ready; chunk jobs still out with the
  // pool are dropped when their cookies pop in chunk_decoded.
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  relaxed::add(stats_.stream_aborts, 1);
  retire_stream_hold(*it->second);
  lane.streams.erase(it);
}

void DpuProxy::retire_stream_hold(ProxyStream& ps) noexcept {
  relaxed::sub(stats_.stream_held_bytes, ps.held_bytes);
  ps.held_bytes = 0;
}

DPURPC_HOT_PATH Status DpuProxy::scan_and_submit(Lane& lane, uint32_t stream_id) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return Status::ok();
  ProxyStream& ps = *it->second;
  size_t pos = 0;
  size_t piece_start = 0;
  // Cut [piece_start, pos) at record boundaries into ~piece_target
  // pieces; a trailing partial record stays in carry for the next chunk.
  while (pos < ps.carry.size()) {
    size_t rl = record_length(ByteSpan(ps.carry).subspan(pos));
    if (rl == kMalformedRecord) {
      return Status(Code::kInvalidArgument, "malformed stream chunk");
    }
    if (rl == 0) {
      // Incomplete record. If it can never fit under the piece cap, no
      // amount of further chunks will make it decodable.
      if (ps.carry.size() - pos > stream_options_.max_decoded_chunk) {
        return Status(Code::kResourceExhausted,
                      "stream record exceeds max_decoded_chunk");
      }
      break;
    }
    if (rl > stream_options_.max_decoded_chunk) {
      return Status(Code::kResourceExhausted,
                    "stream record exceeds max_decoded_chunk");
    }
    pos += rl;
    if (pos - piece_start < stream_options_.piece_target &&
        !(ps.ended && pos == ps.carry.size())) {
      continue;
    }
    // Emit [piece_start, pos) with the prefix hole up front — the same
    // buffer goes pool → ready → host without another copy.
    const size_t piece_bytes = pos - piece_start;
    // dpulint: allow(hot-path): the one designed allocation per piece —
    // the prefix-holed buffer that travels pool → ready → host without
    // another copy.
    Bytes buf(kStreamPrefixSize + piece_bytes);
    std::memcpy(buf.data() + kStreamPrefixSize, ps.carry.data() + piece_start,
                piece_bytes);
    piece_start = pos;
    const uint32_t seq = ps.next_piece_seq++;
    dpu::CodecJob job;
    job.kind = dpu::JobKind::kDecodeChunk;
    job.class_index = ps.method->input_class;
    job.cookie = ++lane.next_cookie;
    job.wire = std::move(buf);
    job.wire_offset = kStreamPrefixSize;
    if (try_submit(lane, job)) {
      lane.pending_chunks.emplace(job.cookie, std::make_pair(stream_id, seq));
      ++ps.decodes_in_pool;
      continue;
    }
    // Ring/budget full: validate-decode on the lane thread (overload
    // spill) and stage the piece as ready directly.
    relaxed::add(stats_.inline_decodes, 1);
    Bytes piece = std::move(job.wire);
    ByteSpan view(piece.data() + kStreamPrefixSize, piece_bytes);
    // dpulint: allow(hot-path): overload spill — ring/budget full, so the
    // lane thread validate-decodes inline (arena + deserializer allocate);
    // counted in inline_decodes, same posture as the pool's spill decode.
    arena::OwningArena scratch(piece_bytes * 8 + 1024);
    arena::AddressTranslator local{};
    // dpulint: allow(hot-path): same overload spill as above.
    auto obj = deserializer_.deserialize(ps.method->input_class, view, scratch,
                                         local);
    if (!obj.is_ok()) return obj.status();
    relaxed::add(stats_.stream_chunks, 1);
    ps.ready.emplace(seq, std::move(piece));
  }
  ps.carry.erase(ps.carry.begin(),
                 ps.carry.begin() + static_cast<ptrdiff_t>(piece_start));
  if (ps.ended && !ps.carry.empty()) {
    return Status(Code::kInvalidArgument, "stream ended mid-record");
  }
  return Status::ok();
}

void DpuProxy::chunk_decoded(Lane& lane, dpu::CodecResult result) {
  auto cit = lane.pending_chunks.find(result.cookie);
  if (cit == lane.pending_chunks.end()) return;
  auto [stream_id, seq] = cit->second;
  lane.pending_chunks.erase(cit);
  relaxed::sub(lane.outstanding, 1);
  auto sit = lane.streams.find(stream_id);
  if (sit == lane.streams.end()) return;  // stream died: buffers free here
  ProxyStream& ps = *sit->second;
  --ps.decodes_in_pool;
  if (!result.status.is_ok()) {
    relaxed::add(stats_.deserialize_failures, 1);
    fail_stream(lane, stream_id, result.status);
    return;
  }
  relaxed::add(stats_.stream_chunks, 1);
  // The decoded tree (result.slice) was the DPU's work product; what the
  // host needs is the validated wire piece, echoed back in result.wire
  // with its prefix hole intact. The slice frees right here.
  ps.ready.emplace(seq, std::move(result.wire));
  forward_ready(lane, stream_id);
  maybe_finish_stream(lane, stream_id);
}

void DpuProxy::forward_ready(Lane& lane, uint32_t stream_id) {
  // call_fragmented pumps the event loop while blocked, so continuations
  // (host acks, even failures that erase this very stream) can run inside
  // each iteration — always re-find the stream, never cache a reference
  // across a call.
  for (;;) {
    auto sit = lane.streams.find(stream_id);
    if (sit == lane.streams.end()) return;
    ProxyStream& ps = *sit->second;
    auto rit = ps.ready.find(ps.next_forward_seq);
    if (rit == ps.ready.end()) return;
    Bytes piece = std::move(rit->second);
    ps.ready.erase(rit);
    const uint32_t seq = ps.next_forward_seq++;
    const uint64_t payload_bytes = piece.size() - kStreamPrefixSize;
    write_stream_prefix(piece.data(), StreamPrefix{stream_id, seq, 0, 0});
    // Counted before the call: the host's ack can arrive inside
    // call_fragmented's internal event-loop pump.
    ++ps.rpcs_in_flight;
    const uint16_t method_id = ps.method->method_id;
    const uint64_t fwd_t0 = trace::enabled() ? WallTimer::now() : 0;
    Status st = send_to_host(
        lane,
        [&] {
          return lane.client.call_fragmented(
              method_id, ByteSpan(piece),
              [this, lane = &lane, stream_id, payload_bytes, fwd_t0](
                  const Status& rpc_result, const rdmarpc::InMessage&) {
                if (fwd_t0 != 0) {
                  // Per-piece forward RPCs share one stream trace, so the
                  // span goes on the global track (like kWorkerDecodeChunk)
                  // — a per-trace span per piece would break the tiling
                  // invariant.
                  trace::Tracer::instance().record_global(
                      trace::Stage::kStreamChunkForward, fwd_t0,
                      WallTimer::now(), payload_bytes);
                }
                stream_chunk_acked(*lane, stream_id, payload_bytes, rpc_result);
              });
        },
        [&] { return !lane.streams.contains(stream_id); });
    if (!st.is_ok()) {
      // A stream already failed inside the pump is gone: nothing to undo.
      auto again = lane.streams.find(stream_id);
      if (again != lane.streams.end()) --again->second->rpcs_in_flight;
      fail_stream(lane, stream_id, st);
      return;
    }
    relaxed::add(stats_.stream_bytes, payload_bytes);
    relaxed::add(lane.forwarded, 1);
  }
}

void DpuProxy::stream_chunk_acked(Lane& lane, uint32_t stream_id,
                                  uint64_t payload_bytes,
                                  const Status& rpc_result) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  ProxyStream& ps = *it->second;
  --ps.rpcs_in_flight;
  if (!rpc_result.is_ok()) {
    fail_stream(lane, stream_id, rpc_result);
    return;
  }
  // The host consumed the piece: release its budget and hand the freed
  // window back to the client — the grant that keeps the sender moving.
  uint64_t released = std::min<uint64_t>(ps.held_bytes, payload_bytes);
  ps.held_bytes -= released;
  relaxed::sub(stats_.stream_held_bytes, released);
  (void)ps.stream->grant(static_cast<uint32_t>(
      std::min<uint64_t>(payload_bytes, UINT32_MAX)));
  maybe_finish_stream(lane, stream_id);
}

void DpuProxy::maybe_finish_stream(Lane& lane, uint32_t stream_id) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  ProxyStream& ps = *it->second;
  if (!ps.ended || ps.end_sent || !ps.carry.empty() || !ps.ready.empty() ||
      ps.decodes_in_pool != 0 || ps.rpcs_in_flight != 0) {
    return;
  }
  ps.end_sent = true;
  if (ps.trace.active()) {
    // End frame → last piece acked by the host: the pool/RDMA drain tail
    // that keeps running after the client stopped sending.
    trace::Tracer::instance().record(trace::Stage::kStreamDrainWait, ps.trace,
                                     ps.end_ns, WallTimer::now(),
                                     ps.total_bytes);
  }
  // End marker: a bare prefix whose response is the stream's final xRPC
  // response. It rides the normal unary continuation tail, so offloaded
  // object responses and kComplete pairing come along unchanged.
  Bytes marker(kStreamPrefixSize);
  write_stream_prefix(marker.data(), StreamPrefix{stream_id, ps.next_piece_seq,
                                                  kStreamPrefixEnd, 0});
  xrpc::Responder respond = ps.respond;
  trace::TraceContext tctx = ps.trace;
  uint16_t method_id = ps.method->method_id;
  ++ps.rpcs_in_flight;  // keeps the entry pinned until the continuation
  Status st = send_to_host(
      lane,
      [&] {
        return lane.client.call_fragmented(
            method_id, ByteSpan(marker),
            [this, lane = &lane, stream_id, respond, tctx](
                const Status& rpc_result, const rdmarpc::InMessage& resp) {
              auto sit = lane->streams.find(stream_id);
              if (sit != lane->streams.end()) {
                retire_stream_hold(*sit->second);
                lane->streams.erase(sit);
              }
              complete_response(*lane, respond, tctx, rpc_result, resp);
            },
            tctx);
      },
      [&] { return !lane.streams.contains(stream_id); });
  if (!st.is_ok()) {
    auto sit = lane.streams.find(stream_id);
    // Failed (and answered) inside the pump: the client has its reply.
    if (sit == lane.streams.end()) return;
    retire_stream_hold(*sit->second);
    lane.streams.erase(sit);
    relaxed::add(stats_.stream_aborts, 1);
    // dpulint: allow(trace-pairing): end-marker send failure — the stream
    // never completed a datapath traversal, so no kComplete span exists.
    lane.replies.add(respond, st.code(), {});
  }
}

void DpuProxy::fail_stream(Lane& lane, uint32_t stream_id, const Status& why) {
  auto it = lane.streams.find(stream_id);
  if (it == lane.streams.end()) return;
  xrpc::Responder respond = std::move(it->second->respond);
  retire_stream_hold(*it->second);
  lane.streams.erase(it);
  relaxed::add(stats_.stream_aborts, 1);
  // dpulint: allow(trace-pairing): failed stream — dropped before
  // completing a datapath traversal, so no kComplete span exists.
  lane.replies.add(respond, why.code() == Code::kOk ? Code::kInternal : why.code(),
                   {});
}

DPURPC_HOT_PATH Status DpuProxy::submit_decode(Lane& lane, const MethodEntry* entry,
                                               ByteSpan payload,
                                               const xrpc::Responder& respond,
                                               const trace::TraceContext& tctx,
                                               uint64_t dispatch_ns) {
  uint64_t submit_ns = 0;
  if (tctx.active()) {
    // Frame parse → dispatch: with no queue in between, only the method
    // lookup's tail separates them.
    submit_ns = WallTimer::now();
    trace::Tracer::instance().record(trace::Stage::kLaneQueueWait, tctx, dispatch_ns,
                                     submit_ns);
  }
  if (payload.size() > kInlineCodecMaxBytes) {
    dpu::CodecJob job;
    job.kind = dpu::JobKind::kDecode;
    job.class_index = entry->input_class;
    job.cookie = ++lane.next_cookie;
    // dpulint: allow(hot-path): the pool-bound payload's one copy — the
    // job carries its bytes to another thread while the socket buffer
    // moves on.
    job.wire.assign(payload.begin(), payload.end());
    job.trace = tctx;
    job.submit_ns = submit_ns;
    if (try_submit(lane, job)) {
      // dpulint: allow(hot-path): per-job bookkeeping on the pool route,
      // whose ring handoff costs microseconds anyway.
      lane.pending.emplace(job.cookie, PendingDecode{entry, respond, tctx});
      return Status::ok();
    }
    // Ring/budget full (or shutting down): spill to the lane thread rather
    // than block — the inline path is bit-identical in output.
  }
  // Small request (decoding it here costs less than the pool handoff) or
  // spill: deserialize straight from the socket buffer into the block
  // arena, pointers already in host space (§V). The hint reflects that
  // the deserialized object is usually a small multiple of the wire size
  // (varints expand, headers/bitfields add a constant).
  relaxed::add(stats_.inline_decodes, 1);
  auto hint = static_cast<uint32_t>(
      std::min<uint64_t>(rdmarpc::kMaxPayloadSize, payload.size() * 4 + 256));
  // Two pointers of capture, so the builder function stores them inline.
  struct {
    uint32_t input_class;
    ByteSpan payload;
  } req{entry->input_class, payload};
  return forward(
      lane, entry, respond, tctx, hint,
      [this, &req](arena::Arena& arena, const arena::AddressTranslator& xlate)
          -> StatusOr<uint32_t> {
        // dpulint: allow(hot-path): plan-driven decode builds the tree in
        // the send block's arena; exhaustion is a status, never a malloc.
        auto obj = deserializer_.deserialize(req.input_class, req.payload, arena, xlate);
        if (!obj.is_ok()) return obj.status();
        return static_cast<uint32_t>(arena.used());
      });
}

DPURPC_HOT_PATH void DpuProxy::complete_response(Lane& lane,
                                                 const xrpc::Responder& respond,
                                                 const trace::TraceContext& tctx,
                                                 const Status& result,
                                                 const rdmarpc::InMessage& resp) {
  uint64_t t0 = tctx.active() ? WallTimer::now() : 0;
  relaxed::add(stats_.responses_forwarded, 1);
  // kComplete is recorded BEFORE the reply joins the lane's batch: the
  // instant the client sees the response it records the root span and the
  // collector may finalize the tree, so every server-side span must
  // already be in its thread's ring by then. The batch wait and the write
  // are covered client-side by kXrpcOutbound, which starts at the send
  // stamp taken when the frame is appended.
  auto complete_span = [&] {
    if (tctx.active()) {
      trace::Tracer::instance().record(trace::Stage::kComplete, tctx, t0,
                                       WallTimer::now());
    }
  };
  if (!result.is_ok()) {
    complete_span();
    lane.replies.add(respond, result.code(), {});
  } else if ((resp.header.flags & rdmarpc::kFlagInPlaceObject) != 0) {
    // The reply object crossed a trust boundary: a class index outside the
    // shipped ADT is a malformed reply. Answer only this call with
    // kDataLoss (the reject rule) rather than index past the class table.
    if (resp.header.aux >= manifest_->adt().class_count()) {
      complete_span();
      lane.replies.add(respond, Code::kDataLoss, {});
      return;
    }
    // Offloaded response: the host handed back an object, not bytes.
    // A large one is serialized on the codec pool; the receive block is
    // acked the moment this continuation returns, so the object is copied
    // out into an owned slice first (inside submit_encode). kComplete for
    // that reply is recorded by finish_encoded; t0 doubles as the encode
    // ring-wait start so the copy-out is accounted, not hidden.
    if (resp.payload.size() > kInlineCodecMaxBytes &&
        submit_encode(lane, respond, tctx, resp, t0)) {
      return;
    }
    // Small object, or budget/ring full: serialize on the lane thread,
    // straight from the receive block — bit-identical bytes.
    relaxed::add(stats_.inline_serializes, 1);
    lane.wire.clear();
    // dpulint: allow(hot-path): plan-driven emit appends into the lane's
    // scratch, whose capacity persists across replies.
    Status st = serializer_.serialize(
        adt::ObjectRef(resp.header.aux, resp.payload_addr), lane.wire);
    complete_span();
    lane.replies.add(respond, st.is_ok() ? Code::kOk : st.code(), ByteSpan(lane.wire));
  } else {
    complete_span();
    lane.replies.add(respond, Code::kOk, resp.payload);
  }
}

bool DpuProxy::submit_encode(Lane& lane, const xrpc::Responder& respond,
                             const trace::TraceContext& tctx,
                             const rdmarpc::InMessage& resp, uint64_t submit_ns) {
  const size_t bytes = resp.payload.size();
  dpu::ScratchSlice slice = dpu::ScratchSlice::allocate(bytes);
  if (!slice) return false;
  // The response tree occupies [payload_addr, payload_addr + size) with
  // its root at offset 0 (rdmarpc's in-place commit guarantees it), and
  // its pointers are receiver-local. Copying with rebase 0 makes the copy
  // fully local to the slice — serializable from any thread, any time.
  deserializer_.copy_relocated(resp.header.aux, resp.payload_addr, bytes,
                               slice.data(), /*rebase=*/0);

  dpu::CodecJob job;
  job.kind = dpu::JobKind::kEncode;
  job.class_index = resp.header.aux;
  job.cookie = ++lane.next_cookie;
  job.object = std::move(slice);
  job.object_used = static_cast<uint32_t>(bytes);
  job.obj_offset = 0;
  job.trace = tctx;
  job.submit_ns = submit_ns;
  if (!try_submit(lane, job)) return false;
  lane.pending_encodes.emplace(job.cookie, PendingEncode{respond, tctx});
  return true;
}

void DpuProxy::finish_encoded(Lane& lane, dpu::CodecResult result) {
  uint64_t t0 = WallTimer::now();
  auto it = lane.pending_encodes.find(result.cookie);
  if (it == lane.pending_encodes.end()) return;  // failed out already
  PendingEncode pending = std::move(it->second);
  lane.pending_encodes.erase(it);
  relaxed::sub(lane.outstanding, 1);

  if (pending.trace.active()) {
    // Completion-ring pop + pending-map retirement for a pool-serialized
    // reply. Recorded before the responder write for the same reason as
    // complete_response: once the client observes the reply, the tree may
    // finalize.
    trace::Tracer::instance().record(trace::Stage::kComplete, pending.trace,
                                     t0, WallTimer::now());
  }
  if (result.status.is_ok()) {
    relaxed::add(stats_.offloaded_responses, 1);
    lane.replies.add(pending.respond, Code::kOk, ByteSpan(result.wire));
  } else {
    lane.replies.add(pending.respond, result.status.code(), {});
  }
}

bool DpuProxy::try_submit(Lane& lane, dpu::CodecJob& job) {
  if (relaxed::load(lane.outstanding) >= kMaxOutstandingJobs ||
      !pool_->submit(lane.index, job)) {
    return false;
  }
  relaxed::add(lane.outstanding, 1);
  return true;
}

Status DpuProxy::request_decoded(Lane& lane, dpu::CodecResult result) {
  auto it = lane.pending.find(result.cookie);
  if (it == lane.pending.end()) return Status::ok();  // failed out already
  PendingDecode pending = std::move(it->second);
  lane.pending.erase(it);
  relaxed::sub(lane.outstanding, 1);

  if (!result.status.is_ok()) {
    // Per-request decode failure (malformed payload, oversized message):
    // reject it to the xRPC client; the datapath stays healthy.
    relaxed::add(stats_.deserialize_failures, 1);
    // dpulint: allow(trace-pairing): decode-failure reject — the request
    // never completed a datapath traversal, so no kComplete span exists.
    lane.replies.add(pending.respond, result.status.code(), {});
    return Status::ok();
  }

  const MethodEntry* entry = pending.method;
  // Two pointers of capture, so the builder function stores them inline.
  struct {
    uint32_t input_class;
    const dpu::CodecResult& result;
  } decoded{entry->input_class, result};
  return forward(
      lane, entry, pending.respond, pending.trace, result.used,
      // The tree is already decoded (fully local to the worker's scratch
      // slice); copy it into the block payload and rebase every pointer
      // into the host's address space. Equivalent to having deserialized
      // straight into the block.
      [this, &decoded](arena::Arena& arena, const arena::AddressTranslator& xlate)
          -> StatusOr<uint32_t> {
        const dpu::CodecResult& slice = decoded.result;
        // kPayloadAlign placement = offset 0 of the payload, exactly where
        // the receiver expects the root object; the 64-aligned scratch
        // base keeps every interior alignment intact.
        void* dst = arena.allocate(slice.used, kPayloadAlign);
        if (dst == nullptr) {
          return Status(Code::kResourceExhausted, "block cannot hold decoded object");
        }
        deserializer_.copy_relocated(decoded.input_class, slice.slice.data(),
                                     slice.used, static_cast<std::byte*>(dst),
                                     xlate.delta, slice.obj_offset);
        return static_cast<uint32_t>(arena.used());
      });
}

DPURPC_HOT_PATH Status DpuProxy::forward(Lane& lane, const MethodEntry* entry,
                                         const xrpc::Responder& respond,
                                         const trace::TraceContext& tctx, uint32_t hint,
                                         const rdmarpc::RpcClient::InPlaceBuilder& build) {
  ReplyRoute* route = lane.free_routes;
  if (route != nullptr) {
    lane.free_routes = route->next_free;
  } else {
    // dpulint: allow(hot-path): the route table grows to the lane's peak
    // number of calls out with the host, then only reuses its entries.
    route = &lane.routes.emplace_back();
    route->lane = &lane;
  }
  route->respond = respond;
  route->trace = tctx;
  Status st = send_to_host(
      lane,
      [&] {
        // dpulint: allow(hot-path): the rdmarpc engine appends to block
        // and request lists that keep their capacity (steadystate_alloc
        // counts what it allocates per request).
        return lane.client.call_inplace(
            entry->method_id, static_cast<uint16_t>(entry->input_class), hint,
            build,
            // Continuation: the copy-path response is already serialized by
            // the host; an offloaded response (kFlagInPlaceObject) arrives
            // as an in-place object the DPU serializes (§III.A extension).
            // Two pointers: the function stores them inline, no heap.
            [this, route](const Status& rpc_result, const rdmarpc::InMessage& resp) {
              complete_response(*route->lane, route->respond, route->trace, rpc_result,
                                resp);
              release_route(*route);
            },
            tctx);
      },
      [] { return false; });
  if (st.is_ok()) {
    relaxed::add(stats_.offloaded_requests, 1);
    relaxed::add(lane.forwarded, 1);
    return Status::ok();
  }
  release_route(*route);
  if (!rejects_only_the_call(st.code())) return st;
  relaxed::add(stats_.deserialize_failures, 1);
  // dpulint: allow(trace-pairing): reject of a malformed or oversized
  // request — it never completed a datapath traversal, no kComplete span.
  lane.replies.add(respond, st.code(), {});
  return Status::ok();
}

void DpuProxy::release_route(ReplyRoute& route) noexcept {
  route.respond = xrpc::Responder();  // drop the connection reference
  route.next_free = route.lane->free_routes;
  route.lane->free_routes = &route;
}

void DpuProxy::fail_pending(Lane& lane) {
  // Discard any results the pool already finished (their slices/bytes free
  // with the ring entries), then fail every call still waiting on a job.
  dpu::CodecResult result;
  while (pool_->try_pop_result(lane.index, result)) {
    lane.pending.erase(result.cookie);
    lane.pending_encodes.erase(result.cookie);
    lane.pending_chunks.erase(result.cookie);
  }
  for (auto& [sid, ps] : lane.streams) {
    retire_stream_hold(*ps);
    // dpulint: allow(trace-pairing): shutdown path — live streams are
    // failed wholesale; their traces are abandoned, not completed.
    lane.replies.add(ps->respond, Code::kUnavailable, {});
  }
  lane.streams.clear();
  lane.pending_chunks.clear();
  for (auto& [cookie, pending] : lane.pending) {
    // dpulint: allow(trace-pairing): shutdown path — pending calls are
    // failed wholesale; their traces are abandoned, not completed.
    lane.replies.add(pending.respond, Code::kUnavailable, {});
  }
  lane.pending.clear();
  for (auto& [cookie, pending] : lane.pending_encodes) {
    lane.replies.add(pending.respond, Code::kUnavailable, {});
  }
  lane.pending_encodes.clear();
  relaxed::store(lane.outstanding, 0);
  flush_replies(lane);
}

void DpuProxy::flush_replies(Lane& lane) {
  // dpulint: allow(hot-path): one send per connection per turn, under the
  // connection's uncontended frame lock (the name also matches the RDMA
  // block flush, which this is not).
  const size_t writes = lane.replies.flush();
  if (writes == 0) return;
  relaxed::add(stats_.reply_writes, writes);
  reply_writes_total_->inc(writes);
}

void DpuProxy::poller_loop(Lane& lane) {
  // Run to completion (§III.C, §IV): each turn reads every owned socket
  // and dispatches its frames straight into the codec pool or the send
  // block, ships finished codec jobs, runs one event-loop turn and writes
  // the turn's replies; only then, with nothing done, does it sleep. A
  // partial request block that opened while the host still owed replies
  // keeps filling for up to RpcClient::kMaxHoldNs
  // (PartialBlock::kHoldWhileBusy), so under load the host wakes once
  // per block rather than once per few requests.
  while (!relaxed::load(stopping_)) {
    bool did_work = adopt_connections(lane);
    Status st = read_connections(lane, did_work);
    dpu::CodecResult result;
    while (st.is_ok() && pool_->try_pop_result(lane.index, result)) {
      did_work = true;
      if (result.kind == dpu::JobKind::kEncode) {
        finish_encoded(lane, std::move(result));
      } else if (result.kind == dpu::JobKind::kDecodeChunk) {
        chunk_decoded(lane, std::move(result));
      } else {
        st = request_decoded(lane, std::move(result));
      }
    }
    if (st.is_ok()) {
      auto pumped = lane.client.event_loop_once(
          rdmarpc::RpcClient::PartialBlock::kHoldWhileBusy);
      st = pumped.status();
      if (st.is_ok() && *pumped > 0) did_work = true;
    }
    if (!st.is_ok()) {
      // Datapath failure: stop the proxy.
      relaxed::store(stopping_, true);
      break;
    }
    // End of the turn: one send per connection for every reply it
    // finished, before anything below can block.
    flush_replies(lane);
    if (!did_work) sleep(lane);
  }
  fail_pending(lane);
  // Close the lane's sockets, the ones still in its inbox too (stop()
  // joins the acceptor first): their clients see the connection end.
  adopt_connections(lane);
  for (auto& c : lane.conns) c->conn.state()->fd.shutdown();
  lane.conns.clear();
}

void DpuProxy::register_resource_probes(trace::ResourceSampler& sampler) const {
  // Everything read here is an atomic the datapath already maintains —
  // probing costs the datapath nothing and the sampler thread never takes
  // a lock. Names become counter-track titles and probe= gauge labels.
  for (size_t i = 0; i < lanes_.size(); ++i) {
    std::string prefix = "lane" + std::to_string(i);
    sampler.add_probe(prefix + "_outstanding_jobs", [this, i] {
      return static_cast<double>(lane_outstanding(i));
    });
    sampler.add_probe(prefix + "_codec_ring_depth", [this, i] {
      return static_cast<double>(pool_->lane_queue_depth(i));
    });
    const rdmarpc::Connection* conn = lanes_[i]->conn;
    sampler.add_probe(prefix + "_rdma_credits", [conn] {
      return static_cast<double>(conn->credits_available());
    });
  }
  for (size_t w = 0; w < pool_->worker_count(); ++w) {
    // Busy fraction over the sampling interval: Δbusy_ns / Δwall_ns,
    // clamped to [0,1]. State lives in the closure (one per probe; the
    // sampler calls each probe from one thread).
    auto prev = std::make_shared<std::pair<uint64_t, uint64_t>>(
        pool_->worker_stats(w).busy_ns, WallTimer::now());
    sampler.add_probe("worker" + std::to_string(w) + "_busy_fraction",
                      [this, w, prev] {
                        uint64_t busy = pool_->worker_stats(w).busy_ns;
                        uint64_t now = WallTimer::now();
                        uint64_t dwall = now - prev->second;
                        double frac =
                            dwall == 0 ? 0.0
                                       : static_cast<double>(busy - prev->first) /
                                             static_cast<double>(dwall);
                        *prev = {busy, now};
                        return std::clamp(frac, 0.0, 1.0);
                      });
  }
  sampler.add_probe("stream_held_bytes", [this] {
    return static_cast<double>(relaxed::load(stats_.stream_held_bytes));
  });
}

}  // namespace dpurpc::grpccompat
