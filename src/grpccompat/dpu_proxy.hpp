// The DPU-side proxy: terminates xRPC and offloads the codec, both ways.
//
// This is the middle-man of Fig. 1. It runs the xRPC server (so xRPC
// clients only change the address they dial, §III.A), deserializes each
// request's protobuf payload into the RPC over RDMA send block — emitting
// pointers in the host's address space — and forwards it. The host's
// business logic replies either with serialized bytes (carried through
// unchanged) or with an in-place response *object* (kFlagInPlaceObject),
// which the proxy serializes on the DPU so the host pays zero codec cost
// in either direction.
//
// Threading (§III.C + lane sharding, DESIGN.md §3.14/§3.16): one poller
// thread (lane) per RDMA connection owns that connection's RpcClient and
// event loop, and the xRPC connections the acceptor hands it round-robin
// — the only cross-thread handoff on the request side. Each lane turn
// reads every owned socket once without blocking (one recv per
// connection into its FrameReader) and dispatches each complete frame
// straight into submit_decode or the stream functions, with method and
// payload as views into the socket buffer: no queue, no reader thread,
// no per-request wake-up. An idle lane sleeps in one poll() over its
// sockets plus its RDMA completion channel's fd, with a held request
// block's deadline as the timeout; RDMA and codec completions wake it
// through that fd. A lane whose codec budget is full takes its sockets
// out of that poll and stops reading, so overload reaches the client
// through TCP. The codec itself is sharded off the lanes onto a
// full-duplex CodecPool sized from the DPU core count. Request
// direction: the poller hands the wire bytes to the pool through a
// per-lane ring, the worker decodes into a private fully-local scratch
// slice, and the poller memcpys the finished slice into the send block
// and relocates its pointers into host space. Response direction: when
// the host answers with an in-place object, the poller copies the object
// out of the receive block into a fully-local slice (the block is acked
// as soon as the continuation returns), hands it to the pool as an
// encode descriptor, and a worker runs the compiled serialize plan; the
// poller then only has to hand the finished wire bytes to the xRPC
// responder. A lane whose codec work is slow therefore queues against
// the pool, not against its siblings, and idle workers steal the
// backlog.
//
// Small jobs skip the pool (size routing, DESIGN.md §3.14): a request
// whose wire payload, or an in-place reply whose object, is at most
// kInlineCodecMaxBytes is decoded/serialized on the lane thread itself —
// the same inline paths the pool-full spill uses. A codec job that small
// costs no more than the ring handoff and worker wake-up it would pay.
// The lane thread is a DPU core, so the host still does no codec work.
//
// One host-forward path (DESIGN.md §3.14): every RDMA send — a unary
// request, a stream piece, a stream's end marker — goes through one
// backpressure loop (send_to_host). Unary requests share one forward
// whose only variable is the builder that fills the send block: the lane
// builder deserializes the wire bytes there, the pool builder copies a
// worker-decoded slice and relocates it. One reject rule reads the
// result: kUnavailable/kResourceExhausted is backpressure and retries; a
// malformed request (kDataLoss, kInvalidArgument) or one whose object
// cannot fit even a maximum-size block (kOutOfRange) is answered with
// that status and touches nothing else; any other status is a transport
// failure and fails the lane.
//
// Replies leave in batches (DESIGN.md §3.14, "the xRPC hop writes in
// batches too"): every reply a lane finishes joins its xrpc::ReplyBatch,
// and the lane writes each connection's frames with one send at the end
// of the poller turn, before any wait, and on exit. Requests do too: a
// partial request block that opened while the host owed replies keeps
// filling for up to RpcClient::kMaxHoldNs before the lane ships it.
#pragma once

#include <poll.h>

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/lockdep.hpp"
#include "common/relaxed.hpp"
#include "common/thread_annotations.hpp"
#include "dpu/codec_pool.hpp"
#include "metrics/metrics.hpp"
#include "grpccompat/manifest.hpp"
#include "grpccompat/stream_wire.hpp"
#include "rdmarpc/client.hpp"
#include "trace/trace.hpp"
#include "xrpc/server.hpp"

namespace dpurpc::trace {
class ResourceSampler;
}

namespace dpurpc::grpccompat {

/// Size cutoff of the codec-job routing: request payloads and in-place
/// reply objects of at most this many bytes run on the lane thread; only
/// larger ones (and stream pieces) go to the codec pool. perfbench's
/// layer numbers put one pool round trip (dpu.handoff_ns) at ~2.8 us
/// against ~0.2 us to decode an 18-byte request (adt.decode_ns); even
/// the worst case at the cutoff, ~1000 one-byte varints at ~2.7 ns each
/// (wire.varint_decode_ns_per_val), costs no more than that handoff.
inline constexpr size_t kInlineCodecMaxBytes = 1024;

struct DpuProxyStats {
  std::atomic<uint64_t> offloaded_requests{0};
  std::atomic<uint64_t> deserialize_failures{0};
  std::atomic<uint64_t> responses_forwarded{0};
  /// Codec jobs decoded on the lane thread instead of the pool: unary
  /// requests of at most kInlineCodecMaxBytes, plus any request or stream
  /// piece spilled because the pool ring (or the lane's outstanding
  /// budget) was full.
  std::atomic<uint64_t> inline_decodes{0};
  /// In-place object responses serialized by the codec pool.
  std::atomic<uint64_t> offloaded_responses{0};
  /// In-place object responses serialized on the lane thread: objects of
  /// at most kInlineCodecMaxBytes, plus larger ones spilled because the
  /// pool ring (or the lane's outstanding budget) was full.
  std::atomic<uint64_t> inline_serializes{0};
  /// Streaming: chunk pieces decoded on the pool, payload bytes shipped
  /// through streams, and the high-water mark of bytes any single stream
  /// held inside the proxy (carry + pieces awaiting host ack) — the
  /// bounded-memory invariant fig11_shuffle asserts against the budget.
  std::atomic<uint64_t> stream_chunks{0};
  std::atomic<uint64_t> stream_bytes{0};
  std::atomic<uint64_t> stream_peak_bytes{0};
  /// Bytes currently held inside the proxy across all streams (carry +
  /// pieces awaiting host ack) — the live value whose per-stream peak is
  /// stream_peak_bytes. A resource-sampler probe tracks it over time.
  std::atomic<uint64_t> stream_held_bytes{0};
  /// Streams dropped before completion: client aborts, connection loss,
  /// malformed chunks, decode failures.
  std::atomic<uint64_t> stream_aborts{0};
  /// Socket writes the lanes made for xRPC replies: one per connection
  /// per turn, plus any forced by the batch's size cap.
  /// responses_forwarded divided by this is the replies-per-write
  /// coalescing factor (NOT_FOUND answers add writes, not responses).
  std::atomic<uint64_t> reply_writes{0};
};

/// Per-stream resource policy (set_stream_options, before start()).
struct StreamOptions {
  /// Byte-credit window granted to the client at open; the proxy never
  /// holds more than this per stream — further credit is granted only as
  /// the host acks forwarded chunks (the backpressure chain's middle
  /// link: xRPC credit → this budget → RDMA block credits).
  size_t per_stream_budget = 1u << 20;
  /// Decoded-piece size target: the boundary scan cuts the stream into
  /// whole-record pieces of roughly this many bytes per kDecodeChunk job.
  size_t piece_target = 160u << 10;
  /// Hard cap on one piece (a single wire record larger than this aborts
  /// the stream — it could never decode within the pool's slice cap).
  size_t max_decoded_chunk = 2u << 20;
};

class DpuProxy {
 public:
  /// Single-connection proxy (one poller lane).
  DpuProxy(rdmarpc::Connection* conn, const OffloadManifest* manifest);

  /// Multi-connection proxy: one dedicated poller thread per connection
  /// (§III.C); incoming xRPC connections are pinned to lanes round-robin.
  /// `codec_workers` sizes the codec pool: 0 → dpu::DeviceInfo cores
  /// (DPURPC_DPU_CORES overrides), clamped to the lane count.
  DpuProxy(const std::vector<rdmarpc::Connection*>& conns,
           const OffloadManifest* manifest, int codec_workers = 0);

  ~DpuProxy();

  /// Start the xRPC listener, the codec pool, and the poller lanes.
  /// Returns the TCP port xRPC clients should dial (the "DPU's address").
  StatusOr<uint16_t> start();
  void stop();

  /// Override the per-stream resource policy. Call before start().
  void set_stream_options(const StreamOptions& options) {
    stream_options_ = options;
  }
  const StreamOptions& stream_options() const noexcept {
    return stream_options_;
  }

  const DpuProxyStats& stats() const noexcept { return stats_; }
  size_t lane_count() const noexcept { return lanes_.size(); }
  /// Requests forwarded through lane `i` (load-balance introspection).
  /// Safe against racing monitor reads at any time: out-of-range lanes
  /// (including a size observed mid-shutdown) read as zero rather than
  /// throwing.
  uint64_t lane_requests(size_t i) const noexcept {
    return i < lanes_.size() ? relaxed::load(lanes_[i]->forwarded) : 0;
  }
  /// Codec jobs lane `i` currently has out with the pool (its share of
  /// the outstanding budget). Same monitor-read contract as
  /// lane_requests: racy, out-of-range reads as zero.
  uint64_t lane_outstanding(size_t i) const noexcept {
    return i < lanes_.size()
               ? static_cast<uint64_t>(relaxed::load(lanes_[i]->outstanding))
               : 0;
  }
  /// The codec pool (per-worker stats; see CodecPool::worker_stats).
  const dpu::CodecPool& codec_pool() const noexcept { return *pool_; }

  /// Register this proxy's occupancy probes (per-lane outstanding codec
  /// jobs, codec-ring depths, RDMA credit occupancy, per-worker busy
  /// fractions, stream-budget holds) on a resource sampler. Probes read
  /// atomics only and stay valid until the proxy is destroyed; the
  /// sampler must stop before that.
  void register_resource_probes(trace::ResourceSampler& sampler) const;

 private:
  /// A call whose payload is out with the codec pool's decode direction;
  /// keyed by cookie.
  struct PendingDecode {
    const MethodEntry* method;
    xrpc::Responder respond;
    trace::TraceContext trace;
  };
  /// A reply whose object is out with the codec pool's encode direction;
  /// keyed by cookie (the cookie space is shared with decodes but the
  /// maps are separate, so no collision is possible).
  struct PendingEncode {
    xrpc::Responder respond;
    trace::TraceContext trace;
  };

  /// One inbound streaming call, owned by its lane's poller thread.
  /// Lifecycle: created at kStreamOpen (grants the whole budget to the
  /// client), accumulates chunk bytes into `carry`, cuts whole-record
  /// pieces into kDecodeChunk jobs, reorders decoded pieces by sequence
  /// in `ready`, forwards them in order to the host as prefixed
  /// (fragmented) RPCs, re-grants credit per host ack, and — once the
  /// end frame arrived and everything drained — sends the end marker
  /// whose response becomes the final xRPC response. Destroying the
  /// entry frees every held buffer; results still out with the pool are
  /// dropped when their cookies pop.
  struct ProxyStream {
    const MethodEntry* method = nullptr;
    std::shared_ptr<xrpc::ServerStream> stream;
    xrpc::Responder respond;
    trace::TraceContext trace;
    uint64_t open_ns = 0;  ///< kStreamTransfer start (open dispatch stamp)
    uint64_t end_ns = 0;   ///< end-frame arrival: transfer/drain boundary
    /// Bytes received but not yet cut at a record boundary.
    Bytes carry;
    /// Decoded pieces (prefix hole + raw bytes) awaiting in-order forward.
    std::map<uint32_t, Bytes> ready;
    uint32_t next_piece_seq = 0;    ///< assigned at kDecodeChunk submit
    uint32_t next_forward_seq = 0;  ///< next piece owed to the host
    /// Budget accounting: bytes inside the proxy (carry + cut pieces)
    /// until the host acks them; the client got exactly
    /// per_stream_budget of credit up front, so this never exceeds it.
    uint64_t held_bytes = 0;
    uint64_t total_bytes = 0;
    size_t decodes_in_pool = 0;
    size_t rpcs_in_flight = 0;
    bool ended = false;
    bool end_sent = false;
  };

  struct Lane;

  /// Where a forwarded unary call's reply goes. Routes live in a per-lane
  /// table and are reused, so the RDMA continuation captures two pointers
  /// and a forward allocates nothing.
  struct ReplyRoute {
    Lane* lane = nullptr;
    xrpc::Responder respond;
    trace::TraceContext trace;
    ReplyRoute* next_free = nullptr;
  };

  /// One xRPC connection a lane owns: the frame switch, and the lane's
  /// side of it. Lane-thread-only.
  struct LaneConn final : xrpc::CallSink {
    LaneConn(DpuProxy& p, Lane& l, xrpc::Fd fd)
        : proxy(p), lane(l), conn(std::move(fd), &metrics::default_registry()) {}
    void on_call(const xrpc::InboundCall& call) override;
    void on_stream_open(const xrpc::InboundCall& call) override;
    void on_stream_chunk(uint32_t call_id, ByteSpan chunk) override;
    void on_stream_end(uint32_t call_id) override;
    void on_stream_abort(uint32_t call_id, Code code) override;
    void on_disconnect() override;

    DpuProxy& proxy;
    Lane& lane;
    xrpc::ServerConnection conn;
    /// Call id → proxy-wide stream id, for the streams open on this
    /// connection.
    std::unordered_map<uint32_t, uint32_t> stream_ids;
    bool closed = false;  ///< dropped at the end of the lane's read pass
  };

  /// One connection + its dedicated poller (§III.C).
  struct Lane {
    Lane(rdmarpc::Connection* c, size_t i) : conn(c), client(c), index(i) {}
    rdmarpc::Connection* conn;
    rdmarpc::RpcClient client;
    size_t index;
    std::thread thread;
    std::atomic<uint64_t> forwarded{0};
    /// Accepted sockets waiting for the lane to adopt them: the acceptor
    /// pushes, sets `inbox_ready` and interrupts the lane's channel.
    lockdep::Mutex inbox_mu{"grpccompat.DpuProxy.inbox"};
    std::vector<xrpc::Fd> inbox DPURPC_GUARDED_BY(inbox_mu);
    std::atomic<bool> inbox_ready{false};
    // Poller-thread-only state (submission and completion both happen on
    // the lane's poller; the pool only sees opaque cookies). `outstanding`
    // counts both kinds together — the budget that keeps the shared
    // completion ring drainable. Atomic (single writer: the poller) only
    // so the resource sampler can watch it from outside the lane.
    uint64_t next_cookie = 0;
    std::atomic<size_t> outstanding{0};
    std::unordered_map<uint64_t, PendingDecode> pending;
    std::unordered_map<uint64_t, PendingEncode> pending_encodes;
    /// Reply routes of the calls out with the host (stable addresses),
    /// and the free list threaded through the idle ones.
    std::deque<ReplyRoute> routes;
    ReplyRoute* free_routes = nullptr;
    /// Scratch for replies serialized on the lane; keeps its capacity.
    Bytes wire;
    /// Live streams owned by this lane, keyed by proxy-wide stream id.
    std::unordered_map<uint32_t, std::unique_ptr<ProxyStream>> streams;
    /// The xRPC connections this lane reads, and the poll set its idle
    /// sleep reuses (the channel fd, then one entry per connection).
    std::vector<std::unique_ptr<LaneConn>> conns;
    size_t first_conn = 0;  ///< where the next read pass starts
    std::vector<pollfd> pollset;
    /// A datapath failure raised inside a frame-switch callback; the
    /// poller fails the lane on it after the callback returns.
    Status fault;
    /// Replies finished during the current poller turn, written once per
    /// connection before the lane next blocks (DESIGN.md §3, xRPC edge).
    xrpc::ReplyBatch replies;
    /// kDecodeChunk cookie → (stream id, piece sequence). Kept separate
    /// from the stream entry so a result whose stream already died still
    /// retires its pool-budget slot (and its buffers free right here).
    std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> pending_chunks;
  };

  /// Accept xRPC connections and hand them to the lanes round-robin.
  void accept_loop();
  /// Adopt the sockets the acceptor handed this lane. True if any.
  bool adopt_connections(Lane& lane);
  /// The lane's socket side of one turn: for every owned connection,
  /// dispatch the whole frames its reader holds, one non-blocking recv,
  /// and dispatch again — stopping at the outstanding-job cap, where the
  /// rest waits in the reader or the socket. Drops connections that
  /// closed or sent a malformed frame. Non-ok only on datapath failure.
  Status read_connections(Lane& lane, bool& did_work);
  /// Dispatch the frames `c`'s reader already holds, up to the cap.
  /// False when the connection sent a malformed frame.
  bool dispatch_buffered(Lane& lane, LaneConn& c, bool& did_work);
  /// Idle: sleep in one poll() over the completion channel's fd and,
  /// below the cap, every owned socket, until the held block's deadline.
  void sleep(Lane& lane);
  void poller_loop(Lane& lane);
  /// A unary call from one of the lane's connections: method lookup
  /// (kProxyDispatch), then submit_decode.
  void handle_call(Lane& lane, const xrpc::InboundCall& call);
  /// Proxy-wide id for a new stream on `lane`, or 0 after answering an
  /// unknown method with NOT_FOUND.
  uint32_t open_stream(Lane& lane, const xrpc::InboundCall& call,
                       std::shared_ptr<xrpc::ServerStream> stream);
  void stream_chunk(Lane& lane, uint32_t stream_id, ByteSpan chunk);
  void stream_end(Lane& lane, uint32_t stream_id);
  /// Client abort or lost connection: drop the stream, no reply owed.
  void stream_abort(Lane& lane, uint32_t stream_id);
  /// Cut whole-record pieces out of the stream's carry buffer and submit
  /// them to the pool as kDecodeChunk jobs (inline-validate spill when
  /// the ring/budget is full). Non-ok fails the stream, not the lane.
  Status scan_and_submit(Lane& lane, uint32_t stream_id);
  /// Completion of a kDecodeChunk job: stage the piece in `ready` and
  /// forward everything now in order.
  void chunk_decoded(Lane& lane, dpu::CodecResult result);
  /// Forward in-order ready pieces to the host (call_fragmented through
  /// send_to_host); each host ack releases budget and re-grants client
  /// credit.
  void forward_ready(Lane& lane, uint32_t stream_id);
  /// Host acked one forwarded piece (RPC continuation, poller thread).
  void stream_chunk_acked(Lane& lane, uint32_t stream_id,
                          uint64_t payload_bytes, const Status& rpc_result);
  /// Everything drained after the end frame → send the end marker
  /// (through send_to_host); its response completes the xRPC call.
  void maybe_finish_stream(Lane& lane, uint32_t stream_id);
  /// Fail the stream to the client and drop every held buffer.
  void fail_stream(Lane& lane, uint32_t stream_id, const Status& why);
  /// Retire a dying stream's held bytes from stats_.stream_held_bytes.
  /// Every path that erases a ProxyStream must pass through this, or the
  /// proxy-wide gauge leaks the stream's unacked bytes forever.
  void retire_stream_hold(ProxyStream& ps) noexcept;
  /// Admission to the codec pool: false when the lane's outstanding
  /// budget or its ring is full (the job is left intact for the caller's
  /// inline spill); true counts the job against the budget.
  bool try_submit(Lane& lane, dpu::CodecJob& job);
  /// Route a call's decode: large payloads are copied once into a pool
  /// job; small ones and pool-full spills are forwarded with the lane
  /// builder, which deserializes straight from the socket buffer into the
  /// send block. Returns non-ok only on unrecoverable datapath failure.
  Status submit_decode(Lane& lane, const MethodEntry* entry, ByteSpan payload,
                       const xrpc::Responder& respond,
                       const trace::TraceContext& tctx, uint64_t dispatch_ns);
  /// Completion of a pool decode: reject a failed decode to its caller,
  /// else forward with the pool builder (copy the decoded slice into the
  /// send block, relocating its pointers to host space).
  Status request_decoded(Lane& lane, dpu::CodecResult result);
  /// The one unary host-forward path: build the request object in the
  /// send block with `build` and fire the RPC, retrying through
  /// backpressure. A request the reject rule condemns (malformed, or too
  /// large for any block) is answered with its status and counted in
  /// deserialize_failures; non-ok only on transport failure, which fails
  /// the lane.
  Status forward(Lane& lane, const MethodEntry* entry,
                 const xrpc::Responder& respond,
                 const trace::TraceContext& tctx, uint32_t hint,
                 const rdmarpc::RpcClient::InPlaceBuilder& build);
  /// Return a route to its lane's free list.
  void release_route(ReplyRoute& route) noexcept;
  /// The one backpressure loop: run `send_once` (one RDMA send attempt) until
  /// it returns anything but kUnavailable/kResourceExhausted, pumping the
  /// lane's event loop between attempts. Continuations run inside the
  /// pump; `gone()` lets a caller whose state a continuation tore down
  /// stop retrying. Gives up after kMaxSendAttempts.
  template <typename SendOnce, typename Gone>
  Status send_to_host(Lane& lane, SendOnce&& send_once, Gone&& gone);
  /// Shared RPC continuation tail: error → error reply; in-place object →
  /// lane-thread serialize (small object or pool-full spill) or encode
  /// offload; bytes → pass through.
  void complete_response(Lane& lane, const xrpc::Responder& respond,
                         const trace::TraceContext& tctx, const Status& result,
                         const rdmarpc::InMessage& resp);
  /// Copy an in-place response object out of the receive block into a
  /// fully-local slice and hand it to the pool (try_submit) as an encode
  /// job. False when the job could not be submitted (budget/ring full,
  /// slice allocation failed): the caller serializes inline.
  bool submit_encode(Lane& lane, const xrpc::Responder& respond,
                     const trace::TraceContext& tctx,
                     const rdmarpc::InMessage& resp, uint64_t submit_ns);
  /// Deliver a pool-serialized reply to its xRPC responder.
  void finish_encoded(Lane& lane, dpu::CodecResult result);
  /// Fail every call still waiting on a pool job (shutdown/teardown),
  /// then write out every reply the lane still holds.
  void fail_pending(Lane& lane);
  /// Write the lane's batched replies: one send per connection.
  void flush_replies(Lane& lane);

  const OffloadManifest* manifest_;
  adt::ArenaDeserializer deserializer_;
  adt::ObjectSerializer serializer_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<dpu::CodecPool> pool_;
  StreamOptions stream_options_;
  /// Stream ids come from one proxy-wide counter, so they are unique
  /// across lanes and never zero.
  std::atomic<uint64_t> next_stream_id_{0};
  std::unique_ptr<xrpc::Listener> listener_;
  std::thread acceptor_;
  /// Set to make the lanes exit: by stop(), or by a lane that failed.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};  ///< stop() ran
  DpuProxyStats stats_;
  /// Registry mirror of stats_.reply_writes (default registry).
  metrics::Counter* reply_writes_total_;
};

}  // namespace dpurpc::grpccompat
