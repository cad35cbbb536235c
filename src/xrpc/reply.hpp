// xRPC replies: the per-call Responder and the coalescing ReplyBatch.
//
// A Responder is a small copyable record of where one call's answer goes:
// the connection, the call id, and the propagated trace context. Calling
// it writes one response frame straight to the socket — the path for any
// thread that answers now and then (a handler, the reader's NOT_FOUND).
// A thread that finishes many replies per turn (a DpuProxy lane) instead
// hands them to a ReplyBatch, which appends each frame whole to a reused
// per-connection buffer and writes every buffer with one send when the
// owner flushes. Both paths encode through append_response, so the bytes
// on the wire are identical.
#pragma once

#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "trace/trace.hpp"
#include "xrpc/frame.hpp"
#include "xrpc/stream.hpp"

namespace dpurpc::xrpc {

/// Completes one call; thread-safe, callable once per request. For a
/// streaming call this sends the *final* response, after the stream ends.
/// Holds a reference to the connection, so a late reply still has a live
/// socket (a closed peer just makes the write fail quietly).
class Responder {
 public:
  Responder() = default;
  Responder(std::shared_ptr<ConnState> conn, uint32_t call_id,
            trace::TraceContext trace) noexcept
      : conn_(std::move(conn)), call_id_(call_id), trace_(trace) {}

  /// Write the response frame now, under the connection's write lock.
  void operator()(Code status, ByteSpan payload) const;

 private:
  friend class ReplyBatch;
  /// Append this call's response frame to `out`. A traced reply echoes
  /// the trace context with a send stamp taken here, where the client's
  /// xrpc_outbound span starts.
  void append_to(Bytes& out, Code status, ByteSpan payload) const;

  std::shared_ptr<ConnState> conn_;
  uint32_t call_id_ = 0;
  trace::TraceContext trace_;
};

/// Coalesced replies for one thread. add() appends a response frame to
/// its connection's buffer, in call order; flush() writes each buffer
/// with one send. A buffer that reaches FrameReader::kBufferBytes is
/// written at once, and a frame larger than that goes out on its own, so
/// the batch holds less than twice that per connection. Not thread-safe:
/// one owner adds and flushes. Finding a connection's buffer checks the
/// last one used, then scans the turn's connections. flush() drops every
/// connection reference and keeps buffer capacity for the next turn only
/// up to kBufferBytes in total, so a turn that fanned out to many
/// connections does not pin their memory.
class ReplyBatch {
 public:
  ReplyBatch() = default;
  ReplyBatch(const ReplyBatch&) = delete;
  ReplyBatch& operator=(const ReplyBatch&) = delete;

  void add(const Responder& to, Code status, ByteSpan payload);

  /// Send every pending buffer. Returns the sends issued since the
  /// previous flush(), the ones add() made at the size cap included.
  size_t flush();

  /// Buffer capacity held between turns (at most kBufferBytes after a
  /// flush).
  size_t retained_bytes() const noexcept;

 private:
  struct Out {
    std::shared_ptr<ConnState> conn;
    Bytes buf;
  };
  Out* find(const ConnState* conn);
  void send(Out& out);

  std::vector<Out> outs_;
  size_t used_ = 0;   ///< outs_[0, used_) hold this turn's connections
  size_t last_ = 0;   ///< the slot add() used last
  size_t sends_ = 0;  ///< since the last flush()
};

}  // namespace dpurpc::xrpc
