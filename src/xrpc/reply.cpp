#include "xrpc/reply.hpp"

#include "common/cpu_timer.hpp"

namespace dpurpc::xrpc {

void Responder::append_to(Bytes& out, Code status, ByteSpan payload) const {
  if (trace_.active()) {
    FrameTrace ft{trace_.trace_id, trace_.parent_span_id, WallTimer::now()};
    append_response(out, call_id_, status, payload, &ft);
  } else {
    append_response(out, call_id_, status, payload);
  }
}

void Responder::operator()(Code status, ByteSpan payload) const {
  // One encode buffer per thread, reused: a reply costs no allocation
  // once the buffer has grown to the thread's usual frame size.
  thread_local Bytes frame;
  frame.clear();
  append_to(frame, status, payload);
  {
    lockdep::ScopedLock wl(conn_->write_mu);
    (void)write_all(conn_->fd, frame.data(), frame.size());
  }
  // Do not keep a one-off huge frame's memory alive on this thread.
  if (frame.capacity() > FrameReader::kBufferBytes) Bytes().swap(frame);
}

ReplyBatch::Out* ReplyBatch::find(const ConnState* conn) {
  if (last_ < used_ && outs_[last_].conn.get() == conn) return &outs_[last_];
  for (size_t i = 0; i < used_; ++i) {
    if (outs_[i].conn.get() == conn) {
      last_ = i;
      return &outs_[i];
    }
  }
  return nullptr;
}

void ReplyBatch::add(const Responder& to, Code status, ByteSpan payload) {
  Out* out = find(to.conn_.get());
  if (kMaxResponseHeader + payload.size() > FrameReader::kBufferBytes) {
    // Too big to batch: write what this connection already holds (order),
    // then the frame itself on the direct path.
    if (out != nullptr) send(*out);
    to(status, payload);
    ++sends_;
    return;
  }
  if (out == nullptr) {
    // dpulint: allow(hot-path): one slot per connection a turn answers;
    // slots are reused turn after turn.
    if (used_ == outs_.size()) outs_.emplace_back();
    last_ = used_++;
    out = &outs_[last_];
    out->conn = to.conn_;
  }
  to.append_to(out->buf, status, payload);
  if (out->buf.size() >= FrameReader::kBufferBytes) send(*out);
}

void ReplyBatch::send(Out& out) {
  if (out.buf.empty()) return;
  {
    // dpulint: allow(hot-path): the connection's frame lock, uncontended
    // when one lane owns the connection; taken once per send, not per
    // reply.
    lockdep::ScopedLock wl(out.conn->write_mu);
    // A failed write (peer gone) loses only this connection's replies.
    (void)write_all(out.conn->fd, out.buf.data(), out.buf.size());
  }
  out.buf.clear();
  ++sends_;
}

size_t ReplyBatch::flush() {
  for (size_t i = 0; i < used_; ++i) {
    send(outs_[i]);
    outs_[i].conn.reset();
  }
  used_ = 0;
  // Keep the leading buffers whose capacity fits kBufferBytes in total;
  // free the rest (the same bound Responder keeps per thread).
  size_t keep = 0;
  size_t kept_bytes = 0;
  while (keep < outs_.size() &&
         kept_bytes + outs_[keep].buf.capacity() <= FrameReader::kBufferBytes) {
    kept_bytes += outs_[keep++].buf.capacity();
  }
  // dpulint: allow(hot-path): shrinks only.
  outs_.resize(keep);
  size_t sends = sends_;
  sends_ = 0;
  return sends;
}

size_t ReplyBatch::retained_bytes() const noexcept {
  size_t bytes = 0;
  for (const Out& out : outs_) bytes += out.buf.capacity();
  return bytes;
}

}  // namespace dpurpc::xrpc
