#include "xrpc/frame.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/endian.hpp"

namespace dpurpc::xrpc {

namespace {

uint8_t* put_trace(uint8_t* p, const FrameTrace& t) {
  store_le<uint64_t>(p, t.trace_id);
  store_le<uint64_t>(p + 8, t.span_id);
  store_le<uint64_t>(p + 16, t.send_ns);
  return p + kFrameTraceSize;
}

}  // namespace

Status write_request(const Fd& fd, uint32_t call_id, std::string_view method,
                     ByteSpan payload, const FrameTrace* trace) {
  if (method.size() > UINT16_MAX) {
    return Status(Code::kInvalidArgument, "method name too long");
  }
  bool traced = trace != nullptr && trace->active();
  uint32_t extra = traced ? kFrameTraceSize : 0;
  uint32_t body =
      static_cast<uint32_t>(1 + 4 + extra + 2 + method.size() + payload.size());
  Bytes frame(4 + body);
  auto* p = reinterpret_cast<uint8_t*>(frame.data());
  store_le<uint32_t>(p, body);
  p += 4;
  *p++ = static_cast<uint8_t>(FrameType::kRequest) |
         (traced ? kFrameTracedBit : 0);
  store_le<uint32_t>(p, call_id);
  p += 4;
  if (traced) p = put_trace(p, *trace);
  store_le<uint16_t>(p, static_cast<uint16_t>(method.size()));
  p += 2;
  std::memcpy(p, method.data(), method.size());
  p += method.size();
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
  return write_all(fd, frame.data(), frame.size());
}

void append_response(Bytes& out, uint32_t call_id, Code status, ByteSpan payload,
                     const FrameTrace* trace) {
  bool traced = trace != nullptr && trace->active();
  uint32_t extra = traced ? kFrameTraceSize : 0;
  uint32_t body = static_cast<uint32_t>(1 + 4 + extra + 1 + payload.size());
  uint8_t head[kMaxResponseHeader];
  uint8_t* p = head;
  store_le<uint32_t>(p, body);
  p += 4;
  *p++ = static_cast<uint8_t>(FrameType::kResponse) |
         (traced ? kFrameTracedBit : 0);
  store_le<uint32_t>(p, call_id);
  p += 4;
  if (traced) p = put_trace(p, *trace);
  *p++ = static_cast<uint8_t>(status);
  const auto* h = reinterpret_cast<const std::byte*>(head);
  // dpulint: allow(hot-path): appends to a caller-owned buffer that keeps
  // its capacity (a ReplyBatch slot, or the replying thread's frame).
  out.insert(out.end(), h, h + (p - head));
  // dpulint: allow(hot-path): same reused buffer as above.
  out.insert(out.end(), payload.begin(), payload.end());
}

namespace {

/// Shared writer for the fixed-shape stream frames: header + `tail` bytes.
Status write_stream_frame(const Fd& fd, FrameType type, uint32_t call_id,
                          ByteSpan tail, const FrameTrace* trace = nullptr) {
  bool traced = trace != nullptr && trace->active();
  uint32_t extra = traced ? kFrameTraceSize : 0;
  uint32_t body = static_cast<uint32_t>(1 + 4 + extra + tail.size());
  Bytes frame(4 + body);
  auto* p = reinterpret_cast<uint8_t*>(frame.data());
  store_le<uint32_t>(p, body);
  p += 4;
  *p++ = static_cast<uint8_t>(type) | (traced ? kFrameTracedBit : 0);
  store_le<uint32_t>(p, call_id);
  p += 4;
  if (traced) p = put_trace(p, *trace);
  if (!tail.empty()) std::memcpy(p, tail.data(), tail.size());
  return write_all(fd, frame.data(), frame.size());
}

}  // namespace

Status write_stream_open(const Fd& fd, uint32_t call_id, std::string_view method,
                         const FrameTrace* trace) {
  if (method.size() > UINT16_MAX) {
    return Status(Code::kInvalidArgument, "method name too long");
  }
  Bytes tail(2 + method.size());
  store_le<uint16_t>(reinterpret_cast<uint8_t*>(tail.data()),
                     static_cast<uint16_t>(method.size()));
  std::memcpy(tail.data() + 2, method.data(), method.size());
  return write_stream_frame(fd, FrameType::kStreamOpen, call_id, ByteSpan(tail),
                            trace);
}

Status write_stream_chunk(const Fd& fd, uint32_t call_id, ByteSpan chunk) {
  if (chunk.size() + 5 > kMaxFrameBody) {
    return Status(Code::kInvalidArgument, "stream chunk exceeds frame limit");
  }
  return write_stream_frame(fd, FrameType::kStreamChunk, call_id, chunk);
}

Status write_stream_end(const Fd& fd, uint32_t call_id) {
  return write_stream_frame(fd, FrameType::kStreamEnd, call_id, {});
}

Status write_stream_credit(const Fd& fd, uint32_t call_id, uint32_t bytes) {
  uint8_t tail[4];
  store_le<uint32_t>(tail, bytes);
  return write_stream_frame(fd, FrameType::kStreamCredit, call_id,
                            ByteSpan(reinterpret_cast<const std::byte*>(tail), 4));
}

Status write_stream_abort(const Fd& fd, uint32_t call_id, Code code) {
  std::byte tail{static_cast<uint8_t>(code)};
  return write_stream_frame(fd, FrameType::kStreamAbort, call_id,
                            ByteSpan(&tail, 1));
}

namespace {

/// Parse one frame body (everything after the length word) into views.
Status parse_view(const std::byte* data, uint32_t body, FrameView& out) {
  const auto* p = reinterpret_cast<const uint8_t*>(data);
  const auto* end = p + body;
  auto bytes = [&](const uint8_t* from) {
    return ByteSpan(reinterpret_cast<const std::byte*>(from),
                    static_cast<size_t>(end - from));
  };
  auto text = [](const uint8_t* from, size_t n) {
    return std::string_view(reinterpret_cast<const char*>(from), n);
  };

  out = FrameView{};
  uint8_t raw_type = *p++;
  bool traced = (raw_type & kFrameTracedBit) != 0;
  uint8_t type = raw_type & static_cast<uint8_t>(~kFrameTracedBit);
  out.call_id = load_le<uint32_t>(p);
  p += 4;
  if (traced) {
    if (end - p < static_cast<ptrdiff_t>(kFrameTraceSize)) {
      return Status(Code::kDataLoss, "truncated frame trace");
    }
    out.trace.trace_id = load_le<uint64_t>(p);
    out.trace.span_id = load_le<uint64_t>(p + 8);
    out.trace.send_ns = load_le<uint64_t>(p + 16);
    p += kFrameTraceSize;
  }
  if (type > static_cast<uint8_t>(FrameType::kStreamAbort)) {
    return Status(Code::kDataLoss, "unknown xrpc frame type");
  }
  out.type = static_cast<FrameType>(type);
  switch (out.type) {
    case FrameType::kRequest: {
      if (end - p < 2) return Status(Code::kDataLoss, "truncated request frame");
      uint16_t name_len = load_le<uint16_t>(p);
      p += 2;
      if (end - p < name_len) return Status(Code::kDataLoss, "truncated method name");
      out.method = text(p, name_len);
      out.payload = bytes(p + name_len);
      break;
    }
    case FrameType::kResponse: {
      if (end - p < 1) return Status(Code::kDataLoss, "truncated response frame");
      uint8_t code = *p++;
      if (code > static_cast<uint8_t>(Code::kAborted)) {
        return Status(Code::kDataLoss, "invalid status code");
      }
      out.status = static_cast<Code>(code);
      out.payload = bytes(p);
      break;
    }
    case FrameType::kStreamOpen: {
      if (end - p < 2) return Status(Code::kDataLoss, "truncated stream-open frame");
      uint16_t name_len = load_le<uint16_t>(p);
      p += 2;
      if (end - p != name_len) {
        return Status(Code::kDataLoss, "stream-open length mismatch");
      }
      out.method = text(p, name_len);
      break;
    }
    case FrameType::kStreamChunk:
      out.payload = bytes(p);
      break;
    case FrameType::kStreamEnd:
      if (end != p) return Status(Code::kDataLoss, "stream-end frame carries bytes");
      break;
    case FrameType::kStreamCredit:
      if (end - p != 4) return Status(Code::kDataLoss, "bad stream-credit frame length");
      out.credit = load_le<uint32_t>(p);
      break;
    case FrameType::kStreamAbort: {
      if (end - p != 1) return Status(Code::kDataLoss, "bad stream-abort frame length");
      uint8_t code = *p;
      if (code > static_cast<uint8_t>(Code::kAborted)) {
        return Status(Code::kDataLoss, "invalid status code");
      }
      out.status = static_cast<Code>(code);
      break;
    }
  }
  return Status::ok();
}

}  // namespace

Status FrameReader::receive(bool block) {
  if (big_need_ == 0 && !big_.empty()) Bytes().swap(big_);  // taken last time
  std::byte* dst;
  size_t room;
  if (big_need_ != 0) {
    dst = big_.data() + big_have_;
    room = big_need_ - big_have_;
  } else {
    // Slide the unparsed tail (at most one partial frame once take_frame() has
    // run dry) to the front, so the whole buffer behind it is free.
    if (begin_ != 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    dst = buf_.data() + end_;
    room = buf_.size() - end_;
  }
  if (room == 0) return Status::ok();  // full of whole frames: take_frame() first
  for (;;) {
    ssize_t got = ::recv(fd_.get(), dst, room, block ? 0 : MSG_DONTWAIT);
    if (got > 0) {
      (big_need_ != 0 ? big_have_ : end_) += static_cast<size_t>(got);
      return Status::ok();
    }
    if (got == 0) {
      return Status(Code::kUnavailable, end_ == begin_ && big_need_ == 0
                                            ? "peer closed connection"
                                            : "peer closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (!block && (errno == EAGAIN || errno == EWOULDBLOCK)) return Status::ok();
    return Status(Code::kUnavailable, std::string("recv: ") + std::strerror(errno));
  }
}

StatusOr<bool> FrameReader::take_frame(FrameView& out) {
  if (big_need_ != 0) {
    if (big_have_ < big_need_) return false;
    const auto body = static_cast<uint32_t>(big_need_);
    big_need_ = 0;  // big_ itself lives until the next receive()
    DPURPC_RETURN_IF_ERROR(parse_view(big_.data(), body, out));
    return true;
  }
  if (end_ - begin_ < 4) return false;
  const uint32_t body =
      load_le<uint32_t>(reinterpret_cast<const uint8_t*>(buf_.data() + begin_));
  if (body < 5 || body > kMaxFrameBody) {
    return Status(Code::kDataLoss, "xrpc frame length out of range");
  }
  if (4 + size_t{body} > buf_.size()) {
    // Larger than the buffer: move what already arrived into the frame's
    // own allocation; receive() reads the rest straight into it.
    // dpulint: allow(hot-path): only a frame larger than the 64 KiB buffer
    // (a big stream chunk) gets its own allocation, once per frame.
    big_.resize(body);
    big_have_ = end_ - begin_ - 4;
    std::memcpy(big_.data(), buf_.data() + begin_ + 4, big_have_);
    big_need_ = body;
    begin_ = end_ = 0;
    return false;
  }
  if (end_ - begin_ < 4 + size_t{body}) return false;
  const std::byte* data = buf_.data() + begin_ + 4;
  begin_ += 4 + size_t{body};
  DPURPC_RETURN_IF_ERROR(parse_view(data, body, out));
  return true;
}

StatusOr<AnyFrame> FrameReader::next() {
  FrameView v;
  for (;;) {
    DPURPC_ASSIGN_OR_RETURN(bool got, take_frame(v));
    if (got) break;
    DPURPC_RETURN_IF_ERROR(receive(/*block=*/true));
  }
  AnyFrame f;
  f.type = v.type;
  Bytes payload(v.payload.begin(), v.payload.end());
  if (v.type == FrameType::kRequest) {
    f.request = {v.call_id, std::string(v.method), std::move(payload), v.trace};
  } else if (v.type == FrameType::kResponse) {
    f.response = {v.call_id, v.status, std::move(payload), v.trace};
  } else {
    f.stream = {v.call_id, std::string(v.method), std::move(payload), v.credit,
                v.status, v.trace};
  }
  return f;
}

}  // namespace dpurpc::xrpc
