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
  out.insert(out.end(), h, h + (p - head));
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

/// Parse one frame body (everything after the length word).
StatusOr<AnyFrame> parse_frame(const std::byte* data, uint32_t body) {
  const auto* p = reinterpret_cast<const uint8_t*>(data);
  const auto* end = p + body;

  AnyFrame out;
  uint8_t raw_type = *p++;
  bool traced = (raw_type & kFrameTracedBit) != 0;
  uint8_t type = raw_type & static_cast<uint8_t>(~kFrameTracedBit);
  uint32_t call_id = load_le<uint32_t>(p);
  p += 4;
  FrameTrace trace;
  if (traced) {
    if (end - p < static_cast<ptrdiff_t>(kFrameTraceSize)) {
      return Status(Code::kDataLoss, "truncated frame trace");
    }
    trace.trace_id = load_le<uint64_t>(p);
    trace.span_id = load_le<uint64_t>(p + 8);
    trace.send_ns = load_le<uint64_t>(p + 16);
    p += kFrameTraceSize;
  }
  if (type == static_cast<uint8_t>(FrameType::kRequest)) {
    out.type = FrameType::kRequest;
    out.request.call_id = call_id;
    out.request.trace = trace;
    if (end - p < 2) return Status(Code::kDataLoss, "truncated request frame");
    uint16_t name_len = load_le<uint16_t>(p);
    p += 2;
    if (end - p < name_len) return Status(Code::kDataLoss, "truncated method name");
    out.request.method.assign(reinterpret_cast<const char*>(p), name_len);
    p += name_len;
    out.request.payload.assign(reinterpret_cast<const std::byte*>(p),
                               reinterpret_cast<const std::byte*>(end));
  } else if (type == static_cast<uint8_t>(FrameType::kResponse)) {
    out.type = FrameType::kResponse;
    out.response.call_id = call_id;
    out.response.trace = trace;
    if (end - p < 1) return Status(Code::kDataLoss, "truncated response frame");
    uint8_t code = *p++;
    if (code > static_cast<uint8_t>(Code::kAborted)) {
      return Status(Code::kDataLoss, "invalid status code");
    }
    out.response.status = static_cast<Code>(code);
    out.response.payload.assign(reinterpret_cast<const std::byte*>(p),
                                reinterpret_cast<const std::byte*>(end));
  } else if (type >= static_cast<uint8_t>(FrameType::kStreamOpen) &&
             type <= static_cast<uint8_t>(FrameType::kStreamAbort)) {
    out.type = static_cast<FrameType>(type);
    out.stream.call_id = call_id;
    out.stream.trace = trace;
    switch (out.type) {
      case FrameType::kStreamOpen: {
        if (end - p < 2) {
          return Status(Code::kDataLoss, "truncated stream-open frame");
        }
        uint16_t name_len = load_le<uint16_t>(p);
        p += 2;
        if (end - p != name_len) {
          return Status(Code::kDataLoss, "stream-open length mismatch");
        }
        out.stream.method.assign(reinterpret_cast<const char*>(p), name_len);
        break;
      }
      case FrameType::kStreamChunk:
        out.stream.payload.assign(reinterpret_cast<const std::byte*>(p),
                                  reinterpret_cast<const std::byte*>(end));
        break;
      case FrameType::kStreamEnd:
        if (end != p) {
          return Status(Code::kDataLoss, "stream-end frame carries bytes");
        }
        break;
      case FrameType::kStreamCredit:
        if (end - p != 4) {
          return Status(Code::kDataLoss, "bad stream-credit frame length");
        }
        out.stream.credit = load_le<uint32_t>(p);
        break;
      case FrameType::kStreamAbort: {
        if (end - p != 1) {
          return Status(Code::kDataLoss, "bad stream-abort frame length");
        }
        uint8_t code = *p;
        if (code > static_cast<uint8_t>(Code::kAborted)) {
          return Status(Code::kDataLoss, "invalid status code");
        }
        out.stream.status = static_cast<Code>(code);
        break;
      }
      default:
        break;  // unreachable: range-checked above
    }
  } else {
    return Status(Code::kDataLoss, "unknown xrpc frame type");
  }
  return out;
}

}  // namespace

Status FrameReader::fill(size_t n) {
  if (buf_.size() - begin_ < n) {
    // Not enough room behind the unparsed tail: slide it to the front.
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  while (end_ - begin_ < n) {
    ssize_t got = ::recv(fd_.get(), buf_.data() + end_, buf_.size() - end_, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status(Code::kUnavailable, std::string("recv: ") + std::strerror(errno));
    }
    if (got == 0) {
      return Status(Code::kUnavailable, end_ == begin_
                                            ? "peer closed connection"
                                            : "peer closed mid-frame");
    }
    end_ += static_cast<size_t>(got);
  }
  return Status::ok();
}

StatusOr<AnyFrame> FrameReader::next() {
  if (begin_ == end_) begin_ = end_ = 0;  // all parsed: recv into the whole buffer
  DPURPC_RETURN_IF_ERROR(fill(4));
  const uint32_t body =
      load_le<uint32_t>(reinterpret_cast<const uint8_t*>(buf_.data() + begin_));
  if (body < 5 || body > kMaxFrameBody) {
    return Status(Code::kDataLoss, "xrpc frame length out of range");
  }
  if (4 + size_t{body} <= buf_.size()) {
    DPURPC_RETURN_IF_ERROR(fill(4 + size_t{body}));
    const std::byte* data = buf_.data() + begin_ + 4;
    begin_ += 4 + size_t{body};
    return parse_frame(data, body);
  }
  // Larger than the buffer: move what already arrived into the frame's
  // own allocation and read the rest straight into it.
  Bytes big(body);
  const size_t have = end_ - begin_ - 4;
  std::memcpy(big.data(), buf_.data() + begin_ + 4, have);
  begin_ = end_ = 0;
  DPURPC_RETURN_IF_ERROR(read_all(fd_, big.data() + have, body - have));
  return parse_frame(big.data(), body);
}

}  // namespace dpurpc::xrpc
