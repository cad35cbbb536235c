// xRPC wire framing.
//
// Every frame:
//
//   u32 body_len | u8 type | u32 call_id | [trace] | body
//
// request body:       u16 method_len | method name | payload
// response body:      u8 status code | payload
// stream-open body:   u16 method_len | method name
// stream-chunk body:  raw chunk bytes
// stream-end body:    empty
// stream-credit body: u32 granted bytes (receiver -> sender flow control)
// stream-abort body:  u8 status code
//
// call_id multiplexes concurrent outstanding calls over one TCP
// connection, like HTTP/2 stream ids under gRPC. A streaming call opens
// with kStreamOpen, ships kStreamChunk frames under the credit window,
// closes with kStreamEnd, and completes with an ordinary kResponse
// carrying the final status/payload (DESIGN.md streaming section).
//
// Tracing rides in the type byte's high bit (kFrameTracedBit): when set,
// a 24-byte FrameTrace follows the call_id. Untraced frames are
// byte-identical to the pre-tracing protocol.
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "xrpc/socket.hpp"

namespace dpurpc::xrpc {

enum class FrameType : uint8_t {
  kRequest = 0,
  kResponse = 1,
  kStreamOpen = 2,
  kStreamChunk = 3,
  kStreamEnd = 4,
  kStreamCredit = 5,
  kStreamAbort = 6,
};

/// High bit of the type byte: frame carries a FrameTrace after call_id.
inline constexpr uint8_t kFrameTracedBit = 0x80;

inline constexpr uint32_t kMaxFrameBody = 16u << 20;

/// Trace context carried across the xRPC hop (the gRPC-metadata analogue
/// of rdmarpc's WireTrace): identity plus the sender's serialize-finish
/// instant, so the receiver can attribute wire + reader-dispatch time.
struct FrameTrace {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t send_ns = 0;
  bool active() const noexcept { return trace_id != 0; }
};
inline constexpr uint32_t kFrameTraceSize = 24;

struct RequestFrame {
  uint32_t call_id = 0;
  std::string method;  ///< "pkg.Service/Method"
  Bytes payload;
  FrameTrace trace;
};

struct ResponseFrame {
  uint32_t call_id = 0;
  Code status = Code::kOk;
  Bytes payload;
  FrameTrace trace;
};

/// One inbound stream-control frame (open/chunk/end/credit/abort).
struct StreamFrame {
  uint32_t call_id = 0;
  std::string method;   ///< kStreamOpen only
  Bytes payload;        ///< kStreamChunk only
  uint32_t credit = 0;  ///< kStreamCredit only
  Code status = Code::kOk;  ///< kStreamAbort only
  FrameTrace trace;
};

Status write_request(const Fd& fd, uint32_t call_id, std::string_view method,
                     ByteSpan payload, const FrameTrace* trace = nullptr);
/// Largest response frame header: length, type, call id, trace, status.
inline constexpr size_t kMaxResponseHeader = 4 + 1 + 4 + kFrameTraceSize + 1;

/// Append one whole response frame to `out` — the one response encoder,
/// used by both the direct and the coalesced reply path (reply.hpp).
void append_response(Bytes& out, uint32_t call_id, Code status, ByteSpan payload,
                     const FrameTrace* trace = nullptr);
Status write_stream_open(const Fd& fd, uint32_t call_id, std::string_view method,
                         const FrameTrace* trace = nullptr);
Status write_stream_chunk(const Fd& fd, uint32_t call_id, ByteSpan chunk);
Status write_stream_end(const Fd& fd, uint32_t call_id);
Status write_stream_credit(const Fd& fd, uint32_t call_id, uint32_t bytes);
Status write_stream_abort(const Fd& fd, uint32_t call_id, Code code);

/// One inbound frame as views into the reader's memory (FrameReader::
/// take_frame): nothing is copied, and `method`/`payload` stay valid until the
/// reader's next receive().
struct FrameView {
  FrameType type = FrameType::kRequest;
  uint32_t call_id = 0;
  FrameTrace trace;
  std::string_view method;  ///< kRequest, kStreamOpen
  ByteSpan payload;         ///< kRequest, kResponse, kStreamChunk
  Code status = Code::kOk;  ///< kResponse, kStreamAbort
  uint32_t credit = 0;      ///< kStreamCredit
};

/// An inbound frame copied out of the reader (FrameReader::next), for
/// readers that keep frames past the next read.
struct AnyFrame {
  FrameType type = FrameType::kRequest;
  RequestFrame request;
  ResponseFrame response;
  StreamFrame stream;  ///< valid for the kStream* types
};

/// Buffered inbound framing, one per connection. Each receive() is one
/// recv() that takes as many bytes as the socket holds into one reusable
/// buffer, and take_frame() hands out every complete frame in it, as views,
/// before the following receive() — so a burst of small frames costs one
/// syscall and no allocation. receive() blocks only when asked to: a
/// poller that owns many connections reads each without blocking and
/// sleeps in poll() instead. A frame larger than the buffer (a big stream
/// chunk) is gathered into its own allocation across as many receive()
/// calls as it takes; the buffer never grows. A declared length outside
/// [5, kMaxFrameBody] fails with kDataLoss before any body is read or
/// allocated.
class FrameReader {
 public:
  static constexpr size_t kBufferBytes = 64u << 10;

  /// `fd` must outlive the reader.
  explicit FrameReader(const Fd& fd) : fd_(fd), buf_(kBufferBytes) {}

  /// One recv() of whatever the socket holds — without blocking unless
  /// `block` — into the buffer, or into the frame being gathered.
  /// Invalidates every view take_frame() handed out. Ok when a non-blocking
  /// recv found nothing; kUnavailable when the peer closed (cleanly or
  /// mid-frame) or the socket failed.
  Status receive(bool block);

  /// The next complete frame already received, as views into the
  /// reader's memory; false when none is. kDataLoss on a malformed frame.
  StatusOr<bool> take_frame(FrameView& out);

  /// Blocking read of the next frame, copied out of the reader's memory.
  /// kUnavailable when the peer closes, kDataLoss on a malformed frame.
  StatusOr<AnyFrame> next();

 private:
  const Fd& fd_;
  Bytes buf_;
  size_t begin_ = 0;  ///< first unparsed byte
  size_t end_ = 0;    ///< one past the last received byte
  /// A frame larger than buf_, gathered in its own allocation: body
  /// bytes expected (0 = none being gathered) and received so far.
  Bytes big_;
  size_t big_need_ = 0;
  size_t big_have_ = 0;
};

}  // namespace dpurpc::xrpc
