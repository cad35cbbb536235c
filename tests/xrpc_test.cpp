// Tests for the xRPC transport: framing, server/channel behaviour,
// concurrent outstanding calls, and failure handling.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cpu_timer.hpp"
#include "common/endian.hpp"
#include "common/rng.hpp"
#include "xrpc/channel.hpp"
#include "xrpc/server.hpp"

namespace dpurpc::xrpc {
namespace {

std::unique_ptr<Server> echo_server() {
  auto server = Server::start(CallHandler([](CallContext ctx) {
    if (ctx.is_stream()) {
      // Streaming echo: accumulate chunks, answer with the concatenation.
      // Raw pointer on purpose — capturing the shared_ptr inside the
      // stream's own callbacks would be a self-cycle (leak); callbacks
      // only ever run while the server still owns the stream.
      ServerStream* stream = ctx.stream.get();
      auto acc = std::make_shared<Bytes>();
      auto respond = std::move(ctx.respond);
      const bool fail = ctx.method == "test.Echo/Fail";
      stream->on_chunk([acc, stream](Bytes chunk) {
        acc->insert(acc->end(), chunk.begin(), chunk.end());
        (void)stream->grant(static_cast<uint32_t>(chunk.size()));
      });
      stream->on_end([acc, respond, fail] {
        if (fail) {
          respond(Code::kInvalidArgument, {});
        } else {
          respond(Code::kOk, ByteSpan(*acc));
        }
      });
      (void)stream->grant(1u << 16);
      return;
    }
    if (ctx.method == "test.Echo/Echo") {
      ctx.respond(Code::kOk, ByteSpan(ctx.payload));
    } else if (ctx.method == "test.Echo/Fail") {
      ctx.respond(Code::kInvalidArgument, {});
    } else {
      ctx.respond(Code::kNotFound, {});
    }
  }));
  EXPECT_TRUE(server.is_ok()) << server.status().to_string();
  return std::move(*server);
}

TEST(Xrpc, SyncEchoRoundTrip) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok()) << chan.status().to_string();
  auto resp = (*chan)->call("test.Echo/Echo", as_bytes_view("ping"));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), "ping");
}

TEST(Xrpc, EmptyPayload) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("test.Echo/Echo", {});
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp->empty());
}

TEST(Xrpc, LargePayload) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  std::mt19937_64 rng(kDefaultSeed);
  std::string big = random_bytes(rng, 1 << 20);
  auto resp = (*chan)->call("test.Echo/Echo", as_bytes_view(big));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), big);
}

TEST(Xrpc, ErrorStatusPropagates) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("test.Echo/Fail", as_bytes_view("x"));
  EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
}

TEST(Xrpc, UnknownMethodNotFound) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("test.Echo/NoSuch", {});
  EXPECT_EQ(resp.status().code(), Code::kNotFound);
}

TEST(Xrpc, ManyConcurrentOutstandingCalls) {
  // Multiplexing by call_id: issue a burst async, answers can interleave.
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  constexpr int kN = 200;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    std::string payload = "call-" + std::to_string(i);
    ASSERT_TRUE((*chan)
                    ->call_async("test.Echo/Echo", as_bytes_view(payload),
                                 [&, payload](Code c, Bytes p) {
                                   EXPECT_EQ(c, Code::kOk);
                                   EXPECT_EQ(as_string_view(ByteSpan(p)), payload);
                                   std::lock_guard lk(mu);
                                   ++done;
                                   cv.notify_all();
                                 })
                    .is_ok());
  }
  std::unique_lock lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10), [&] { return done == kN; }));
  EXPECT_EQ((*chan)->outstanding(), 0u);
}

TEST(Xrpc, MultipleClientsOneServer) {
  auto server = echo_server();
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto chan = Channel::connect(server->port());
      ASSERT_TRUE(chan.is_ok());
      for (int i = 0; i < 25; ++i) {
        std::string p = "c" + std::to_string(c) + "-" + std::to_string(i);
        auto resp = (*chan)->call("test.Echo/Echo", as_bytes_view(p));
        ASSERT_TRUE(resp.is_ok());
        EXPECT_EQ(as_string_view(ByteSpan(*resp)), p);
        ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 25);
  EXPECT_EQ(server->requests_accepted(), static_cast<uint64_t>(kClients * 25));
}

TEST(Xrpc, ServerShutdownFailsInFlightCalls) {
  auto server = Server::start(
      CallHandler([](CallContext) { /* never responds */ }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  std::atomic<bool> failed{false};
  ASSERT_TRUE((*chan)
                  ->call_async("x/Y", {},
                               [&](Code c, Bytes) {
                                 EXPECT_NE(c, Code::kOk);
                                 failed = true;
                               })
                  .is_ok());
  (*server)->shutdown();
  (*chan)->close();  // channel close fails orphans
  EXPECT_TRUE(failed.load());
}

TEST(Xrpc, PeerCloseFailsPendingCallsOnceAndLaterCallsAtOnce) {
  // The peer goes away with a unary call and a stream outstanding and the
  // channel still open: the reader answers both with UNAVAILABLE on EOF
  // (close() is never called here), and a later call fails at once
  // instead of waiting out its timeout.
  auto server = Server::start(CallHandler([](CallContext) { /* never responds */ }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  std::atomic<int> answered{0};
  std::atomic<Code> code{Code::kOk};
  ASSERT_TRUE((*chan)
                  ->call_async("x/Y", {},
                               [&](Code c, Bytes) {
                                 code = c;
                                 answered.fetch_add(1);
                               })
                  .is_ok());
  auto stream = (*chan)->open_stream("x/Stream");
  ASSERT_TRUE(stream.is_ok());
  (*server)->shutdown();

  for (int i = 0; i < 2000 && answered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(answered.load(), 1);
  EXPECT_EQ(code.load(), Code::kUnavailable);
  auto fin = (*stream)->finish(5000);
  ASSERT_FALSE(fin.is_ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto late = (*chan)->call("x/Y", {}, 5000);
  EXPECT_FALSE(late.is_ok());
  EXPECT_EQ(late.status().code(), Code::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(100));
  EXPECT_FALSE((*chan)->open_stream("x/Stream").is_ok());

  stream->reset();
  (*chan)->close();
  EXPECT_EQ(answered.load(), 1);  // answered exactly once
}

TEST(Xrpc, ShutdownRacesInFlightTraffic) {
  // TSan regression shape for the server stop/join ordering audit: fire
  // async traffic from several channels and shut the server down in the
  // middle of it. Every callback must still run exactly once (with kOk
  // or kUnavailable), every connection thread must be joined (no leak,
  // no use-after-free of ConnState), and repeated shutdown() is a no-op.
  for (int round = 0; round < 10; ++round) {
    auto server = echo_server();
    constexpr int kChannels = 3;
    constexpr int kCallsPerChannel = 40;
    std::atomic<int> callbacks{0};
    std::vector<std::unique_ptr<Channel>> channels;
    for (int c = 0; c < kChannels; ++c) {
      auto ch = Channel::connect(server->port());
      ASSERT_TRUE(ch.is_ok());
      channels.push_back(std::move(*ch));
    }
    std::vector<std::thread> callers;
    for (auto& ch : channels) {
      callers.emplace_back([&callbacks, &ch] {
        for (int i = 0; i < kCallsPerChannel; ++i) {
          Bytes payload = to_bytes(std::string_view("ping"));
          Status st = ch->call_async("test.Echo/Echo", ByteSpan(payload),
                                     [&callbacks](Code, Bytes) {
                                       callbacks.fetch_add(
                                           1, std::memory_order_relaxed);
                                     });
          if (!st.is_ok()) {
            // Channel already torn down by the shutdown below: the call
            // was never registered, so no callback is owed.
            return;
          }
        }
      });
    }
    server->shutdown();   // races the callers above
    server->shutdown();   // idempotent
    for (auto& t : callers) t.join();
    // Closing the channels fails any still-pending callbacks.
    for (auto& ch : channels) ch->close();
    SUCCEED();
  }
}

TEST(Xrpc, ConnectToClosedPortFails) {
  // Grab a port, then close it so nothing listens there.
  uint16_t dead_port;
  {
    auto l = Listener::create();
    ASSERT_TRUE(l.is_ok());
    dead_port = l->port();
  }
  auto chan = Channel::connect(dead_port);
  EXPECT_FALSE(chan.is_ok());
}

TEST(Xrpc, AsyncCallbackRunsOffCallerThread) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> checked{false};
  std::mutex mu;
  std::condition_variable cv;
  ASSERT_TRUE((*chan)
                  ->call_async("test.Echo/Echo", as_bytes_view("t"),
                               [&](Code, Bytes) {
                                 EXPECT_NE(std::this_thread::get_id(), caller);
                                 // Flag and notify under the mutex: the
                                 // waiter can then only destroy `cv` after
                                 // notify_all() has returned (it must
                                 // reacquire `mu` first). Notifying outside
                                 // the lock raced with cv's destruction.
                                 std::lock_guard<std::mutex> l(mu);
                                 checked = true;
                                 cv.notify_all();
                               })
                  .is_ok());
  std::unique_lock lk(mu);
  cv.wait_for(lk, std::chrono::seconds(5), [&] { return checked.load(); });
  EXPECT_TRUE(checked.load());
}

// The paper's monitoring pull, over the real transport: a server started
// with a registry answers kMetricsMethod itself with the text exposition.
TEST(Xrpc, MetricsScrapeEndpoint) {
  metrics::Registry reg;
  reg.counter_family("xrpc_scrape_demo_total", "scrape test counter")
      .counter()
      .inc(3);
  reg.histogram_family("xrpc_scrape_demo_seconds", "scrape test histogram",
                       {0.001, 0.01, 0.1})
      .histogram()
      .observe(0.005);
  auto server = Server::start(
      CallHandler([](CallContext ctx) { ctx.respond(Code::kNotFound, {}); }),
      &reg);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok()) << chan.status().to_string();
  auto resp = (*chan)->call(std::string(kMetricsMethod), {});
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  std::string text(as_string_view(ByteSpan(*resp)));
  EXPECT_NE(text.find("xrpc_scrape_demo_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("xrpc_scrape_demo_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("xrpc_scrape_demo_seconds_p95"), std::string::npos);
  // The built-in endpoint never reaches the dispatch (which would have
  // answered kNotFound).
}

// ------------------------------------------------------------ streaming

TEST(XrpcStream, EchoRoundTrip) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Echo/Echo");
  ASSERT_TRUE(stream.is_ok()) << stream.status().to_string();
  std::mt19937_64 rng(kDefaultSeed);
  std::string data = random_bytes(rng, 300 * 1024);
  // Odd chunk size so the last chunk is a partial one.
  constexpr size_t kChunk = 7001;
  for (size_t off = 0; off < data.size(); off += kChunk) {
    size_t n = std::min(kChunk, data.size() - off);
    ASSERT_TRUE((*stream)
                    ->write(ByteSpan(as_bytes_view(data).subspan(off, n)))
                    .is_ok());
  }
  auto resp = (*stream)->finish();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), data);
}

TEST(XrpcStream, EmptyStreamRoundTrip) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Echo/Echo");
  ASSERT_TRUE(stream.is_ok());
  auto resp = (*stream)->finish();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_TRUE(resp->empty());
}

TEST(XrpcStream, ErrorStatusOnFinish) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Echo/Fail");
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE((*stream)->write(as_bytes_view("x")).is_ok());
  auto resp = (*stream)->finish();
  EXPECT_EQ(resp.status().code(), Code::kInvalidArgument);
}

TEST(XrpcStream, CreditWindowStallsWriter) {
  // A receiver that grants slowly must stall the sender at the xRPC edge:
  // initial window = one chunk, each further grant delayed past the
  // client's next write() attempt.
  constexpr uint32_t kChunk = 8 * 1024;
  auto server = Server::start(CallHandler([](CallContext ctx) {
    ServerStream* stream = ctx.stream.get();
    auto respond = std::move(ctx.respond);
    auto total = std::make_shared<uint64_t>(0);
    stream->on_chunk([total, stream](Bytes chunk) {
      *total += chunk.size();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      (void)stream->grant(static_cast<uint32_t>(chunk.size()));
    });
    stream->on_end([total, respond] {
      Bytes out = to_bytes(std::to_string(*total));
      respond(Code::kOk, ByteSpan(out));
    });
    (void)stream->grant(kChunk);
  }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Slow/Sink");
  ASSERT_TRUE(stream.is_ok());
  std::mt19937_64 rng(kDefaultSeed);
  std::string data = random_bytes(rng, kChunk);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*stream)->write(as_bytes_view(data)).is_ok());
  }
  auto resp = (*stream)->finish();
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), std::to_string(4 * kChunk));
  // Every write after the first had to wait for a delayed grant.
  EXPECT_GE((*stream)->credit_stalls(), 1u);
}

TEST(XrpcStream, AbortReachesServer) {
  std::atomic<bool> aborted{false};
  std::atomic<Code> abort_code{Code::kOk};
  auto server = Server::start(CallHandler([&](CallContext ctx) {
    ServerStream* stream = ctx.stream.get();
    stream->on_chunk([](Bytes) {});
    stream->on_end([] {});
    stream->on_abort([&](Code code) {
      abort_code = code;
      aborted = true;
    });
    (void)stream->grant(1u << 16);
    // Responder intentionally dropped: an aborted stream never answers.
  }));
  ASSERT_TRUE(server.is_ok());
  auto chan = Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  auto stream = (*chan)->open_stream("test.Abort/Me");
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE((*stream)->write(as_bytes_view("partial")).is_ok());
  (*stream)->abort(Code::kDataLoss);
  for (int i = 0; i < 500 && !aborted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(aborted.load());
  EXPECT_EQ(abort_code.load(), Code::kDataLoss);
  // finish() after abort reports the abort, not a hang.
  auto resp = (*stream)->finish(2000);
  EXPECT_FALSE(resp.is_ok());
}

// Without a registry, the scrape method is just another dispatched call.
TEST(Xrpc, MetricsScrapeAbsentWithoutRegistry) {
  auto server = echo_server();
  auto chan = Channel::connect(server->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call(std::string(kMetricsMethod), {});
  EXPECT_FALSE(resp.is_ok());  // echo_server dispatch answers kNotFound
}

// ------------------------------------------------------------ FrameReader

struct SocketPair {
  Fd writer;
  Fd reader;
};

/// Connected stream sockets. The reader side times out after 2 s, so a
/// reader that wrongly waits for bytes fails the test instead of hanging.
SocketPair socket_pair() {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  timeval timeout{2, 0};
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return {Fd(sv[0]), Fd(sv[1])};
}

/// An untraced request frame, encoded by hand from the documented layout.
Bytes request_frame(uint32_t call_id, std::string_view method,
                    std::string_view payload) {
  const auto body = static_cast<uint32_t>(1 + 4 + 2 + method.size() + payload.size());
  Bytes frame(4 + body);
  auto* p = reinterpret_cast<uint8_t*>(frame.data());
  store_le<uint32_t>(p, body);
  p[4] = static_cast<uint8_t>(FrameType::kRequest);
  store_le<uint32_t>(p + 5, call_id);
  store_le<uint16_t>(p + 9, static_cast<uint16_t>(method.size()));
  std::memcpy(p + 11, method.data(), method.size());
  std::memcpy(p + 11 + method.size(), payload.data(), payload.size());
  return frame;
}

void expect_request(StatusOr<AnyFrame>& frame, uint32_t call_id,
                    std::string_view method, std::string_view payload) {
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  ASSERT_EQ(frame->type, FrameType::kRequest);
  EXPECT_EQ(frame->request.call_id, call_id);
  EXPECT_EQ(frame->request.method, method);
  EXPECT_EQ(as_string_view(ByteSpan(frame->request.payload)), payload);
}

TEST(FrameReader, ParsesEveryFrameOfOneSendInOrder) {
  auto [writer, reader_fd] = socket_pair();
  constexpr uint32_t kFrames = 64;
  Bytes burst;
  for (uint32_t i = 0; i < kFrames; ++i) {
    Bytes f = request_frame(i, "m/" + std::to_string(i), std::string(i, 'a' + i % 26));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_EQ(::send(writer.get(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  FrameReader reader(reader_fd);
  for (uint32_t i = 0; i < kFrames; ++i) {
    auto frame = reader.next();
    expect_request(frame, i, "m/" + std::to_string(i), std::string(i, 'a' + i % 26));
  }
}

TEST(FrameReader, ParsesFramesSentOneBytePerSend) {
  auto [writer, reader_fd] = socket_pair();
  Bytes bytes = request_frame(7, "test.Echo/Echo", "dribbled");
  Bytes second = request_frame(8, "x/y", "");
  bytes.insert(bytes.end(), second.begin(), second.end());
  std::thread dribble([&, fd = writer.get()] {
    for (std::byte b : bytes) {
      ASSERT_EQ(::send(fd, &b, 1, 0), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  FrameReader reader(reader_fd);
  auto first = reader.next();
  auto next = reader.next();
  dribble.join();
  expect_request(first, 7, "test.Echo/Echo", "dribbled");
  expect_request(next, 8, "x/y", "");
}

TEST(FrameReader, RejectsOutOfRangeLengthBeforeReadingBody) {
  for (uint32_t declared : {0u, 4u, kMaxFrameBody + 1, 0xFFFFFFFFu}) {
    auto [writer, reader_fd] = socket_pair();
    uint8_t header[4];
    store_le<uint32_t>(header, declared);
    ASSERT_TRUE(write_all(writer, header, 4).is_ok());
    // The writer stays open and sends no body: a reader that tried to
    // allocate or read one would time out with kUnavailable instead.
    FrameReader reader(reader_fd);
    auto frame = reader.next();
    EXPECT_EQ(frame.status().code(), Code::kDataLoss) << "length " << declared;
  }
}

TEST(FrameReader, PeerClosingMidFrameFails) {
  Bytes frame = request_frame(1, "m", "payload bytes");
  // Cut inside the length word, inside the header, and inside the body.
  for (size_t cut : {size_t{2}, size_t{6}, frame.size() - 3}) {
    auto [writer, reader_fd] = socket_pair();
    ASSERT_TRUE(write_all(writer, frame.data(), cut).is_ok());
    writer.reset();
    FrameReader reader(reader_fd);
    auto got = reader.next();
    EXPECT_FALSE(got.is_ok()) << "cut at " << cut;
  }
  // A close between frames is the clean end of the connection.
  auto [writer, reader_fd] = socket_pair();
  ASSERT_TRUE(write_all(writer, frame.data(), frame.size()).is_ok());
  writer.reset();
  FrameReader reader(reader_fd);
  auto whole = reader.next();
  expect_request(whole, 1, "m", "payload bytes");
  EXPECT_EQ(reader.next().status().code(), Code::kUnavailable);
}

TEST(FrameReader, MegabyteStreamChunkRoundTrips) {
  auto [writer, reader_fd] = socket_pair();
  std::mt19937_64 rng(kDefaultSeed);
  const std::string chunk = random_bytes(rng, 1u << 20);
  static_assert((1u << 20) > FrameReader::kBufferBytes);
  // A small frame first, so the big one's header lands mid-buffer.
  std::thread sender([&] {
    Bytes head = request_frame(3, "m", "head");
    EXPECT_TRUE(write_all(writer, head.data(), head.size()).is_ok());
    EXPECT_TRUE(write_stream_chunk(writer, 9, as_bytes_view(chunk)).is_ok());
    EXPECT_TRUE(write_stream_end(writer, 9).is_ok());
  });
  FrameReader reader(reader_fd);
  auto head = reader.next();
  auto big = reader.next();
  auto end = reader.next();
  sender.join();
  expect_request(head, 3, "m", "head");
  ASSERT_TRUE(big.is_ok()) << big.status().to_string();
  ASSERT_EQ(big->type, FrameType::kStreamChunk);
  EXPECT_EQ(big->stream.call_id, 9u);
  EXPECT_TRUE(as_string_view(ByteSpan(big->stream.payload)) == chunk);
  ASSERT_TRUE(end.is_ok()) << end.status().to_string();
  EXPECT_EQ(end->type, FrameType::kStreamEnd);
  EXPECT_EQ(end->stream.call_id, 9u);
}

TEST(FrameReader, NonBlockingReceiveGathersALargeFrameAcrossCalls) {
  // The poller's path: each receive() is one recv that never blocks, and
  // take_frame() yields views into the reader. A frame larger than the buffer
  // is gathered over as many receive() calls as it takes.
  auto [writer, reader_fd] = socket_pair();
  FrameReader reader(reader_fd);
  FrameView f;
  ASSERT_TRUE(reader.receive(/*block=*/false).is_ok());  // nothing yet
  auto none = reader.take_frame(f);
  ASSERT_TRUE(none.is_ok());
  EXPECT_FALSE(*none);

  // Two small frames from one send: one receive, two views.
  Bytes two = request_frame(1, "a/b", "first");
  Bytes second = request_frame(2, "c/d", "second");
  two.insert(two.end(), second.begin(), second.end());
  ASSERT_TRUE(write_all(writer, two.data(), two.size()).is_ok());
  ASSERT_TRUE(reader.receive(false).is_ok());
  FrameView a, b;
  ASSERT_TRUE(*reader.take_frame(a));
  ASSERT_TRUE(*reader.take_frame(b));
  EXPECT_EQ(a.call_id, 1u);
  EXPECT_EQ(a.method, "a/b");
  EXPECT_EQ(as_string_view(a.payload), "first");  // still valid after take_frame(b)
  EXPECT_EQ(b.method, "c/d");
  EXPECT_EQ(as_string_view(b.payload), "second");
  EXPECT_FALSE(*reader.take_frame(f));

  // A stream chunk four times the buffer, sent in pieces.
  std::mt19937_64 rng(kDefaultSeed);
  const std::string chunk = random_bytes(rng, 4 * FrameReader::kBufferBytes);
  Bytes frame(9);
  store_le<uint32_t>(frame.data(), static_cast<uint32_t>(5 + chunk.size()));
  frame[4] = static_cast<std::byte>(FrameType::kStreamChunk);
  store_le<uint32_t>(frame.data() + 5, 7);
  const ByteSpan body = as_bytes_view(chunk);
  frame.insert(frame.end(), body.begin(), body.end());
  size_t sent = 0;
  int receives = 0;
  bool got = false;
  while (!got) {
    if (sent < frame.size()) {
      const size_t n = std::min<size_t>(20000, frame.size() - sent);
      ASSERT_TRUE(write_all(writer, frame.data() + sent, n).is_ok());
      sent += n;
    }
    ASSERT_TRUE(reader.receive(false).is_ok());
    ++receives;
    auto taken = reader.take_frame(f);
    ASSERT_TRUE(taken.is_ok()) << taken.status().to_string();
    got = *taken;
    ASSERT_TRUE(got || sent < frame.size() || receives < 100);
  }
  EXPECT_GT(receives, 4);
  EXPECT_EQ(f.type, FrameType::kStreamChunk);
  EXPECT_EQ(f.call_id, 7u);
  EXPECT_TRUE(as_string_view(f.payload) == chunk);

  // The peer closing is reported by the next receive(), not by take_frame().
  writer.reset();
  EXPECT_EQ(reader.receive(false).code(), Code::kUnavailable);
}

// ------------------------------------------------------------- ReplyBatch

/// One end of a socket pair as a server connection; the other end reads.
struct ReplyConn {
  std::shared_ptr<ConnState> conn;
  Fd reader;
};

ReplyConn reply_conn() {
  auto [writer, reader] = socket_pair();
  auto conn = std::make_shared<ConnState>();
  conn->fd = std::move(writer);
  return {std::move(conn), std::move(reader)};
}

void expect_response(StatusOr<AnyFrame>& frame, uint32_t call_id, Code status,
                     std::string_view payload) {
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  ASSERT_EQ(frame->type, FrameType::kResponse);
  EXPECT_EQ(frame->response.call_id, call_id);
  EXPECT_EQ(frame->response.status, status);
  EXPECT_TRUE(as_string_view(ByteSpan(frame->response.payload)) == payload)
      << "call " << call_id;
}

TEST(ReplyBatch, EachConnectionGetsItsOwnFramesInAddOrder) {
  ReplyConn a = reply_conn();
  ReplyConn b = reply_conn();
  ReplyBatch batch;
  // Interleaved across two connections, the way a lane finishes calls.
  batch.add(Responder(a.conn, 1, {}), Code::kOk, as_bytes_view("a1"));
  batch.add(Responder(b.conn, 1, {}), Code::kOk, as_bytes_view("b1"));
  batch.add(Responder(a.conn, 2, {}), Code::kDataLoss, {});
  batch.add(Responder(b.conn, 7, {}), Code::kOk, as_bytes_view("b7"));
  batch.add(Responder(a.conn, 3, {}), Code::kOk, as_bytes_view("a3"));
  EXPECT_EQ(batch.flush(), 2u);  // one send per connection
  EXPECT_EQ(batch.flush(), 0u);  // nothing left

  FrameReader ra(a.reader);
  auto a1 = ra.next();
  auto a2 = ra.next();
  auto a3 = ra.next();
  expect_response(a1, 1, Code::kOk, "a1");
  expect_response(a2, 2, Code::kDataLoss, "");
  expect_response(a3, 3, Code::kOk, "a3");
  FrameReader rb(b.reader);
  auto b1 = rb.next();
  auto b7 = rb.next();
  expect_response(b1, 1, Code::kOk, "b1");
  expect_response(b7, 7, Code::kOk, "b7");
}

TEST(ReplyBatch, BatchedFrameIsByteIdenticalToADirectReply) {
  ReplyConn direct = reply_conn();
  ReplyConn batched = reply_conn();
  const std::string payload = "same bytes either way";
  Responder(direct.conn, 42, {})(Code::kOk, as_bytes_view(payload));
  ReplyBatch batch;
  batch.add(Responder(batched.conn, 42, {}), Code::kOk, as_bytes_view(payload));
  ASSERT_EQ(batch.flush(), 1u);
  const size_t frame_bytes = 4 + 1 + 4 + 1 + payload.size();
  Bytes x(frame_bytes), y(frame_bytes);
  ASSERT_TRUE(read_all(direct.reader, x.data(), x.size()).is_ok());
  ASSERT_TRUE(read_all(batched.reader, y.data(), y.size()).is_ok());
  EXPECT_EQ(x, y);
}

TEST(ReplyBatch, ClosedPeerLosesOnlyItsOwnReplies) {
  ReplyConn gone = reply_conn();
  ReplyConn live = reply_conn();
  ReplyBatch batch;
  batch.add(Responder(gone.conn, 1, {}), Code::kOk, as_bytes_view("lost"));
  batch.add(Responder(live.conn, 1, {}), Code::kOk, as_bytes_view("kept"));
  gone.reader.reset();  // the client closes before the flush
  batch.flush();        // no crash, no SIGPIPE
  // The batch keeps serving the surviving connection.
  batch.add(Responder(gone.conn, 2, {}), Code::kOk, as_bytes_view("lost too"));
  batch.add(Responder(live.conn, 2, {}), Code::kOk, as_bytes_view("next"));
  batch.flush();
  FrameReader reader(live.reader);
  auto first = reader.next();
  auto second = reader.next();
  expect_response(first, 1, Code::kOk, "kept");
  expect_response(second, 2, Code::kOk, "next");
}

TEST(ReplyBatch, OverCapBatchFlushesMidTurnAndEveryFrameArrivesIntact) {
  ReplyConn c = reply_conn();
  std::mt19937_64 rng(kDefaultSeed);
  // ~3.5 buffers of 10 KB frames, with one frame larger than the whole
  // buffer in the middle (written on its own, still in order).
  std::vector<std::string> payloads;
  for (int i = 0; i < 24; ++i) payloads.push_back(random_bytes(rng, 10000));
  payloads[11] = random_bytes(rng, FrameReader::kBufferBytes + 5000);
  std::vector<StatusOr<AnyFrame>> got;
  std::thread reader_thread([&] {
    FrameReader reader(c.reader);
    for (size_t i = 0; i < payloads.size(); ++i) got.push_back(reader.next());
  });
  ReplyBatch batch;
  for (size_t i = 0; i < payloads.size(); ++i) {
    batch.add(Responder(c.conn, static_cast<uint32_t>(i), {}), Code::kOk,
              as_bytes_view(payloads[i]));
  }
  const size_t sends = batch.flush();
  reader_thread.join();
  // Sends happened mid-turn at the cap: more than one write, far fewer
  // than one per frame.
  EXPECT_GT(sends, 2u);
  EXPECT_LT(sends, payloads.size() / 2);
  ASSERT_EQ(got.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    expect_response(got[i], static_cast<uint32_t>(i), Code::kOk, payloads[i]);
  }
}

TEST(ReplyBatch, FanOutToManyConnectionsKeepsOrderAndBoundsRetainedMemory) {
  constexpr int kConns = 100;
  constexpr uint32_t kPerConn = 3;
  std::vector<ReplyConn> conns;
  for (int i = 0; i < kConns; ++i) conns.push_back(reply_conn());
  ReplyBatch batch;
  // Round-robin, so no two adds in a row share a connection.
  for (uint32_t call = 1; call <= kPerConn; ++call) {
    for (int i = 0; i < kConns; ++i) {
      const std::string payload = std::to_string(i) + "/" + std::to_string(call);
      batch.add(Responder(conns[i].conn, call, {}), Code::kOk, as_bytes_view(payload));
    }
  }
  EXPECT_EQ(batch.flush(), static_cast<size_t>(kConns));  // one send each
  for (int i = 0; i < kConns; ++i) {
    FrameReader reader(conns[i].reader);
    for (uint32_t call = 1; call <= kPerConn; ++call) {
      auto frame = reader.next();
      expect_response(frame, call, Code::kOk,
                      std::to_string(i) + "/" + std::to_string(call));
    }
  }
  EXPECT_LE(batch.retained_bytes(), FrameReader::kBufferBytes);

  // Large replies to several connections: after the flush the batch keeps
  // at most kBufferBytes of buffer, not one large buffer per connection.
  std::mt19937_64 rng(kDefaultSeed);
  const std::string big = random_bytes(rng, 40000);
  for (int i = 0; i < 4; ++i) {
    batch.add(Responder(conns[i].conn, 9, {}), Code::kOk, as_bytes_view(big));
  }
  EXPECT_EQ(batch.flush(), 4u);
  EXPECT_LE(batch.retained_bytes(), FrameReader::kBufferBytes);
  for (int i = 0; i < 4; ++i) {
    FrameReader reader(conns[i].reader);
    auto frame = reader.next();
    expect_response(frame, 9, Code::kOk, big);
  }
  // The connection references went with the flush: the batch pins no
  // socket.
  for (const ReplyConn& c : conns) EXPECT_EQ(c.conn.use_count(), 1);
}

TEST(ReplyBatch, TracedReplyCarriesFrameTraceStampedAtAppend) {
  ReplyConn c = reply_conn();
  trace::TraceContext tctx{0xabc, 0xdef};
  ReplyBatch batch;
  const uint64_t before = WallTimer::now();
  batch.add(Responder(c.conn, 5, tctx), Code::kOk, as_bytes_view("traced"));
  const uint64_t appended = WallTimer::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  batch.add(Responder(c.conn, 6, {}), Code::kOk, as_bytes_view("plain"));
  ASSERT_EQ(batch.flush(), 1u);
  FrameReader reader(c.reader);
  auto traced = reader.next();
  auto plain = reader.next();
  expect_response(traced, 5, Code::kOk, "traced");
  expect_response(plain, 6, Code::kOk, "plain");
  ASSERT_TRUE(traced->response.trace.active());
  EXPECT_EQ(traced->response.trace.trace_id, 0xabcu);
  EXPECT_EQ(traced->response.trace.span_id, 0xdefu);
  // The send stamp is the append instant, not the later flush: time spent
  // in the batch belongs to the client's xrpc_outbound span.
  EXPECT_GE(traced->response.trace.send_ns, before);
  EXPECT_LE(traced->response.trace.send_ns, appended);
  EXPECT_FALSE(plain->response.trace.active());
}

}  // namespace
}  // namespace dpurpc::xrpc
