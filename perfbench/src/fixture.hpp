// The benchmark's deployment: one proxy lane, the codec pool at its
// default size, one benchmark-owned host poller thread, and an rdmarpc
// connection pair whose counters land in a per-deployment registry. Every
// phase of a run gets a fresh one, so no backlog survives into the next.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "metrics/metrics.hpp"
#include "proto/dynamic_message.hpp"

namespace perfbench {

using namespace dpurpc;

inline constexpr std::string_view kSchema = R"(
syntax = "proto3";
package pb;
message Small { int32 id = 1; bool flag = 2; float score = 3; uint64 stamp = 4; }
message IntArray { repeated uint32 values = 1; uint64 stamp = 2; }
message CharArray { string data = 1; uint64 stamp = 2; }
message Row { uint64 row_id = 1; bytes cells = 2; }
message Ack { uint64 stamp = 1; uint64 count = 2; }
service Datapath {
  rpc Tiny (Small) returns (Ack);
  rpc Ints (IntArray) returns (Ack);
  rpc Chars (CharArray) returns (Ack);
  rpc Fetch (Small) returns (IntArray);
  rpc Ingest (Row) returns (Ack);
}
)";

inline constexpr const char* kTiny = "pb.Datapath/Tiny";
inline constexpr const char* kInts = "pb.Datapath/Ints";
inline constexpr const char* kChars = "pb.Datapath/Chars";
inline constexpr const char* kFetch = "pb.Datapath/Fetch";
inline constexpr const char* kIngest = "pb.Datapath/Ingest";

/// Values in a Fetch reply; the host derives them from the request key.
inline constexpr uint32_t kFetchValues = 4096;

inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The i-th value of the Fetch reply for `key`: varint lengths 1..5 bytes.
inline uint32_t fetch_value(uint64_t key, uint32_t i) {
  uint64_t h = mix64(key * 0x100000001b3ull + i);
  return static_cast<uint32_t>(h >> 32) >> (h & 31);
}

struct Deployment {
  metrics::Registry registry;  ///< rdmarpc counters; outlives the connections
  proto::DescriptorPool pool;
  std::unique_ptr<grpccompat::OffloadManifest> manifest;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd, host_pd;
  std::unique_ptr<rdmarpc::Connection> dpu_conn, host_conn;
  std::unique_ptr<grpccompat::HostEngine> host;
  std::unique_ptr<grpccompat::DpuProxy> proxy;
  std::thread host_thread;
  std::atomic<bool> stop{false};
  uint16_t port = 0;
  /// Schema parse through the first verified reply, seconds.
  double setup_s = 0;

  /// Self-test hook: every handler answers with a wrong stamp.
  bool wrong_reply = false;
  /// The benchmark's own span around each host handler invocation.
  std::atomic<uint64_t> handler_ns{0};
  std::atomic<uint64_t> handler_calls{0};
  /// Bytes received per open stream; touched by the host thread only.
  std::unordered_map<uint32_t, uint64_t> stream_bytes;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  /// CPU seconds consumed so far by the host poller thread.
  double host_cpu_s();
  /// No request in flight: the lane holds nothing and every request the
  /// proxy offloaded has had its reply come back.
  bool idle() const;
  /// Waits up to two seconds for idle(); false if it never got there.
  bool wait_idle() const;
  /// Sum over roles of a counter family in `registry` (0 if absent).
  uint64_t counter(const std::string& name);
};

/// Build, start and prove one deployment (its first call must come back
/// verified). Null with `err` set on failure.
std::unique_ptr<Deployment> deploy(bool wrong_reply, std::string* err);

}  // namespace perfbench
