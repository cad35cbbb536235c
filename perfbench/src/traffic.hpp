// Workload inputs, reply checks, and the two load shapes: open-loop unary
// phases on src/loadgen, and back-to-back xRPC streams.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "fixture.hpp"

namespace perfbench {

enum class Kind { kUnarySmall, kUnaryIngest, kUnaryFetch, kStreamIngest };

/// Proto3 wire helpers for the benchmark's own messages.
void append_varint_field(Bytes& out, uint32_t field, uint64_t value);
Bytes encode_small(uint64_t id, uint64_t stamp);
Bytes encode_ack(uint64_t stamp, uint64_t count);
/// True when `reply` is exactly Ack{stamp, count}.
bool check_ack(ByteSpan reply, uint64_t stamp, uint64_t count);

/// Everything a workload sends, generated from its seed. Request `k` of
/// mix class `m` is a pooled body plus a per-request stamp, so every
/// reply is checked against the request it answers.
class Traffic {
 public:
  Traffic(Kind kind, uint64_t seed);

  Kind kind() const { return kind_; }
  /// Loadgen mix weights of the unary calls (stream_ingest: its probes).
  const std::vector<double>& mix_weights() const { return weights_; }
  const char* method(size_t m) const { return methods_[m]; }
  /// Wire bytes of request `k` of class `m`.
  void request(size_t m, uint64_t k, Bytes& out) const;
  /// Reply check for request `k` of class `m`.
  bool verify(size_t m, uint64_t k, ByteSpan reply) const;

  /// The bytes of one stream_ingest stream: concatenated Row records.
  const Bytes& stream_payload() const { return stream_; }
  uint64_t stream_rows() const { return stream_rows_; }

  /// Pooled request bodies (no stamp) of class `m`, for the layer timings.
  const std::vector<Bytes>& bodies(size_t m) const { return bodies_[m]; }
  uint64_t seed() const { return seed_; }

 private:
  uint64_t id_of(uint64_t k) const;
  uint64_t stamp_of(uint64_t k) const { return stamp_base_ + k; }

  Kind kind_;
  uint64_t seed_;
  uint64_t stamp_base_;
  std::vector<double> weights_;
  std::vector<const char*> methods_;
  std::vector<std::vector<Bytes>> bodies_;
  std::vector<uint64_t> counts_;  ///< expected Ack.count per Ints/Chars body
  Bytes stream_;
  uint64_t stream_rows_ = 0;
};

/// One open-loop phase at a fixed rate on a fresh channel. The caller
/// proves the datapath idle first (Deployment::wait_idle).
struct PhaseResult {
  double rate = 0, seconds = 0;
  uint64_t scheduled = 0, ok = 0, errors = 0, wrong = 0, drops = 0, timeouts = 0;
  double p50_us = 0, p99_us = 0;  ///< from the scheduled arrival, ok replies
  double late_p99_us = 0;         ///< send time minus scheduled time
  double cpu_s = 0;               ///< process CPU minus the generator thread
  double host_cpu_s = 0;          ///< the host poller thread
  uint64_t payload_bytes = 0;     ///< request + reply bytes of verified replies
  std::vector<double> latencies_us;  ///< ok replies, in arrival order
  uint64_t failed() const { return errors + wrong + drops + timeouts; }
};

PhaseResult run_phase(Deployment& d, const Traffic& t, double rate, double seconds,
                      uint64_t seed);

/// Closed loop on a fresh channel: `concurrency` calls kept in flight for
/// `seconds` (loadgen's calibration driver). Latency fields stay empty.
PhaseResult run_closed(Deployment& d, const Traffic& t, size_t concurrency, double seconds,
                       uint64_t seed);

/// Back-to-back streams of the workload's payload, one at a time on one
/// channel, until `seconds` pass or `stop` is set.
struct StreamResult {
  uint64_t streams = 0, failed = 0, wrong = 0;
  uint64_t bytes = 0;  ///< payload bytes whose final ack matched
  uint64_t stalls = 0; ///< credit stalls seen by the writer
  double wall_s = 0;
  double cpu_s = 0;    ///< process CPU minus the writer (calling) thread
  double host_cpu_s = 0;
};

StreamResult run_streams(Deployment& d, const Traffic& t, double seconds,
                         const std::atomic<bool>* stop = nullptr);

}  // namespace perfbench
