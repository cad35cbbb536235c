#include "traffic.hpp"

#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "common/cpu_timer.hpp"
#include "common/rng.hpp"
#include "loadgen/loadgen.hpp"
#include "proto/schema_parser.hpp"
#include "util.hpp"
#include "xrpc/channel.hpp"

namespace perfbench {

namespace {

/// A reply later than this after its scheduled arrival is a timeout.
constexpr uint64_t kTimeoutNs = 1'000'000'000;
/// Pooled request bodies per class.
constexpr size_t kPool = 16;
/// stream_ingest: bytes per stream and per xRPC write.
constexpr size_t kStreamBytes = 8u << 20;
constexpr size_t kStreamWrite = 64u << 10;

bool read_varint(const std::byte*& p, const std::byte* end, uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64 && p < end; shift += 7) {
    auto b = static_cast<uint8_t>(*p++);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

void append_varint(Bytes& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::unique_ptr<proto::DescriptorPool> parse_schema() {
  auto pool = std::make_unique<proto::DescriptorPool>();
  proto::SchemaParser parser(*pool);
  if (!parser.parse_and_link(kSchema).is_ok()) std::abort();
  return pool;
}

enum Outcome : uint8_t { kPending, kOk, kError, kWrong };

/// Per-request outcome slots of one phase; shared with the completion
/// callbacks so a straggler never writes into freed memory.
struct Recorder {
  explicit Recorder(size_t n) : send_ns(n), req_bytes(n), done_ns(n), outcome(n) {}
  std::vector<uint64_t> send_ns;
  std::vector<uint32_t> req_bytes;
  std::vector<std::atomic<uint64_t>> done_ns;
  std::vector<std::atomic<uint8_t>> outcome;  ///< an Outcome
  std::atomic<uint64_t> bytes{0};
};

}  // namespace

void append_varint_field(Bytes& out, uint32_t field, uint64_t value) {
  append_varint(out, static_cast<uint64_t>(field) << 3);
  append_varint(out, value);
}

Bytes encode_small(uint64_t id, uint64_t stamp) {
  Bytes out;
  out.reserve(24);
  append_varint_field(out, 1, id);
  append_varint_field(out, 2, 1);
  append_varint(out, (3u << 3) | 5);  // score: fixed32 1.5f
  const float score = 1.5f;
  const auto* s = reinterpret_cast<const std::byte*>(&score);
  out.insert(out.end(), s, s + sizeof score);
  append_varint_field(out, 4, stamp);
  return out;
}

Bytes encode_ack(uint64_t stamp, uint64_t count) {
  Bytes out;
  if (stamp != 0) append_varint_field(out, 1, stamp);
  if (count != 0) append_varint_field(out, 2, count);
  return out;
}

bool check_ack(ByteSpan reply, uint64_t stamp, uint64_t count) {
  uint64_t got_stamp = 0, got_count = 0;
  const std::byte* p = reply.data();
  const std::byte* end = p + reply.size();
  while (p < end) {
    uint64_t tag, v;
    if (!read_varint(p, end, tag) || !read_varint(p, end, v)) return false;
    if (tag == (1u << 3)) {
      got_stamp = v;
    } else if (tag == (2u << 3)) {
      got_count = v;
    } else {
      return false;
    }
  }
  return got_stamp == stamp && got_count == count;
}

Traffic::Traffic(Kind kind, uint64_t seed)
    // Stamps sit in [2^40, 2^41): six varint bytes whatever the seed, so
    // per-MiB figures do not depend on it.
    : kind_(kind), seed_(seed), stamp_base_((1ull << 40) + (mix64(seed) & ((1ull << 39) - 1))) {
  auto pool = parse_schema();
  std::mt19937_64 rng(mix64(seed ^ 0x7261666669637ull));
  auto small_bodies = [&] {
    std::vector<Bytes> v;
    for (uint64_t k = 0; k < kPool; ++k) v.push_back(encode_small(id_of(k), stamp_of(k)));
    return v;
  };
  switch (kind) {
    case Kind::kUnarySmall:
    case Kind::kStreamIngest:
      weights_ = {1.0};
      methods_ = {kTiny};
      bodies_ = {small_bodies()};
      counts_ = {0};
      break;
    case Kind::kUnaryFetch:
      weights_ = {1.0};
      methods_ = {kFetch};
      bodies_ = {small_bodies()};
      counts_ = {kFetchValues};
      break;
    case Kind::kUnaryIngest: {
      weights_ = {0.7, 0.3};
      methods_ = {kInts, kChars};
      bodies_.resize(2);
      const auto* ints = pool->find_message("pb.IntArray");
      const auto* chars = pool->find_message("pb.CharArray");
      SkewedVarintDistribution dist;
      for (size_t i = 0; i < kPool; ++i) {
        proto::DynamicMessage iv(ints);
        for (int j = 0; j < 4096; ++j) iv.add_uint64(ints->field_by_name("values"), dist(rng));
        bodies_[0].push_back(proto::WireCodec::serialize(iv));
        proto::DynamicMessage cv(chars);
        cv.set_string(chars->field_by_name("data"), random_ascii(rng, 8000));
        bodies_[1].push_back(proto::WireCodec::serialize(cv));
      }
      counts_ = {4096, 8000};
      break;
    }
  }
  if (kind == Kind::kStreamIngest) {
    const auto* row = pool->find_message("pb.Row");
    while (stream_.size() < kStreamBytes) {
      proto::DynamicMessage m(row);
      m.set_uint64(row->field_by_name("row_id"), stream_rows_++);
      m.set_string(row->field_by_name("cells"), random_ascii(rng, 256 + rng() % 1076));
      Bytes wire = proto::WireCodec::serialize(m);
      stream_.insert(stream_.end(), wire.begin(), wire.end());
    }
  }
}

uint64_t Traffic::id_of(uint64_t k) const {
  return mix64(seed_ ^ (k * 0x9e3779b97f4a7c15ull)) % 1'000'000 + 1;
}

void Traffic::request(size_t m, uint64_t k, Bytes& out) const {
  if (methods_[m] == kTiny || methods_[m] == kFetch) {
    out = encode_small(id_of(k), stamp_of(k));
    return;
  }
  const auto& pool = bodies_[m];
  out = pool[mix64(seed_ + k) % pool.size()];
  append_varint_field(out, 2, stamp_of(k));
}

bool Traffic::verify(size_t m, uint64_t k, ByteSpan reply) const {
  if (methods_[m] == kTiny) return check_ack(reply, stamp_of(k), id_of(k));
  if (methods_[m] != kFetch) return check_ack(reply, stamp_of(k), counts_[m]);
  // Fetch: parse with the WireCodec oracle and compare every value.
  static const auto pool = parse_schema();
  const auto* desc = pool->find_message("pb.IntArray");
  proto::DynamicMessage msg(desc);
  if (!proto::WireCodec::parse(reply, msg).is_ok()) return false;
  const auto* values = desc->field_by_name("values");
  if (msg.get_uint64(desc->field_by_name("stamp")) != stamp_of(k) ||
      msg.repeated_size(values) != kFetchValues) {
    return false;
  }
  const uint64_t key = id_of(k);
  for (uint32_t i = 0; i < kFetchValues; ++i) {
    if (msg.get_repeated_uint64(values, i) != fetch_value(key, i)) return false;
  }
  return true;
}

PhaseResult run_phase(Deployment& d, const Traffic& t, double rate, double seconds,
                      uint64_t seed) {
  PhaseResult r;
  r.rate = rate;
  r.seconds = seconds;
  auto chan = xrpc::Channel::connect(d.port);
  if (!chan.is_ok()) return r;
  std::shared_ptr<xrpc::Channel> ch = std::move(*chan);

  loadgen::RunConfig cfg;
  cfg.schedule.process = loadgen::ArrivalProcess::kPoisson;
  cfg.schedule.rate_rps = rate;
  cfg.schedule.seed = seed;
  cfg.requests = std::max<uint64_t>(1, static_cast<uint64_t>(rate * seconds));
  cfg.timeout_ns = kTimeoutNs;
  // Never drop at the generator: every arrival reaches the submit wrapper,
  // so the k-th submit is the k-th scheduled arrival of the replay below.
  cfg.max_outstanding = size_t{1} << 30;
  cfg.mix_weights = t.mix_weights();

  const uint64_t n = cfg.requests;
  std::vector<uint64_t> arrival(n);
  loadgen::ArrivalSchedule replay(cfg.schedule);
  for (auto& a : arrival) a = replay.next_arrival_ns();

  auto rec = std::make_shared<Recorder>(n);
  uint64_t next = 0;  // the generator calls submit from one thread
  const Traffic* tp = &t;
  loadgen::SubmitFn submit = [&next, rec, ch, tp](size_t m, loadgen::CompletionFn done) {
    const uint64_t k = next++;
    rec->send_ns[k] = WallTimer::now();
    thread_local Bytes wire;
    tp->request(m, k, wire);
    rec->req_bytes[k] = static_cast<uint32_t>(wire.size());
    Status st = ch->call_async(
        tp->method(m), ByteSpan(wire),
        [rec, tp, m, k, done = std::move(done)](Code c, Bytes payload) {
          const Outcome o = c != Code::kOk                         ? kError
                            : tp->verify(m, k, ByteSpan(payload)) ? kOk
                                                                    : kWrong;
          rec->done_ns[k].store(WallTimer::now(), std::memory_order_relaxed);
          if (o == kOk) rec->bytes.fetch_add(rec->req_bytes[k] + payload.size());
          rec->outcome[k].store(o, std::memory_order_release);
          done(o == kOk);
        });
    return st.is_ok();
  };

  const double cpu0 = process_cpu_s(), gen0 = thread_cpu_s(), host0 = d.host_cpu_s();
  const uint64_t epoch = WallTimer::now();
  loadgen::RunResult res = loadgen::run_open_loop(cfg, submit);
  r.cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - gen0);
  r.host_cpu_s = d.host_cpu_s() - host0;
  ch->close();  // joins the reader: no callback runs after this

  std::vector<double> lat, late;
  lat.reserve(n);
  late.reserve(n);
  for (uint64_t k = 0; k < next; ++k) {
    const uint64_t due = epoch + arrival[k];
    late.push_back(static_cast<double>(rec->send_ns[k] > due ? rec->send_ns[k] - due : 0) * 1e-3);
    const uint8_t o = rec->outcome[k].load(std::memory_order_acquire);
    if (o == kWrong) ++r.wrong;
    if (o != kOk) continue;
    const uint64_t done = rec->done_ns[k].load(std::memory_order_relaxed);
    const uint64_t ns = done > due ? done - due : 0;
    if (ns <= kTimeoutNs) lat.push_back(static_cast<double>(ns) * 1e-3);
  }
  r.scheduled = res.scheduled;
  r.ok = res.completed;
  r.errors = res.errors >= r.wrong ? res.errors - r.wrong : 0;
  r.drops = res.dropped;
  r.timeouts = res.timeouts;
  r.latencies_us = lat;
  r.p50_us = quantile(lat, 0.50);
  r.p99_us = quantile(lat, 0.99);
  r.late_p99_us = quantile(late, 0.99);
  r.payload_bytes = rec->bytes.load();
  return r;
}

PhaseResult run_closed(Deployment& d, const Traffic& t, size_t concurrency, double seconds,
                       uint64_t seed) {
  PhaseResult r;
  r.seconds = seconds;
  auto chan = xrpc::Channel::connect(d.port);
  if (!chan.is_ok()) return r;
  std::shared_ptr<xrpc::Channel> ch = std::move(*chan);
  struct Tally {
    std::atomic<uint64_t> ok{0}, errors{0}, wrong{0}, bytes{0};
  };
  auto tally = std::make_shared<Tally>();
  uint64_t next = 0;
  const Traffic* tp = &t;
  loadgen::SubmitFn submit = [&next, tally, ch, tp](size_t m, loadgen::CompletionFn done) {
    const uint64_t k = next++;
    thread_local Bytes wire;
    tp->request(m, k, wire);
    const size_t req_bytes = wire.size();
    Status st = ch->call_async(
        tp->method(m), ByteSpan(wire),
        [tally, tp, m, k, req_bytes, done = std::move(done)](Code c, Bytes payload) {
          const bool ok = c == Code::kOk && tp->verify(m, k, ByteSpan(payload));
          if (ok) {
            tally->ok.fetch_add(1);
            tally->bytes.fetch_add(req_bytes + payload.size());
          } else {
            (c == Code::kOk ? tally->wrong : tally->errors).fetch_add(1);
          }
          done(ok);
        });
    return st.is_ok();
  };
  const double cpu0 = process_cpu_s(), gen0 = thread_cpu_s(), host0 = d.host_cpu_s();
  r.rate = loadgen::calibrate_max_rps(submit, seconds, concurrency, t.mix_weights(), seed);
  r.cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - gen0);
  r.host_cpu_s = d.host_cpu_s() - host0;
  ch->close();
  r.scheduled = next;
  r.ok = tally->ok.load();
  r.wrong = tally->wrong.load();
  r.errors = tally->errors.load();
  r.timeouts = next - r.ok - r.wrong - r.errors;
  r.payload_bytes = tally->bytes.load();
  return r;
}

StreamResult run_streams(Deployment& d, const Traffic& t, double seconds,
                         const std::atomic<bool>* stop) {
  StreamResult r;
  auto chan = xrpc::Channel::connect(d.port);
  if (!chan.is_ok()) {
    r.failed = 1;
    return r;
  }
  const Bytes& payload = t.stream_payload();
  const double cpu0 = process_cpu_s(), writer0 = thread_cpu_s(), host0 = d.host_cpu_s();
  const uint64_t t0 = WallTimer::now();
  const auto deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  while (WallTimer::now() < deadline && !(stop && stop->load())) {
    auto stream = (*chan)->open_stream(kIngest);
    if (!stream.is_ok()) {
      ++r.failed;
      break;
    }
    bool ok = true;
    for (size_t off = 0; ok && off < payload.size(); off += kStreamWrite) {
      size_t len = std::min(kStreamWrite, payload.size() - off);
      ok = (*stream)->write(ByteSpan(payload.data() + off, len), 30000).is_ok();
    }
    if (!ok) {
      (*stream)->abort(Code::kAborted);
      ++r.failed;
      continue;
    }
    auto ack = (*stream)->finish(30000);
    r.stalls += (*stream)->credit_stalls();
    if (!ack.is_ok()) {
      ++r.failed;
    } else if (!check_ack(ByteSpan(*ack), payload.size(), 0)) {
      ++r.wrong;
    } else {
      ++r.streams;
      r.bytes += payload.size();
    }
  }
  r.wall_s = static_cast<double>(WallTimer::now() - t0) * 1e-9;
  r.cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - writer0);
  r.host_cpu_s = d.host_cpu_s() - host0;
  (*chan)->close();
  return r;
}

}  // namespace perfbench
