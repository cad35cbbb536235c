// Tests for the simulated verbs layer: RC ordering, write-with-immediate
// semantics, shared receive queues, completion channels, RNR behaviour,
// byte accounting, and fault injection.
#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>

#include "common/rng.hpp"
#include "dpu/dpu_model.hpp"
#include "simverbs/simverbs.hpp"

namespace dpurpc::simverbs {
namespace {

struct Endpoint {
  explicit Endpoint(std::string name, size_t buf_size = 4096,
                    SharedReceiveQueue* srq = nullptr)
      : pd(std::move(name)),
        send_cq(64),
        recv_cq(64),
        buffer(buf_size),
        qp(&pd, &send_cq, &recv_cq, srq) {
    mr = pd.register_memory(buffer.data(), buffer.size());
  }
  ProtectionDomain pd;
  CompletionQueue send_cq;
  CompletionQueue recv_cq;
  std::vector<std::byte> buffer;
  QueuePair qp;
  const MemoryRegion* mr;
};

TEST(QueuePairTest, ConnectPairsExactlyOnce) {
  Endpoint a("a"), b("b"), c("c");
  EXPECT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  EXPECT_FALSE(QueuePair::connect(a.qp, c.qp).is_ok());
  EXPECT_FALSE(QueuePair::connect(c.qp, c.qp).is_ok());
}

TEST(QueuePairTest, UnconnectedSendFails) {
  Endpoint a("a");
  SendWr wr;
  EXPECT_EQ(a.qp.post_write_with_imm(wr).code(), Code::kFailedPrecondition);
}

TEST(QueuePairTest, WriteWithImmDeliversBytesAndImmediate) {
  Endpoint a("a"), b("b");
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  b.qp.post_recv({.wr_id = 700});

  const char payload[] = "written directly into remote pinned memory";
  SendWr wr;
  wr.wr_id = 42;
  wr.local_addr = reinterpret_cast<const std::byte*>(payload);
  wr.length = sizeof(payload);
  wr.remote_offset = 1024;
  wr.rkey = b.mr->rkey();
  wr.imm_data = 0xCAFE;
  ASSERT_TRUE(a.qp.post_write_with_imm(wr).is_ok());

  // Bytes landed at the chosen offset in the remote region.
  EXPECT_EQ(std::memcmp(b.buffer.data() + 1024, payload, sizeof(payload)), 0);

  // Receiver got exactly one completion: the consumed WR + immediate.
  auto rcs = b.recv_cq.poll();
  ASSERT_EQ(rcs.size(), 1u);
  EXPECT_EQ(rcs[0].wr_id, 700u);
  EXPECT_EQ(rcs[0].opcode, Opcode::kRecv);
  EXPECT_TRUE(rcs[0].has_imm);
  EXPECT_EQ(rcs[0].imm_data, 0xCAFEu);
  EXPECT_EQ(rcs[0].byte_len, sizeof(payload));
  EXPECT_EQ(rcs[0].qp, &b.qp);

  // Sender got its completion too.
  auto scs = a.send_cq.poll();
  ASSERT_EQ(scs.size(), 1u);
  EXPECT_EQ(scs[0].wr_id, 42u);
  EXPECT_EQ(scs[0].opcode, Opcode::kWriteWithImm);
  EXPECT_EQ(scs[0].status, WcStatus::kSuccess);
}

TEST(QueuePairTest, ReliableConnectionPreservesOrder) {
  Endpoint a("a"), b("b", 1 << 16);
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  constexpr int kN = 32;
  for (int i = 0; i < kN; ++i) b.qp.post_recv({.wr_id = static_cast<uint64_t>(i)});
  for (int i = 0; i < kN; ++i) {
    uint32_t v = 0x1000 + i;
    SendWr wr;
    wr.local_addr = reinterpret_cast<const std::byte*>(&v);
    wr.length = 4;
    wr.remote_offset = static_cast<uint64_t>(i) * 4;
    wr.rkey = b.mr->rkey();
    wr.imm_data = static_cast<uint32_t>(i);
    ASSERT_TRUE(a.qp.post_write_with_imm(wr).is_ok());
  }
  auto rcs = b.recv_cq.poll();
  ASSERT_EQ(rcs.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(rcs[i].imm_data, static_cast<uint32_t>(i));  // in-order
    EXPECT_EQ(rcs[i].wr_id, static_cast<uint64_t>(i));     // WRs consumed FIFO
  }
}

TEST(QueuePairTest, RnrWhenNoReceivePosted) {
  Endpoint a("a"), b("b");
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  uint32_t v = 7;
  SendWr wr;
  wr.local_addr = reinterpret_cast<const std::byte*>(&v);
  wr.length = 4;
  wr.rkey = b.mr->rkey();
  EXPECT_EQ(a.qp.post_write_with_imm(wr).code(), Code::kUnavailable);
  EXPECT_EQ(a.qp.tx_counters().rnr_events.load(), 1u);
  EXPECT_TRUE(b.recv_cq.poll().empty());
}

TEST(QueuePairTest, WriteOutsideRegionRejected) {
  Endpoint a("a"), b("b", 256);
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  b.qp.post_recv({.wr_id = 1});
  std::vector<std::byte> big(512);
  SendWr wr;
  wr.local_addr = big.data();
  wr.length = 512;
  wr.remote_offset = 0;
  wr.rkey = b.mr->rkey();
  EXPECT_EQ(a.qp.post_write_with_imm(wr).code(), Code::kOutOfRange);
  auto scs = a.send_cq.poll();
  ASSERT_EQ(scs.size(), 1u);
  EXPECT_EQ(scs[0].status, WcStatus::kRemoteAccess);
}

TEST(QueuePairTest, UnknownRkeyRejected) {
  Endpoint a("a"), b("b");
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  b.qp.post_recv({.wr_id = 1});
  uint32_t v = 7;
  SendWr wr;
  wr.local_addr = reinterpret_cast<const std::byte*>(&v);
  wr.length = 4;
  wr.rkey = 0xDEAD;
  EXPECT_EQ(a.qp.post_write_with_imm(wr).code(), Code::kInvalidArgument);
}

TEST(QueuePairTest, ByteAccountingMatchesTransfers) {
  Endpoint a("a"), b("b", 1 << 16);
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  std::vector<std::byte> buf(1000);
  uint64_t total = 0;
  for (uint32_t len : {17u, 256u, 999u}) {
    b.qp.post_recv({});
    SendWr wr;
    wr.local_addr = buf.data();
    wr.length = len;
    wr.rkey = b.mr->rkey();
    ASSERT_TRUE(a.qp.post_write_with_imm(wr).is_ok());
    total += len;
  }
  EXPECT_EQ(a.qp.tx_counters().bytes.load(), total);
  EXPECT_EQ(a.qp.tx_counters().ops.load(), 3u);
  EXPECT_EQ(b.qp.tx_counters().bytes.load(), 0u);  // one-directional so far
}

TEST(QueuePairTest, SendImmCarriesOnlyImmediate) {
  Endpoint a("a"), b("b");
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  b.qp.post_recv({.wr_id = 5});
  ASSERT_TRUE(a.qp.post_send_imm(9, 0x1234).is_ok());
  auto rcs = b.recv_cq.poll();
  ASSERT_EQ(rcs.size(), 1u);
  EXPECT_EQ(rcs[0].imm_data, 0x1234u);
  EXPECT_EQ(rcs[0].byte_len, 0u);
}

TEST(SharedReceiveQueueTest, ServesMultipleQueuePairs) {
  // The paper's server side: one SRQ + one CQ shared by all connections.
  SharedReceiveQueue srq;
  ProtectionDomain server_pd("server");
  CompletionQueue server_send_cq(64), server_recv_cq(64);
  std::vector<std::byte> server_buf(8192);
  const MemoryRegion* server_mr = server_pd.register_memory(server_buf.data(), server_buf.size());

  QueuePair server_qp1(&server_pd, &server_send_cq, &server_recv_cq, &srq);
  QueuePair server_qp2(&server_pd, &server_send_cq, &server_recv_cq, &srq);
  Endpoint client1("c1"), client2("c2");
  ASSERT_TRUE(QueuePair::connect(client1.qp, server_qp1).is_ok());
  ASSERT_TRUE(QueuePair::connect(client2.qp, server_qp2).is_ok());

  for (uint64_t i = 0; i < 4; ++i) srq.post({.wr_id = i});

  uint32_t v = 1;
  for (auto* client : {&client1, &client2}) {
    SendWr wr;
    wr.local_addr = reinterpret_cast<const std::byte*>(&v);
    wr.length = 4;
    wr.rkey = server_mr->rkey();
    wr.remote_offset = 0;
    ASSERT_TRUE(client->qp.post_write_with_imm(wr).is_ok());
  }
  EXPECT_EQ(srq.depth(), 2u);  // two consumed
  auto rcs = server_recv_cq.poll();
  ASSERT_EQ(rcs.size(), 2u);
  // Completions identify which QP (connection) they arrived on.
  EXPECT_EQ(rcs[0].qp, &server_qp1);
  EXPECT_EQ(rcs[1].qp, &server_qp2);
}

TEST(CompletionQueueTest, OverflowRecordedAndDropped) {
  Endpoint a("a");
  CompletionQueue tiny(2);
  ProtectionDomain pd("x");
  std::vector<std::byte> buf(1024);
  SharedReceiveQueue srq;
  QueuePair qp(&pd, &tiny, &tiny, &srq);
  const MemoryRegion* mr = pd.register_memory(buf.data(), buf.size());
  ASSERT_TRUE(QueuePair::connect(a.qp, qp).is_ok());
  for (uint64_t i = 0; i < 4; ++i) srq.post({.wr_id = i});
  uint32_t v = 1;
  for (int i = 0; i < 4; ++i) {
    SendWr wr;
    wr.local_addr = reinterpret_cast<const std::byte*>(&v);
    wr.length = 4;
    wr.rkey = mr->rkey();
    ASSERT_TRUE(a.qp.post_write_with_imm(wr).is_ok());
  }
  EXPECT_EQ(tiny.depth(), 2u);
  EXPECT_EQ(tiny.overflow_count(), 2u);
}

TEST(CompletionChannelTest, WakesOnCompletionAndTimesOutOtherwise) {
  CompletionChannel chan;
  EXPECT_FALSE(chan.wait(10));  // nothing attached, must time out

  ProtectionDomain pd_a("a"), pd_b("b");
  CompletionQueue a_send(16), a_recv(16);
  CompletionQueue b_send(16);
  CompletionQueue b_recv(16, &chan);  // blocking side
  std::vector<std::byte> buf_b(1024);
  QueuePair qa(&pd_a, &a_send, &a_recv);
  QueuePair qb(&pd_b, &b_send, &b_recv);
  const MemoryRegion* mr_b = pd_b.register_memory(buf_b.data(), buf_b.size());
  ASSERT_TRUE(QueuePair::connect(qa, qb).is_ok());
  qb.post_recv({.wr_id = 1});

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    uint32_t v = 3;
    SendWr wr;
    wr.local_addr = reinterpret_cast<const std::byte*>(&v);
    wr.length = 4;
    wr.rkey = mr_b->rkey();
    ASSERT_TRUE(qa.post_write_with_imm(wr).is_ok());
  });
  EXPECT_TRUE(chan.wait(1000));
  writer.join();
  EXPECT_EQ(b_recv.poll().size(), 1u);
}

TEST(CompletionChannelTest, InterruptWakesWaiter) {
  CompletionChannel chan;
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    chan.interrupt();
  });
  EXPECT_TRUE(chan.wait(1000));
  waker.join();
}

TEST(CompletionChannelTest, EventWithNobodyArmedWritesNoFdButIsNotLost) {
  // ibv_req_notify_cq semantics: a busy poller (not armed) pays no
  // syscall per event, and the next arm() still sees what it missed.
  CompletionChannel chan;
  chan.interrupt();
  chan.interrupt();
  pollfd p{chan.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 0), 0);  // fd untouched
  EXPECT_FALSE(chan.arm());        // pending event: do not sleep
  EXPECT_TRUE(chan.arm());         // consumed: nothing pending now
  EXPECT_EQ(::poll(&p, 1, 0), 0);
  EXPECT_FALSE(chan.disarm(false));
  EXPECT_FALSE(chan.wait(1));
}

TEST(CompletionChannelTest, NotifyBetweenArmAndPollStillWakesThePoller) {
  // The race an external poll() must survive: the event lands after the
  // poller armed but before it entered poll(). Armed means the fd is
  // written, so poll() returns at once.
  CompletionChannel chan;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(chan.arm());
    std::thread notifier([&] { chan.interrupt(); });
    notifier.join();
    pollfd p{chan.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 5000), 1) << "iteration " << i;
    ASSERT_TRUE(chan.disarm(true));
    EXPECT_EQ(::poll(&p, 1, 0), 0);  // drained
  }
}

TEST(CompletionChannelTest, ConcurrentNotifiesAreNeverMissed) {
  // A notifier fires at arbitrary points of the waiter's arm → poll →
  // disarm cycle (run under TSan in CI). Every round's event must end
  // that round's wait long before its timeout.
  CompletionChannel chan;
  constexpr int kRounds = 500;
  std::atomic<int> round{-1};
  std::thread notifier([&] {
    std::mt19937 rng(kDefaultSeed);
    for (int r = 0; r < kRounds; ++r) {
      while (round.load() < r) std::this_thread::yield();
      for (uint32_t spin = rng() % 2000; spin > 0; --spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
      chan.interrupt();
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    round.store(r);
    // One event per round, fired only after this store: a wait that
    // returns true has seen exactly this round's event.
    ASSERT_TRUE(chan.wait(5000)) << "round " << r;
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2))
        << "round " << r;
  }
  notifier.join();
}

TEST(FaultInjectionTest, DroppedSendVanishesSilently) {
  Endpoint a("a"), b("b");
  ASSERT_TRUE(QueuePair::connect(a.qp, b.qp).is_ok());
  b.qp.post_recv({.wr_id = 1});
  a.qp.faults().drop_next_sends.store(1);
  uint32_t v = 9;
  SendWr wr;
  wr.local_addr = reinterpret_cast<const std::byte*>(&v);
  wr.length = 4;
  wr.rkey = b.mr->rkey();
  EXPECT_TRUE(a.qp.post_write_with_imm(wr).is_ok());  // "succeeds" at the API
  EXPECT_TRUE(b.recv_cq.poll().empty());              // but nothing arrived
  EXPECT_EQ(b.qp.recv_queue_depth(), 1u);             // WR not consumed
  // Next send goes through.
  EXPECT_TRUE(a.qp.post_write_with_imm(wr).is_ok());
  EXPECT_EQ(b.recv_cq.poll().size(), 1u);
}

TEST(QueuePairTest, DestructionFlushesOutstandingReceives) {
  ProtectionDomain pd("x");
  CompletionQueue send_cq(16), recv_cq(16);
  auto qp = std::make_unique<QueuePair>(&pd, &send_cq, &recv_cq);
  qp->post_recv({.wr_id = 11});
  qp->post_recv({.wr_id = 12});
  qp.reset();
  auto cs = recv_cq.poll();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].status, WcStatus::kFlushed);
  EXPECT_EQ(cs[1].wr_id, 12u);
}

// ------------------------------------------------------------ DPU model

TEST(DpuModel, FactorsMatchPaperCalibration) {
  dpu::CostModel model;
  EXPECT_DOUBLE_EQ(model.factor(dpu::WorkloadClass::kVarintDecode), 1.89);
  EXPECT_DOUBLE_EQ(model.factor(dpu::WorkloadClass::kByteCopy), 2.51);
  EXPECT_DOUBLE_EQ(model.scale_ns(dpu::Processor::kHostCpu,
                                  dpu::WorkloadClass::kVarintDecode, 100.0),
                   100.0);
  EXPECT_DOUBLE_EQ(model.scale_ns(dpu::Processor::kDpu,
                                  dpu::WorkloadClass::kVarintDecode, 100.0),
                   189.0);
}

TEST(DpuModel, DeviceSpecsMatchTableOne) {
  auto bf3 = dpu::DeviceSpec::bluefield3();
  EXPECT_EQ(bf3.cores, 16);
  EXPECT_EQ(bf3.threads, 16);
  auto host = dpu::DeviceSpec::host_xeon();
  EXPECT_EQ(host.cores, 64);
  EXPECT_EQ(host.threads, 8);
}

}  // namespace
}  // namespace dpurpc::simverbs
