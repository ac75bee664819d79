// Unit tests for the discrete-event executor: matching semantics,
// eager/rendezvous protocols, waitall, deadlock detection, data tracking.
#include <gtest/gtest.h>

#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"

namespace mpicp::sim {
namespace {

MachineDesc test_machine() {
  MachineDesc m = hydra_machine();
  m.eager_limit_bytes = 1024;
  return m;
}

ProgramSet make_progs(int p) { return ProgramSet(p); }

TEST(Executor, EagerPingHasLatencyAndOverhead) {
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 64);
  RankProg(progs[1], 1, 2).recv(0, 1, 64);
  const ExecResult res = exec.run(progs);
  const double expect = desc.inter.overhead_us +            // sender o
                        desc.inter.occupancy_us(64) +       // wire
                        desc.inter.latency_us +             // L
                        desc.inter.overhead_us;             // receiver o
  EXPECT_NEAR(res.finish_us[1], expect, 1e-9);
  // The eager sender finishes right after injection.
  EXPECT_NEAR(res.finish_us[0], desc.inter.overhead_us, 1e-9);
  EXPECT_EQ(res.num_messages, 1u);
  EXPECT_DOUBLE_EQ(res.makespan_us, res.finish_us[1]);
}

TEST(Executor, RendezvousSenderBlocksUntilReceiverArrives) {
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  const std::size_t big = 1 << 20;
  RankProg(progs[0], 0, 2).send(1, 1, big);
  {
    RankProg p1(progs[1], 1, 2);
    p1.compute(static_cast<std::uint64_t>(
        100.0 / desc.reduce_us_per_byte));  // ~100 us of local work
    p1.recv(0, 1, big);
  }
  const ExecResult res = exec.run(progs);
  // The transfer cannot start before the receiver posts at ~100 us.
  EXPECT_GT(res.finish_us[0], 100.0);
  EXPECT_GE(res.finish_us[1], res.finish_us[0] - 1e-9);
}

TEST(Executor, EagerSendDoesNotBlockOnLateReceiver) {
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 128);
  {
    RankProg p1(progs[1], 1, 2);
    p1.compute(static_cast<std::uint64_t>(50.0 / desc.reduce_us_per_byte));
    p1.recv(0, 1, 128);
  }
  const ExecResult res = exec.run(progs);
  EXPECT_NEAR(res.finish_us[0], desc.inter.overhead_us, 1e-9);
  // Receiver completes right after its local work (message already there).
  EXPECT_NEAR(res.finish_us[1], 50.0 + desc.inter.overhead_us, 0.5);
}

TEST(Executor, FifoMatchingPreservesOrder) {
  // Two same-tag messages must match the receives in post order; the
  // tracked payloads prove which message landed where.
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  {
    RankProg p0(progs[0], 0, 2);
    p0.send(1, 1, 8, /*block_begin=*/0, /*block_count=*/1);
    p0.send(1, 1, 8, /*block_begin=*/1, /*block_count=*/1);
  }
  {
    RankProg p1(progs[1], 1, 2);
    p1.recv(0, 1, 8, /*block_begin=*/0, /*block_count=*/1);
    p1.recv(0, 1, 8, /*block_begin=*/1, /*block_count=*/1);
  }
  DataStore store(2, 2);
  store.at(0, 0) = Block{111};
  store.at(0, 1) = Block{222};
  EXPECT_GT(exec.run(progs, &store).makespan_us, 0.0);
  EXPECT_EQ(store.at(1, 0), (Block{111}));
  EXPECT_EQ(store.at(1, 1), (Block{222}));
}

TEST(Executor, TagsSeparateMessageStreams) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  {
    RankProg p0(progs[0], 0, 2);
    p0.send(1, /*tag=*/7, 8, 0, 1);
    p0.send(1, /*tag=*/9, 8, 1, 1);
  }
  {
    RankProg p1(progs[1], 1, 2);
    // Receive the tag-9 message first even though it was sent second.
    p1.recv(0, 9, 8, 0, 1);
    p1.recv(0, 7, 8, 1, 1);
  }
  DataStore store(2, 2);
  store.at(0, 0) = Block{1};
  store.at(0, 1) = Block{2};
  EXPECT_GT(exec.run(progs, &store).makespan_us, 0.0);
  EXPECT_EQ(store.at(1, 0), (Block{2}));
  EXPECT_EQ(store.at(1, 1), (Block{1}));
}

TEST(Executor, WaitallCollectsAllRequests) {
  Network net(test_machine(), 3, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(3);
  {
    RankProg p0(progs[0], 0, 3);
    p0.irecv(1, 1, 2048);
    p0.irecv(2, 1, 2048);
    p0.waitall();
  }
  RankProg(progs[1], 1, 3).send(0, 1, 2048);
  RankProg(progs[2], 2, 3).send(0, 1, 2048);
  const ExecResult res = exec.run(progs);
  EXPECT_GT(res.finish_us[0], 0.0);
  EXPECT_EQ(res.num_messages, 2u);
}

TEST(Executor, DeadlockIsDetected) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).recv(1, 1, 8);
  RankProg(progs[1], 1, 2).recv(0, 1, 8);
  EXPECT_THROW((void)exec.run(progs), InternalError);
}

TEST(Executor, MissingWaitallIsDetected) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).isend(1, 1, 1 << 20);  // rendezvous, never waited
  RankProg(progs[1], 1, 2).recv(0, 1, 1 << 20);
  EXPECT_THROW((void)exec.run(progs), InternalError);
}

TEST(Executor, ComputeAdvancesLocalClock) {
  const MachineDesc desc = test_machine();
  Network net(desc, 1, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(1);
  RankProg(progs[0], 0, 1).compute(1000);
  const ExecResult res = exec.run(progs);
  EXPECT_NEAR(res.finish_us[0], 1000 * desc.reduce_us_per_byte, 1e-12);
}

TEST(Executor, CopyMovesBlocksLocally) {
  Network net(test_machine(), 1, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(1);
  RankProg(progs[0], 0, 1).copy(64, /*src=*/0, /*dst=*/2, /*count=*/2);
  DataStore store(1, 4);
  store.at(0, 0) = Block{7};
  store.at(0, 1) = Block{9};
  const ExecResult res = exec.run(progs, &store);
  EXPECT_EQ(store.at(0, 2), (Block{7}));
  EXPECT_EQ(store.at(0, 3), (Block{9}));
  EXPECT_GT(res.finish_us[0], 0.0);
}

TEST(Executor, CombineRecvOrsPayload) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 8, 0, 1);
  RankProg(progs[1], 1, 2).recv(0, 1, 8, 0, 1, kCombine);
  DataStore store(2, 1);
  store.at(0, 0) = contribution_of(0);
  store.at(1, 0) = contribution_of(1);
  EXPECT_GT(exec.run(progs, &store).makespan_us, 0.0);
  EXPECT_TRUE(has_all_contributions(store.at(1, 0), 2));
}

TEST(Executor, RejectsWrongProgramCount) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(1);
  EXPECT_THROW((void)exec.run(progs), InvalidArgument);
}

TEST(Executor, ZeroByteMessagesWork) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 0);
  RankProg(progs[1], 1, 2).recv(0, 1, 0);
  const ExecResult res = exec.run(progs);
  EXPECT_GT(res.makespan_us, 0.0);
}

TEST(Executor, ManyInFlightMessagesRecycleRecords) {
  // Smoke test that the record pool handles thousands of outstanding
  // requests without mixing them up.
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  const int n = 5000;
  {
    RankProg p0(progs[0], 0, 2);
    for (int i = 0; i < n; ++i) p0.isend(1, 1, 64);
    p0.waitall();
  }
  {
    RankProg p1(progs[1], 1, 2);
    for (int i = 0; i < n; ++i) p1.irecv(0, 1, 64);
    p1.waitall();
  }
  const ExecResult res = exec.run(progs);
  EXPECT_EQ(res.num_messages, static_cast<std::uint64_t>(n));
}

// A repeat loop must replay exactly the op stream of its iterations
// written out one by one, block offsets included: same finish times,
// same message count, same data movement.
TEST(Executor, RepeatLoopReplaysItsExpansion) {
  constexpr std::uint32_t kIters = 6;
  const auto build = [](bool looped) {
    ProgramSet progs = make_progs(2);
    RankProg p0(progs[0], 0, 2);
    RankProg p1(progs[1], 1, 2);
    p0.send(1, 1, 4096, 0, 1);  // rendezvous, outside the loop
    p1.recv(0, 1, 4096, 0, 1);
    const auto send_step = [&](std::uint32_t i) {
      p0.isend(1, 2, 512, 1 + i, 1);
      p0.compute(64);
    };
    const auto recv_step = [&](std::uint32_t i) {
      p1.irecv(0, 2, 512, 1 + i, 1, kCombine);
      p1.waitone();
    };
    if (looped) {
      p0.repeat(kIters, [&] { send_step(0); });
      p1.repeat(kIters, [&] { recv_step(0); });
    } else {
      for (std::uint32_t i = 0; i < kIters; ++i) send_step(i);
      for (std::uint32_t i = 0; i < kIters; ++i) recv_step(i);
    }
    p0.waitall();
    p0.send(1, 3, 8);  // after the loop
    p1.recv(0, 3, 8);
    return progs;
  };
  const ProgramSet looped = build(true);
  const ProgramSet flat = build(false);
  EXPECT_LT(looped[0].size(), flat[0].size());

  const auto run = [](const ProgramSet& progs, DataStore& store) {
    Network net(test_machine(), 2, 1);
    Executor exec(net);
    for (std::uint32_t b = 0; b <= kIters; ++b) {
      store.at(0, b) = contribution_of(0);
      store.at(1, b) = contribution_of(1);
    }
    return exec.run(progs, &store);
  };
  DataStore looped_store(2, kIters + 1);
  DataStore flat_store(2, kIters + 1);
  const ExecResult a = run(looped, looped_store);
  const ExecResult b = run(flat, flat_store);
  EXPECT_EQ(a.finish_us, b.finish_us);
  EXPECT_EQ(a.num_messages, b.num_messages);
  EXPECT_TRUE(is_exactly_contribution(looped_store.at(1, 0), 0));
  for (std::uint32_t blk = 1; blk <= kIters; ++blk) {
    EXPECT_EQ(looped_store.at(1, blk), flat_store.at(1, blk)) << blk;
    EXPECT_TRUE(has_all_contributions(looped_store.at(1, blk), 2)) << blk;
  }
}

TEST(Executor, EmptyRepeatBodyEmitsNothing) {
  ProgramSet progs = make_progs(1);
  RankProg(progs[0], 0, 1).repeat(5, [] {});
  EXPECT_TRUE(progs[0].empty());
}

}  // namespace
}  // namespace mpicp::sim
