// Timing-model tests: scoreboard stalls, functional-unit latencies,
// branch prediction and fetch-stall accounting, and the timing classes
// that share one scoreboard among lanes of equal shape.
#include <gtest/gtest.h>

#include <vector>

#include "pipeline/timing.hpp"
#include "support/rng.hpp"

namespace wp::pipeline {
namespace {

using isa::Instruction;
using isa::Opcode;

Instruction alu(u8 rd, u8 rn, u8 rm) {
  return {Opcode::kAdd, rd, rn, rm, 0};
}

TEST(RegUse, CoversKeyShapes) {
  RegUse u = regUsesOf({Opcode::kAdd, 1, 2, 3, 0});
  EXPECT_TRUE(u.has_dst);
  EXPECT_EQ(u.dst, 1);
  EXPECT_EQ(u.num_srcs, 2u);

  u = regUsesOf({Opcode::kMla, 1, 2, 3, 0});
  EXPECT_EQ(u.num_srcs, 3u);  // accumulator is also a source

  u = regUsesOf({Opcode::kCmp, 0, 2, 3, 0});
  EXPECT_FALSE(u.has_dst);
  EXPECT_TRUE(u.writes_flags);

  u = regUsesOf({Opcode::kBeq, 0, 0, 0, 4});
  EXPECT_TRUE(u.reads_flags);

  u = regUsesOf({Opcode::kBl, 0, 0, 0, 4});
  EXPECT_TRUE(u.has_dst);
  EXPECT_EQ(u.dst, isa::kLinkReg);

  u = regUsesOf({Opcode::kStr, 1, 2, 0, 0});
  EXPECT_FALSE(u.has_dst);
  EXPECT_EQ(u.num_srcs, 2u);  // data + base
}

TEST(Timing, IndependentAluChainIsOneCpi) {
  TimingModel t(TimingConfig{});
  for (u32 i = 0; i < 100; ++i) {
    t.onInstruction(alu(static_cast<u8>(i % 4), 4, 5), i * 4, 1, 0, false, 0);
  }
  EXPECT_EQ(t.cycles(), 100u);
}

TEST(Timing, LoadUseStalls) {
  TimingConfig cfg;
  cfg.load_use_latency = 3;
  TimingModel t(cfg);
  t.onInstruction({Opcode::kLdr, 1, 2, 0, 0}, 0, 1, /*mem=*/1, false, 0);
  const u64 after_load = t.cycles();
  t.onInstruction(alu(3, 1, 1), 4, 1, 0, false, 0);  // uses r1 immediately
  EXPECT_GT(t.cycles(), after_load + 1);
}

TEST(Timing, IndependentInstructionAfterLoadDoesNotStall) {
  TimingModel t(TimingConfig{});
  t.onInstruction({Opcode::kLdr, 1, 2, 0, 0}, 0, 1, 1, false, 0);
  const u64 after_load = t.cycles();
  t.onInstruction(alu(3, 4, 5), 4, 1, 0, false, 0);
  EXPECT_EQ(t.cycles(), after_load + 1);
}

TEST(Timing, MultiplyLatencySeenByConsumer) {
  TimingConfig cfg;
  cfg.mul_latency = 3;
  TimingModel t(cfg);
  t.onInstruction({Opcode::kMul, 1, 2, 3, 0}, 0, 1, 0, false, 0);
  const u64 after_mul = t.cycles();
  t.onInstruction(alu(4, 1, 1), 4, 1, 0, false, 0);
  EXPECT_EQ(t.cycles(), after_mul + cfg.mul_latency);
}

TEST(Timing, FetchStallsAddDirectly) {
  TimingModel t(TimingConfig{});
  t.onInstruction(alu(1, 2, 3), 0, /*fetch=*/59, 0, false, 0);
  EXPECT_EQ(t.cycles(), 59u);
}

TEST(Timing, BtbLearnsLoopBranch) {
  TimingConfig cfg;
  cfg.branch_mispredict_penalty = 4;
  TimingModel t(cfg);
  // A backward branch taken 50 times: first occurrences mispredict,
  // steady state predicts correctly.
  for (int i = 0; i < 50; ++i) {
    t.onInstruction({Opcode::kBne, 0, 0, 0, -4}, 0x100, 1, 0, true, 0xf4);
  }
  const BranchStats& s = t.branchStats();
  EXPECT_EQ(s.branches, 50u);
  EXPECT_LE(s.mispredicts, 2u);
}

TEST(Timing, AlternatingBranchMispredicts) {
  TimingModel t(TimingConfig{});
  for (int i = 0; i < 40; ++i) {
    t.onInstruction({Opcode::kBne, 0, 0, 0, -4}, 0x100, 1, 0, i % 2 == 0,
                    0xf4);
  }
  EXPECT_GT(t.branchStats().mispredicts, 10u);
}

TEST(Timing, MispredictPenaltyCharged) {
  TimingConfig cfg;
  cfg.branch_mispredict_penalty = 4;
  TimingModel t(cfg);
  t.onInstruction({Opcode::kB, 0, 0, 0, 16}, 0, 1, 0, true, 0x44);
  // Cold BTB: the taken branch mispredicts and pays 4 cycles.
  EXPECT_EQ(t.cycles(), 1u + 4u);
}

TEST(Timing, ResetClearsState) {
  TimingModel t(TimingConfig{});
  t.onInstruction(alu(1, 2, 3), 0, 10, 0, false, 0);
  t.reset();
  EXPECT_EQ(t.cycles(), 0u);
  EXPECT_EQ(t.branchStats().branches, 0u);
}

// ---------------------------------------------------------------------
// Timing classes: N lanes priced through TimingClasses must equal N
// independent TimingModels fed the same stream, lane for lane.

/// One random instruction of the stream, with its D-cache cycles and
/// branch outcome.
struct StreamInst {
  Instruction inst;
  u32 pc;
  u32 mem_cycles;
  bool taken;
  u32 target;
};

StreamInst randomInst(Rng& rng, u32 pc) {
  const auto reg = [&rng] { return static_cast<u8>(rng.below(8)); };
  switch (rng.below(7)) {
    case 0:
      return {{Opcode::kLdr, reg(), reg(), 0, 0}, pc,
              rng.chance(0.2) ? 51u : 1u + static_cast<u32>(rng.below(3)),
              false, 0};
    case 1:
      return {{Opcode::kStr, reg(), reg(), 0, 0}, pc,
              rng.chance(0.1) ? 51u : 1u, false, 0};
    case 2:
      return {{Opcode::kMul, reg(), reg(), reg(), 0}, pc, 0, false, 0};
    case 3:
      return {{Opcode::kCmp, 0, reg(), reg(), 0}, pc, 0, false, 0};
    default:
      return {alu(reg(), reg(), reg()), pc, 0, false, 0};
  }
}

TEST(TimingClasses, LanesMatchIndependentModels) {
  constexpr std::size_t kLanes = 6;
  const TimingConfig cfg;
  std::vector<TimingModel> oracle(kLanes, TimingModel(cfg));
  TimingClasses classes(cfg, kLanes);
  Rng rng(20080310);
  std::size_t peak = 1;

  std::vector<u32> first(kLanes);
  for (int batch = 0; batch < 20000; ++batch) {
    // A batch of 1-8 instructions ending in a branch drawn from a few
    // static sites, so the BTB both hits and misses.
    const u32 len = 1 + static_cast<u32>(rng.below(8));
    const u32 base = 0x1000 + 0x40 * static_cast<u32>(rng.below(16));
    std::vector<StreamInst> insts;
    for (u32 i = 0; i + 1 < len; ++i) {
      insts.push_back(randomInst(rng, base + 4 * i));
    }
    const u32 branch_pc = base + 4 * (len - 1);
    insts.push_back({{Opcode::kBne, 0, 0, 0, -4}, branch_pc, 0,
                     rng.chance(0.7), branch_pc - 0x40});

    // Per-lane first-fetch cycles: mostly a 1-cycle hit, sometimes a
    // way-hint retry, a TLB walk or a miss, drawn per lane.
    const bool diverge = rng.chance(0.1);
    const u32 common = rng.chance(0.05) ? 51u : 1u;
    for (u32& f : first) {
      f = common;
      if (diverge && rng.chance(0.5)) {
        const u32 choices[] = {1, 2, 6, 51};
        f = choices[rng.below(4)];
      }
    }

    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const StreamInst& s = insts[i];
        oracle[l].onInstruction(s.inst, s.pc, i == 0 ? first[l] : 1,
                                s.mem_cycles, s.taken, s.target);
      }
    }
    const std::span<TimingModel> live = classes.enter(first);
    peak = std::max(peak, live.size());
    for (const StreamInst& s : insts) {
      const RegUse use = regUsesOf(s.inst);
      for (TimingModel& t : live) {
        t.onInstruction(s.inst, use, s.pc, 1, s.mem_cycles, s.taken,
                        s.target);
      }
    }
    classes.leave();
  }

  classes.checkInvariants();
  for (std::size_t l = 0; l < kLanes; ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(classes.cycles(l), oracle[l].cycles());
    EXPECT_EQ(classes.branchStats(), oracle[l].branchStats());
  }
  // The stream really exercised the mechanism.
  EXPECT_GT(classes.splits(), 1000u);
  EXPECT_GT(classes.merges(), 1000u);
  EXPECT_GT(peak, 2u);
  EXPECT_GT(classes.branchStats().mispredicts, 0u);
}

TEST(TimingClasses, OneLaneIsThePlainModel) {
  const TimingConfig cfg;
  TimingModel plain(cfg);
  TimingClasses classes(cfg, 1);
  const u32 fetches[] = {1, 51, 1, 2, 1, 6};
  u32 pc = 0;
  for (const u32 fc : fetches) {
    const Instruction ld{Opcode::kLdr, 1, 2, 0, 0};
    plain.onInstruction(ld, pc, fc, 3, false, 0);
    for (TimingModel& t : classes.enter({&fc, 1})) {
      t.onInstruction(ld, regUsesOf(ld), pc, 1, 3, false, 0);
    }
    classes.leave();
    pc += 4;
  }
  EXPECT_EQ(classes.cycles(0), plain.cycles());
  EXPECT_EQ(classes.splits(), 0u);
}

TEST(TimingClasses, ZeroCycleFetchIsRejected) {
  TimingClasses classes(TimingConfig{}, 3);
  const u32 fetches[] = {1, 0, 1};
  EXPECT_THROW((void)classes.enter(fetches), SimError);
}

}  // namespace
}  // namespace wp::pipeline
