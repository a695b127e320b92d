// Timing model of the 7-stage, single-issue, in-order XScale-like core
// (Table 1): in-order issue with a register scoreboard, out-of-order
// completion, one ALU, one MAC, one load/store unit, a branch target
// buffer, and blocking caches.
//
// The model tracks, per architectural register, the cycle its value
// becomes available; an instruction issues at the max of the pipeline
// cycle and its source-ready cycles, matching a scoreboard stall. Fetch
// and data-cache penalties are supplied per instruction by the caller
// (the Processor), which owns the cache models.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "isa/isa.hpp"
#include "support/ensure.hpp"

namespace wp::pipeline {

struct TimingConfig {
  u32 branch_mispredict_penalty = 4;
  u32 load_use_latency = 3;  ///< cycles before a load's result is usable
  u32 mul_latency = 3;       ///< MAC unit latency
  u32 btb_entries = 128;
};

struct BranchStats {
  u64 branches = 0;
  u64 mispredicts = 0;
  void reset() { *this = BranchStats{}; }
  bool operator==(const BranchStats&) const = default;
};

/// Source/destination registers of an instruction, plus flag use/def.
struct RegUse {
  std::array<u8, 3> srcs{};
  u32 num_srcs = 0;
  bool has_dst = false;
  u8 dst = 0;
  bool reads_flags = false;
  bool writes_flags = false;
};

[[nodiscard]] RegUse regUsesOf(const isa::Instruction& inst);

class TimingModel {
 public:
  explicit TimingModel(const TimingConfig& config);

  /// Advances time over one committed instruction.
  /// @param fetch_cycles  cycles the fetch path reported (>= 1)
  /// @param mem_cycles    D-cache cycles for loads/stores (0 otherwise)
  /// @param taken         branch outcome (control transfers only)
  /// @param target        branch target (control transfers only)
  void onInstruction(const isa::Instruction& inst, u32 pc, u32 fetch_cycles,
                     u32 mem_cycles, bool taken, u32 target);

  /// Same, with the register-use decode precomputed. The block engine
  /// caches regUsesOf() per static instruction alongside its basic-block
  /// index, so the hot loop skips the format/opcode switch. Runs once
  /// per committed instruction (per timing class) — defined inline and
  /// forced inline, so the engine loops absorb it even when their
  /// translation unit grows past GCC's inlining budget.
  [[gnu::always_inline]] void onInstruction(const isa::Instruction& inst,
                                            const RegUse& use, u32 pc,
                                            u32 fetch_cycles, u32 mem_cycles,
                                            bool taken, u32 target) {
    stallFetch(fetch_cycles);

    // Scoreboard: issue waits for sources.
    u64 issue = cycle_ + 1;
    for (u32 i = 0; i < use.num_srcs; ++i) {
      issue = std::max(issue, reg_ready_[use.srcs[i]]);
    }
    if (use.reads_flags) issue = std::max(issue, flags_ready_);
    cycle_ = issue;

    // Completion latency (out-of-order completion: later independent
    // instructions are not delayed, so only the scoreboard entry moves).
    u64 result_ready = issue + 1;
    if (isa::isMultiply(inst.op)) {
      result_ready = issue + config_.mul_latency;
    } else if (isa::isLoad(inst.op)) {
      // mem_cycles covers the D-cache access (1 on a hit); the load-use
      // latency covers the remaining pipeline distance.
      result_ready = issue + mem_cycles + config_.load_use_latency - 1;
    } else if (isa::isStore(inst.op)) {
      // Stores retire through the write buffer; a miss stalls the unit.
      if (mem_cycles > 1) cycle_ += mem_cycles - 1;
    }
    if (use.has_dst) reg_ready_[use.dst] = result_ready;
    if (use.writes_flags) flags_ready_ = issue + 1;

    if (isa::isControlTransfer(inst.op)) {
      ++branches_.branches;
      const bool correct = predictAndUpdate(pc, taken, target);
      if (!correct) {
        ++branches_.mispredicts;
        cycle_ += config_.branch_mispredict_penalty;
      }
    }
  }

  [[nodiscard]] u64 cycles() const { return cycle_; }
  [[nodiscard]] const BranchStats& branchStats() const { return branches_; }

  void reset();

 private:
  friend class TimingClasses;

  /// Fetch stalls (cache miss, TLB walk, way-hint second access) delay
  /// the pipeline front end directly.
  void stallFetch(u32 fetch_cycles) {
    WP_ENSURE(fetch_cycles >= 1, "fetch must take at least one cycle");
    cycle_ += fetch_cycles - 1;
  }

  struct BtbEntry {
    bool valid = false;
    u32 tag = 0;
    u32 target = 0;
    u8 counter = 0;  // 2-bit saturating, taken if >= 2
  };

  /// Predicts direction+target for the branch at @p pc; returns true if
  /// the prediction matches (@p taken, @p target). Updates the BTB.
  bool predictAndUpdate(u32 pc, bool taken, u32 target);

  TimingConfig config_;
  u64 cycle_ = 0;
  std::array<u64, isa::kNumRegisters> reg_ready_{};
  u64 flags_ready_ = 0;
  std::vector<BtbEntry> btb_;
  BranchStats branches_;
};

/// The timing of a group of lanes that retire one instruction stream
/// and differ only in the cycles of the first fetch of each batch.
///
/// Lanes are grouped into *classes*, one TimingModel each; a lane's
/// cycles are its class's cycles plus a signed offset. Two models whose
/// ready times, taken relative to their own cycle and clamped at 1,
/// are equal evolve identically up to a constant offset: every fetch
/// takes at least one cycle, so a ready time <= cycle + 1 never delays
/// an issue. The branch predictor sees the shared branch stream, so it
/// is equal in every class by construction. At batch entry, a class
/// whose lanes all report the same first-fetch cycles stalls in place;
/// lanes that report another value split into a copy. Every
/// instruction of the batch then runs once per class with a 1-cycle
/// fetch, and after the batch classes of equal shape merge again. One
/// lane is one class that never splits: the plain TimingModel
/// arithmetic.
class TimingClasses {
 public:
  /// @p lanes timing lanes (at least one), all in one class at cycle 0.
  TimingClasses(const TimingConfig& config, std::size_t lanes);

  /// Batch entry: lane i's first fetch took @p fetch_cycles[i] (>= 1)
  /// cycles. Returns the live classes; the caller runs each of the
  /// batch's instructions once on every class, with fetch_cycles = 1.
  std::span<TimingModel> enter(std::span<const u32> fetch_cycles) {
    if (live_ == 1) {
      const u32 first = fetch_cycles.front();
      bool uniform = true;
      for (const u32 c : fetch_cycles) uniform &= c == first;
      if (uniform) {
        classes_.front().stallFetch(first);
        return {classes_.data(), 1};
      }
    }
    return split(fetch_cycles);
  }

  /// Batch exit: merges the classes that have come to the same shape.
  void leave() {
    if (live_ > 1) merge();
  }

  [[nodiscard]] u64 cycles(std::size_t lane) const;
  /// The shared branch stream's outcomes (equal in every class).
  [[nodiscard]] const BranchStats& branchStats() const {
    return classes_.front().branchStats();
  }

  /// Asserts that every lane maps to a live class and that all live
  /// classes agree on branchStats().
  void checkInvariants() const;

  /// Classes split off and merged back so far.
  [[nodiscard]] u64 splits() const { return splits_; }
  [[nodiscard]] u64 merges() const { return merges_; }

 private:
  struct LaneClass {
    u32 cls = 0;
    i64 offset = 0;  ///< lane cycles minus its class's cycles
  };
  /// Per-batch scratch for one class: its first-fetch cycles and, for a
  /// class split off in this batch, the class it was copied from.
  struct Entry {
    u32 fetch_cycles = 0;
    u32 parent = 0;
  };

  std::span<TimingModel> split(std::span<const u32> fetch_cycles);
  void merge();

  /// classes_[0, live_) are live; sized for one class per lane, so
  /// splitting never allocates.
  std::vector<TimingModel> classes_;
  std::size_t live_ = 1;
  std::vector<LaneClass> lanes_;
  std::vector<Entry> entry_;
  u64 splits_ = 0;
  u64 merges_ = 0;
};

}  // namespace wp::pipeline
