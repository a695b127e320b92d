#include "pipeline/timing.hpp"

#include <algorithm>

#include "support/ensure.hpp"

namespace wp::pipeline {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

RegUse regUsesOf(const Instruction& inst) {
  RegUse u;
  const auto addSrc = [&u](u8 r) { u.srcs[u.num_srcs++] = r; };
  switch (isa::formatOf(inst.op)) {
    case Format::kRType:
      switch (inst.op) {
        case Opcode::kMov:
        case Opcode::kMvn:
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kCmp:
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.writes_flags = true;
          break;
        case Opcode::kMla:
          addSrc(inst.rd);  // accumulator
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kLdrx:
        case Opcode::kLdrbx:
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kStrx:
        case Opcode::kStrbx:
          addSrc(inst.rd);  // store data
          addSrc(inst.rn);
          addSrc(inst.rm);
          break;
        default:
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
      }
      break;
    case Format::kIType:
      switch (inst.op) {
        case Opcode::kCmpi:
          addSrc(inst.rn);
          u.writes_flags = true;
          break;
        case Opcode::kMovi:
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kMovhi:
          addSrc(inst.rd);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kLdr:
        case Opcode::kLdrb:
          addSrc(inst.rn);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kStr:
        case Opcode::kStrb:
          addSrc(inst.rd);
          addSrc(inst.rn);
          break;
        default:
          addSrc(inst.rn);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
      }
      break;
    case Format::kBType:
      if (isa::isConditionalBranch(inst.op)) u.reads_flags = true;
      if (inst.op == Opcode::kBl) {
        u.has_dst = true;
        u.dst = isa::kLinkReg;
      }
      break;
    case Format::kJType:
      addSrc(inst.rn);
      break;
    case Format::kNone:
      break;
  }
  return u;
}

TimingModel::TimingModel(const TimingConfig& config)
    : config_(config), btb_(config.btb_entries) {
  WP_ENSURE(isPow2(config.btb_entries), "BTB entries must be a power of two");
}

bool TimingModel::predictAndUpdate(u32 pc, bool taken, u32 target) {
  const u32 index = (pc >> 2) & (static_cast<u32>(btb_.size()) - 1);
  BtbEntry& e = btb_[index];
  const bool entry_matches = e.valid && e.tag == pc;
  const bool predicted_taken = entry_matches && e.counter >= 2;
  const u32 predicted_target = entry_matches ? e.target : 0;

  const bool correct =
      predicted_taken == taken && (!taken || predicted_target == target);

  // Update: (re)allocate on taken branches, train the counter.
  if (!entry_matches) {
    if (taken) {
      e.valid = true;
      e.tag = pc;
      e.target = target;
      e.counter = 2;
    }
  } else {
    if (taken) {
      e.counter = static_cast<u8>(std::min<u32>(e.counter + 1, 3));
      e.target = target;
    } else {
      e.counter = static_cast<u8>(e.counter > 0 ? e.counter - 1 : 0);
    }
  }
  return correct;
}

void TimingModel::onInstruction(const Instruction& inst, u32 pc,
                                u32 fetch_cycles, u32 mem_cycles, bool taken,
                                u32 target) {
  onInstruction(inst, regUsesOf(inst), pc, fetch_cycles, mem_cycles, taken,
                target);
}

TimingClasses::TimingClasses(const TimingConfig& config, std::size_t lanes)
    : classes_(lanes, TimingModel(config)), lanes_(lanes), entry_(lanes) {
  WP_ENSURE(lanes > 0, "TimingClasses needs at least one lane");
}

std::span<TimingModel> TimingClasses::split(
    std::span<const u32> fetch_cycles) {
  WP_ENSURE(fetch_cycles.size() == lanes_.size(),
            "one first-fetch cycle count per timing lane");
  const std::size_t parents = live_;
  for (std::size_t k = 0; k < parents; ++k) entry_[k].fetch_cycles = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const u32 fc = fetch_cycles[i];
    WP_ENSURE(fc >= 1, "fetch must take at least one cycle");
    u32& cls = lanes_[i].cls;
    if (entry_[cls].fetch_cycles == 0) entry_[cls].fetch_cycles = fc;
    if (entry_[cls].fetch_cycles == fc) continue;
    // The lane leaves its class: join this batch's copy of the class
    // for its fetch cycles, or make one. The copy is taken before any
    // stall, so the lane's offset carries over unchanged.
    std::size_t c = parents;
    while (c < live_ &&
           (entry_[c].parent != cls || entry_[c].fetch_cycles != fc)) {
      ++c;
    }
    if (c == live_) {
      classes_[c] = classes_[cls];
      entry_[c] = {fc, cls};
      ++live_;
      ++splits_;
    }
    cls = static_cast<u32>(c);
  }
  for (std::size_t k = 0; k < live_; ++k) {
    classes_[k].stallFetch(entry_[k].fetch_cycles);
  }
  return {classes_.data(), live_};
}

namespace {

/// A ready time relative to @p cycle, clamped at 1: every value <= 1
/// means "no stall" to the next issue.
u64 relativeReady(u64 ready, u64 cycle) {
  return ready > cycle + 1 ? ready - cycle : 1;
}

}  // namespace

void TimingClasses::merge() {
  const auto sameShape = [](const TimingModel& a, const TimingModel& b) {
    for (std::size_t r = 0; r < a.reg_ready_.size(); ++r) {
      if (relativeReady(a.reg_ready_[r], a.cycle_) !=
          relativeReady(b.reg_ready_[r], b.cycle_)) {
        return false;
      }
    }
    return relativeReady(a.flags_ready_, a.cycle_) ==
           relativeReady(b.flags_ready_, b.cycle_);
  };
  for (std::size_t a = 0; a < live_; ++a) {
    std::size_t b = a + 1;
    while (b < live_) {
      if (!sameShape(classes_[a], classes_[b])) {
        ++b;
        continue;
      }
      // b's lanes join a; the last live class moves into b's slot.
      const i64 delta = static_cast<i64>(classes_[b].cycle_) -
                        static_cast<i64>(classes_[a].cycle_);
      const std::size_t last = live_ - 1;
      for (LaneClass& lane : lanes_) {
        if (lane.cls == b) {
          lane.cls = static_cast<u32>(a);
          lane.offset += delta;
        } else if (lane.cls == last) {
          lane.cls = static_cast<u32>(b);
        }
      }
      if (b != last) std::swap(classes_[b], classes_[last]);
      --live_;
      ++merges_;
    }
  }
}

u64 TimingClasses::cycles(std::size_t lane) const {
  WP_ENSURE(lane < lanes_.size(), "timing lane index out of range");
  const LaneClass& l = lanes_[lane];
  return static_cast<u64>(static_cast<i64>(classes_[l.cls].cycles()) +
                          l.offset);
}

void TimingClasses::checkInvariants() const {
  for (const LaneClass& lane : lanes_) {
    WP_ENSURE(lane.cls < live_, "timing lane maps to a dead class");
  }
  for (std::size_t k = 1; k < live_; ++k) {
    WP_ENSURE(classes_[k].branchStats() == branchStats(),
              "timing classes disagree on the shared branch stream");
  }
}

void TimingModel::reset() {
  cycle_ = 0;
  reg_ready_.fill(0);
  flags_ready_ = 0;
  std::fill(btb_.begin(), btb_.end(), BtbEntry{});
  branches_.reset();
}

}  // namespace wp::pipeline
