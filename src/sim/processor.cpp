#include "sim/processor.hpp"

#include <algorithm>

#include "sim/block_cache.hpp"
#include "support/ensure.hpp"

namespace wp::sim {

const char* engineName(Engine e) {
  switch (e) {
    case Engine::kInterp:
      return "interp";
    case Engine::kBlock:
      return "block";
  }
  WP_UNREACHABLE("bad engine");
}

MachineConfig baselineMachine(cache::Scheme scheme, u32 wp_area_bytes) {
  MachineConfig m;
  m.fetch.icache = cache::CacheGeometry{32 * 1024, 32, 32};
  m.fetch.tlb_entries = 32;
  m.fetch.scheme = scheme;
  m.fetch.wp_area_bytes = wp_area_bytes;
  m.dcache.geometry = cache::CacheGeometry{32 * 1024, 32, 32};
  return m;
}

Processor::Processor(const MachineConfig& config, const mem::Image& image,
                     mem::Memory& memory)
    : Processor(config, std::span(&config.fetch, 1), image, memory) {}

Processor::Processor(const MachineConfig& config,
                     std::span<const cache::FetchPathConfig> lanes,
                     const mem::Image& image, mem::Memory& memory)
    : config_(config),
      core_(image, memory),
      dcache_(config.dcache),
      fetch_(lanes.begin(), lanes.end()),
      fetch_cycles_(lanes.size()),
      timing_(config.timing, lanes.size()) {
  config_.fetch = lanes.front();
}

cache::FetchPath& Processor::laneFetchPath(std::size_t lane) {
  WP_ENSURE(lane < fetch_.size(), "lane index out of range");
  return fetch_[lane];
}

namespace {

constexpr u64 fnv1a(u64 h, u64 v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace

RunStats Processor::run() {
  WP_ENSURE(fetch_.size() == 1,
            "Processor::run drives one lane; use runLanes() for a group");
  return std::move(runLanes().front());
}

std::vector<RunStats> Processor::runLanes() {
  // The block engine's batched fetchLine accounting is closed-form only
  // without a fault hook (hooks observe and corrupt state between
  // individual fetches) and without drowsy lines (a line can fall
  // drowsy between two same-line fetches). Those runs use the reference
  // interpreter — the equivalence suite shows the results are identical
  // wherever both engines apply.
  const bool exact =
      std::all_of(fetch_.begin(), fetch_.end(), [](const cache::FetchPath& f) {
        return f.batchedLineFetchExact();
      });
  if (config_.engine == Engine::kBlock && exact) return runBlock();
  return runInterp();
}

std::vector<RunStats> Processor::runInterp() {
  CoreState state = core_.initialState();
  RunStats stats;

  // Watchdog countdown: a decrement per instruction instead of a modulo
  // keeps the hook's cost out of the hot loop when it is not installed.
  const bool hooked = static_cast<bool>(config_.budget_hook.check);
  if (hooked) {
    WP_ENSURE(config_.budget_hook.interval > 0,
              "BudgetHook.interval must be non-zero when a check is set");
  }
  u64 until_check = hooked ? config_.budget_hook.interval : 0;

  // Flow into the *next* fetch, derived from the previous instruction.
  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  // Only the precomputed register-use table is read; the interpreter
  // keeps its one-instruction batches.
  const BlockCache blocks(core_, config_.fetch.icache.line_bytes);
  // Local views of the lanes, so guest stores (byte writes, which may
  // alias anything in memory) never force a reload of the lane arrays.
  const std::span<cache::FetchPath> fetch(fetch_);
  const std::span<u32> fetch_cycles(fetch_cycles_);

  while (!state.halted) {
    WP_ENSURE(stats.instructions < config_.max_instructions,
              "instruction budget exhausted (runaway guest?)");

    const u32 pc = state.pc;
    for (std::size_t i = 0; i < fetch.size(); ++i) {
      fetch_cycles[i] = fetch[i].fetch(pc, flow);
    }
    const std::span<pipeline::TimingModel> classes =
        timing_.enter(fetch_cycles);

    const StepInfo info = core_.step(state);
    ++stats.instructions;
    stats.retired_pc_hash = fnv1a(stats.retired_pc_hash, pc);

    u32 mem_cycles = 0;
    if (info.mem_addr.has_value()) {
      const bool is_store = isa::isStore(info.inst.op);
      stats.dataflow_hash = fnv1a(
          stats.dataflow_hash,
          (static_cast<u64>(*info.mem_addr) << 1) | (is_store ? 1u : 0u));
      mem_cycles = is_store ? dcache_.store(*info.mem_addr)
                            : dcache_.load(*info.mem_addr);
    }

    // step() has validated pc, so its register-use slot exists; a bad
    // pc raised there, after the fetches, as it always has.
    const pipeline::RegUse& use = blocks.regUseAt(pc);
    for (pipeline::TimingModel& timing : classes) {
      timing.onInstruction(info.inst, use, pc, 1, mem_cycles, info.taken,
                           info.next_pc);
    }
    timing_.leave();

    if (info.control_transfer && info.taken) {
      flow = info.indirect ? cache::FetchFlow::kTakenIndirect
                           : cache::FetchFlow::kTakenDirect;
    } else {
      flow = cache::FetchFlow::kSequential;
    }

    // The check runs *after* the instruction retires, so the hook sees
    // the exact retired count (k * interval on the k-th call).
    if (hooked && --until_check == 0) {
      config_.budget_hook.check(stats.instructions);
      until_check = config_.budget_hook.interval;
    }
  }

  stats.dcache = dcache_.stats();
  return collect(stats);
}

std::vector<RunStats> Processor::runBlock() {
  CoreState state = core_.initialState();
  RunStats stats;

  const bool hooked = static_cast<bool>(config_.budget_hook.check);
  if (hooked) {
    WP_ENSURE(config_.budget_hook.interval > 0,
              "BudgetHook.interval must be non-zero when a check is set");
  }
  u64 until_check = hooked ? config_.budget_hook.interval : 0;

  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  // Batches end at the smallest line of any lane. A lane with longer
  // lines then sees one of its lines entered as several batches, which
  // is exact: re-entering a line sequentially takes the same same-line
  // fetch paths the interpreter would (see the clipping note below).
  u32 line_bytes = config_.fetch.icache.line_bytes;
  for (const cache::FetchPath& f : fetch_) {
    line_bytes = std::min(line_bytes, f.config().icache.line_bytes);
  }
  const BlockCache blocks(core_, line_bytes);
  // Local views of the lanes, so guest stores (byte writes, which may
  // alias anything in memory) never force a reload of the lane arrays.
  const std::span<cache::FetchPath> fetch(fetch_);
  const std::span<u32> fetch_cycles(fetch_cycles_);

  while (!state.halted) {
    WP_ENSURE(stats.instructions < config_.max_instructions,
              "instruction budget exhausted (runaway guest?)");

    // Batch size: the basic block, clipped so the instruction budget
    // and the watchdog both observe their exact boundary counts. A
    // clipped batch resumes mid-line next iteration; re-entering the
    // line sequentially takes the same same-line fetch paths the
    // interpreter would, so the split is invisible in the stats.
    u64 n64 = blocks.blockLenAt(state.pc);
    n64 = std::min(n64, config_.max_instructions - stats.instructions);
    if (hooked) n64 = std::min(n64, until_check);
    const u32 n = static_cast<u32>(n64);

    for (std::size_t i = 0; i < fetch.size(); ++i) {
      fetch_cycles[i] = fetch[i].fetchLine(state.pc, flow, n);
    }
    // Only the first fetch of the batch carries miss/walk penalties;
    // the follow-ups cost exactly one cycle (the fetchLine contract).
    const std::span<pipeline::TimingModel> classes =
        timing_.enter(fetch_cycles);

    for (u32 i = 0; i < n; ++i) {
      const u32 pc = state.pc;
      const StepInfo info = core_.step(state);
      ++stats.instructions;
      stats.retired_pc_hash = fnv1a(stats.retired_pc_hash, pc);

      u32 mem_cycles = 0;
      if (info.mem_addr.has_value()) {
        const bool is_store = isa::isStore(info.inst.op);
        stats.dataflow_hash = fnv1a(
            stats.dataflow_hash,
            (static_cast<u64>(*info.mem_addr) << 1) | (is_store ? 1u : 0u));
        mem_cycles = is_store ? dcache_.store(*info.mem_addr)
                              : dcache_.load(*info.mem_addr);
      }

      const pipeline::RegUse& use = blocks.regUseAt(pc);
      for (pipeline::TimingModel& timing : classes) {
        timing.onInstruction(info.inst, use, pc, 1, mem_cycles, info.taken,
                             info.next_pc);
      }

      // Only the batch's last instruction can transfer control (blocks
      // end at control transfers), but deriving flow uniformly keeps
      // this loop a line-for-line match of the interpreter's.
      if (info.control_transfer && info.taken) {
        flow = info.indirect ? cache::FetchFlow::kTakenIndirect
                             : cache::FetchFlow::kTakenDirect;
      } else {
        flow = cache::FetchFlow::kSequential;
      }
    }
    timing_.leave();

    if (hooked && (until_check -= n) == 0) {
      config_.budget_hook.check(stats.instructions);
      until_check = config_.budget_hook.interval;
    }
  }

  stats.dcache = dcache_.stats();
  return collect(stats);
}

std::vector<RunStats> Processor::collect(const RunStats& shared) const {
  timing_.checkInvariants();
  std::vector<RunStats> out(fetch_.size(), shared);
  for (std::size_t i = 0; i < fetch_.size(); ++i) {
    const cache::FetchPath& f = fetch_[i];
    RunStats& stats = out[i];
    stats.cycles = timing_.cycles(i);
    stats.icache = f.cacheStats();
    stats.itlb = f.tlbStats();
    stats.fetch = f.fetchStats();
    stats.branches = timing_.branchStats();
    stats.squashed_probes = f.squashedProbes();
    stats.link_flash_clears = f.linkFlashClears();
    stats.icache_data_area_factor = f.dataAreaFactor();
    stats.drowsy = f.drowsyStats();
    stats.icache_lines = f.icacheLines();
  }
  return out;
}

energy::RunEnergy Processor::price(const energy::EnergyModel& model,
                                   const MachineConfig& config,
                                   const RunStats& stats) {
  energy::RunEnergy e;
  e.icache = model.cacheEnergy(config.fetch.icache, stats.icache,
                               stats.icache_data_area_factor,
                               stats.link_flash_clears);
  e.dcache = model.cacheEnergy(config.dcache.geometry, stats.dcache);
  const bool wp_active = config.fetch.scheme == cache::Scheme::kWayPlacement;
  e.itlb = model.tlbEnergy(stats.itlb, wp_active);
  e.hint = wp_active ? model.hintEnergy(stats.fetch) : 0.0;
  e.core = model.coreEnergy(stats.instructions, stats.cycles);
  e.memory = model.memoryEnergy(stats.memLineTransfers());
  return e;
}

}  // namespace wp::sim
