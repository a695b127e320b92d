// The layer ledger (--trace 1): what each layer of one guest instruction
// and of one served request costs the host, measured from outside by
// timing calls into public functions. Nothing under src/ is
// instrumented, so the timed workloads carry no extra cost.
//
// The ladder rebuilds the interpreter rung by rung on the fig6_sweep
// subset (large input, 32 KB / 32-way / 32 B lines), each rung running
// to HALT:
//   1. Core::step alone
//   2. + DataCache::load/store
//   3. + TimingModel::onInstruction
//   4. + FetchPath::fetch, per scheme (the interpreter), and its
//      block-dispatch variant, BlockCache::blockLenAt + fetchLine.
// A layer's cost is the difference between two rungs, so no timer runs
// per instruction. Rung 4 and the block variant must reproduce
// Processor::run's RunStats exactly under the matching engine.
#include <algorithm>
#include <cstring>
#include <map>
#include <type_traits>

#include "cache/data_cache.hpp"
#include "cache/fetch_path.hpp"
#include "driver/checkpoint.hpp"
#include "driver/result_store.hpp"
#include "driver/service.hpp"
#include "driver/sweep.hpp"
#include "layout/strategy.hpp"
#include "percentile.hpp"
#include "pipeline/timing.hpp"
#include "serve.hpp"
#include "sim/block_cache.hpp"
#include "sim/core.hpp"
#include "sim/processor.hpp"
#include "support/metrics.hpp"
#include "support/shutdown.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using namespace wp;

constexpr int kLadderRepeats = 3;
constexpr u32 kLadderWpAreaKb = 8;  ///< the daemon's default eval area
constexpr int kBatches = 9;         ///< micro timings: median of batch means
constexpr int kBatchCalls = 2000;
constexpr std::size_t kWarmRtts = 25000;

u64 fnv1a(u64 h, u64 v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

struct RungRun {
  sim::RunStats stats;
  double seconds = 0.0;
  u64 fetch_calls = 0;
};

void collect(sim::RunStats& st, const cache::FetchPath& fetch,
             const cache::DataCache& dcache,
             const pipeline::TimingModel& timing) {
  st.cycles = timing.cycles();
  st.icache = fetch.cacheStats();
  st.dcache = dcache.stats();
  st.itlb = fetch.tlbStats();
  st.fetch = fetch.fetchStats();
  st.branches = timing.branchStats();
}

cache::FetchFlow flowAfter(const sim::StepInfo& info) {
  if (!info.control_transfer || !info.taken) {
    return cache::FetchFlow::kSequential;
  }
  return info.indirect ? cache::FetchFlow::kTakenIndirect
                       : cache::FetchFlow::kTakenDirect;
}

/// Rungs 1-4 of the interpreter, selected at compile time so a rung
/// pays nothing for the layers it leaves out.
template <bool kDcache, bool kTiming, bool kFetch>
RungRun interpRung(const sim::MachineConfig& m, const mem::Image& image,
                   mem::Memory& memory) {
  sim::Core core(image, memory);
  cache::FetchPath fetch(m.fetch);
  cache::DataCache dcache(m.dcache);
  pipeline::TimingModel timing(m.timing);
  sim::CoreState state = core.initialState();
  RungRun r;
  sim::RunStats& st = r.stats;
  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  const double t0 = threadCpuSeconds();
  while (!state.halted) {
    WP_ENSURE(st.instructions < m.max_instructions, "ladder: runaway guest");
    const u32 pc = state.pc;
    u32 fetch_cycles = 1;
    if constexpr (kFetch) fetch_cycles = fetch.fetch(pc, flow);
    const sim::StepInfo info = core.step(state);
    ++st.instructions;
    st.retired_pc_hash = fnv1a(st.retired_pc_hash, pc);
    u32 mem_cycles = 0;
    if (info.mem_addr.has_value()) {
      const bool is_store = isa::isStore(info.inst.op);
      st.dataflow_hash = fnv1a(st.dataflow_hash,
                               (static_cast<u64>(*info.mem_addr) << 1) |
                                   (is_store ? 1u : 0u));
      if constexpr (kDcache) {
        mem_cycles = is_store ? dcache.store(*info.mem_addr)
                              : dcache.load(*info.mem_addr);
      }
    }
    if constexpr (kTiming) {
      timing.onInstruction(info.inst, pc, fetch_cycles, mem_cycles, info.taken,
                           info.next_pc);
    }
    if constexpr (kFetch) flow = flowAfter(info);
  }
  r.seconds = threadCpuSeconds() - t0;
  r.fetch_calls = st.instructions;
  collect(st, fetch, dcache, timing);
  return r;
}

/// Rung 4 with block dispatch: one FetchPath::fetchLine per batch.
RungRun blockRung(const sim::MachineConfig& m, const mem::Image& image,
                  mem::Memory& memory) {
  sim::Core core(image, memory);
  cache::FetchPath fetch(m.fetch);
  cache::DataCache dcache(m.dcache);
  pipeline::TimingModel timing(m.timing);
  sim::CoreState state = core.initialState();
  RungRun r;
  sim::RunStats& st = r.stats;
  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  const double t0 = threadCpuSeconds();
  const sim::BlockCache blocks(core, m.fetch.icache.line_bytes);
  while (!state.halted) {
    WP_ENSURE(st.instructions < m.max_instructions, "ladder: runaway guest");
    const u32 n = static_cast<u32>(
        std::min<u64>(blocks.blockLenAt(state.pc),
                      m.max_instructions - st.instructions));
    const u32 first_cycles = fetch.fetchLine(state.pc, flow, n);
    ++r.fetch_calls;
    for (u32 i = 0; i < n; ++i) {
      const u32 pc = state.pc;
      const sim::StepInfo info = core.step(state);
      ++st.instructions;
      st.retired_pc_hash = fnv1a(st.retired_pc_hash, pc);
      u32 mem_cycles = 0;
      if (info.mem_addr.has_value()) {
        const bool is_store = isa::isStore(info.inst.op);
        st.dataflow_hash = fnv1a(st.dataflow_hash,
                                 (static_cast<u64>(*info.mem_addr) << 1) |
                                     (is_store ? 1u : 0u));
        mem_cycles = is_store ? dcache.store(*info.mem_addr)
                              : dcache.load(*info.mem_addr);
      }
      timing.onInstruction(info.inst, blocks.regUseAt(pc), pc,
                           i == 0 ? first_cycles : 1, mem_cycles, info.taken,
                           info.next_pc);
      flow = flowAfter(info);
    }
  }
  r.seconds = threadCpuSeconds() - t0;
  collect(st, fetch, dcache, timing);
  return r;
}

RungRun processorRun(const sim::MachineConfig& m, const mem::Image& image,
                     mem::Memory& memory) {
  sim::Processor proc(m, image, memory);
  RungRun r;
  const double t0 = threadCpuSeconds();
  r.stats = proc.run();
  r.seconds = threadCpuSeconds() - t0;
  return r;
}

template <typename T>
bool sameBytes(const T& a, const T& b) {
  static_assert(std::has_unique_object_representations_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// The RunStats fields a rung must reproduce.
bool sameRun(const sim::RunStats& a, const sim::RunStats& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.retired_pc_hash == b.retired_pc_hash &&
         a.dataflow_hash == b.dataflow_hash && sameBytes(a.icache, b.icache) &&
         sameBytes(a.dcache, b.dcache) && sameBytes(a.itlb, b.itlb);
}

/// Runs @p fn on a freshly loaded large-input memory for @p p.
template <typename Fn>
RungRun onFreshMemory(const driver::PreparedWorkload& p,
                      const mem::Image& image, Fn fn) {
  mem::Memory memory;
  image.loadInto(memory);
  p.workload->prepare(memory, workloads::InputSize::kLarge);
  return fn(memory);
}

/// Median over batches of the mean seconds of one call of @p fn.
template <typename Fn>
double perCall(Fn fn, int calls = kBatchCalls) {
  std::vector<double> means;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = wallNow();
    for (int i = 0; i < calls; ++i) fn();
    means.push_back((wallNow() - t0) / calls);
  }
  return median(means);
}

struct Scheme {
  const char* name;
  driver::SchemeSpec spec;
};

std::vector<Scheme> ladderSchemes() {
  return {{"baseline", baselineSpec()},
          {"way_placement",
           wayPlaceSpec(kLadderWpAreaKb, layout::defaultStrategyName())},
          {"way_memoization", wayMemoSpec()}};
}

/// Per-scheme totals of one ladder pass over the subset.
struct SchemeTotals {
  double rung4_s = 0.0, block_s = 0.0, interp_s = 0.0, engine_block_s = 0.0;
  u64 instructions = 0, block_fetches = 0;
  sim::RunStats stats;  ///< summed counters of the top rung
};
/// Rungs 1-3 totals per image ("original" or the way-placed one).
struct ImageTotals {
  double rung_s[3] = {0.0, 0.0, 0.0};
  u64 instructions = 0;
};

void addStats(sim::RunStats& sum, const sim::RunStats& s) {
  sum.instructions += s.instructions;
  sum.cycles += s.cycles;
  sum.icache += s.icache;
  sum.dcache += s.dcache;
  sum.fetch.fetches += s.fetch.fetches;
  sum.branches.mispredicts += s.branches.mispredicts;
}

void runLadder(const driver::Runner& runner,
               const std::vector<driver::PreparedWorkload>& subset,
               Report& rep) {
  const cache::CacheGeometry g{32 * 1024, 32, 32};
  const std::vector<Scheme> schemes = ladderSchemes();
  std::vector<std::map<std::string, ImageTotals>> image_reps(kLadderRepeats);
  std::vector<std::vector<SchemeTotals>> scheme_reps(
      kLadderRepeats, std::vector<SchemeTotals>(schemes.size()));
  std::vector<double> price_s;

  for (int rep_i = 0; rep_i < kLadderRepeats; ++rep_i) {
    for (const driver::PreparedWorkload& p : subset) {
      for (std::size_t si = 0; si < schemes.size(); ++si) {
        const Scheme& s = schemes[si];
        const mem::Image& image = p.imageFor(s.spec.layout);
        sim::MachineConfig m = runner.machineFor(g, s.spec);
        if (s.spec.scheme == cache::Scheme::kWayPlacement) {
          // Runner::run clamps the area to the image's code pages.
          const u32 code = static_cast<u32>(
              (image.code.size() + mem::kPageBytes - 1) / mem::kPageBytes *
              mem::kPageBytes);
          m.fetch.wp_area_bytes = std::min(m.fetch.wp_area_bytes, code);
        }
        // Rungs 1-3 once per image: way-memoization runs the original
        // image, whose rungs the baseline scheme already ran.
        if (s.spec.scheme != cache::Scheme::kWayMemoization) {
          ImageTotals& it = image_reps[rep_i][s.spec.layout];
          const RungRun r1 = onFreshMemory(p, image, [&](mem::Memory& mm) {
            return interpRung<false, false, false>(m, image, mm);
          });
          const RungRun r2 = onFreshMemory(p, image, [&](mem::Memory& mm) {
            return interpRung<true, false, false>(m, image, mm);
          });
          const RungRun r3 = onFreshMemory(p, image, [&](mem::Memory& mm) {
            return interpRung<true, true, false>(m, image, mm);
          });
          it.rung_s[0] += r1.seconds;
          it.rung_s[1] += r2.seconds;
          it.rung_s[2] += r3.seconds;
          it.instructions += r1.stats.instructions;
        }

        const RungRun r4 = onFreshMemory(p, image, [&](mem::Memory& mm) {
          return interpRung<true, true, true>(m, image, mm);
        });
        const RungRun blk = onFreshMemory(p, image, [&](mem::Memory& mm) {
          return blockRung(m, image, mm);
        });
        sim::MachineConfig mi = m, mb = m;
        mi.engine = sim::Engine::kInterp;
        mb.engine = sim::Engine::kBlock;
        const RungRun pi = onFreshMemory(p, image, [&](mem::Memory& mm) {
          return processorRun(mi, image, mm);
        });
        const RungRun pb = onFreshMemory(p, image, [&](mem::Memory& mm) {
          return processorRun(mb, image, mm);
        });
        rep.attempted += 2;
        const std::string where = p.name + "/" + s.name;
        if (!sameRun(r4.stats, pi.stats)) {
          rep.fail(where + ": rung 4 differs from Processor::run (interp)");
        }
        if (!sameRun(blk.stats, pb.stats)) {
          rep.fail(where +
                   ": the block rung differs from Processor::run (block)");
        }

        SchemeTotals& t = scheme_reps[rep_i][si];
        t.rung4_s += r4.seconds;
        t.block_s += blk.seconds;
        t.interp_s += pi.seconds;
        t.engine_block_s += pb.seconds;
        t.instructions += r4.stats.instructions;
        t.block_fetches += blk.fetch_calls;
        addStats(t.stats, r4.stats);

        if (rep_i == 0) {
          const energy::EnergyModel& model = runner.energyModel();
          const sim::RunStats st = pi.stats;
          double sink = 0.0;
          price_s.push_back(perCall([&] {
            sink += sim::Processor::price(model, m, st).total();
          }));
          if (!(sink > 0.0)) {
            rep.fail("Processor::price priced a run at no energy");
          }
        }
      }
    }
  }

  // Medians over the repeats, per rung.
  const auto med = [&](auto get) {
    std::vector<double> v;
    for (int i = 0; i < kLadderRepeats; ++i) v.push_back(get(i));
    return median(v);
  };
  const std::string orig = "original";
  const ImageTotals& o = image_reps[0].at(orig);
  const double io = static_cast<double>(o.instructions);
  const auto rung = [&](const std::string& img, int k) {
    return med([&](int i) { return image_reps[i].at(img).rung_s[k]; });
  };
  rep.add("sim.core.ns_per_inst", rung(orig, 0) / io * 1e9, "ns");
  rep.add("cache.dcache.ns_per_inst",
          (rung(orig, 1) - rung(orig, 0)) / io * 1e9, "ns");
  rep.add("pipeline.timing.ns_per_inst",
          (rung(orig, 2) - rung(orig, 1)) / io * 1e9, "ns");
  for (std::size_t si = 0; si < schemes.size(); ++si) {
    const std::string name = schemes[si].name;
    const std::string& img = schemes[si].spec.layout;
    const SchemeTotals& t0 = scheme_reps[0][si];
    const double n = static_cast<double>(t0.instructions);
    const auto sm = [&](double SchemeTotals::*field) {
      return med([&](int i) { return scheme_reps[i][si].*field; });
    };
    rep.add("cache.fetch." + name + ".ns_per_inst",
            (sm(&SchemeTotals::rung4_s) - rung(img, 2)) / n * 1e9, "ns");
    rep.add("sim.interp." + name + ".ns_per_inst",
            sm(&SchemeTotals::interp_s) / n * 1e9, "ns");
    rep.add("sim.block." + name + ".ns_per_inst",
            sm(&SchemeTotals::engine_block_s) / n * 1e9, "ns");
    rep.add("cache.icache.misses_per_kinst." + name,
            static_cast<double>(t0.stats.icache.misses) * 1e3 / n, "1/kinst");
    rep.add("cache.icache.tag_compares_per_fetch." + name,
            static_cast<double>(t0.stats.icache.tag_compares) /
                static_cast<double>(t0.stats.fetch.fetches),
            "cmp/fetch");
    if (si == 0) {
      rep.add("sim.block.insts_per_fetch",
              n / static_cast<double>(t0.block_fetches), "inst/fetch");
      rep.add("cache.dcache.misses_per_kinst",
              static_cast<double>(t0.stats.dcache.misses) * 1e3 / n, "1/kinst");
      rep.add("pipeline.mispredicts_per_kinst",
              static_cast<double>(t0.stats.branches.mispredicts) * 1e3 / n,
              "1/kinst");
    }
  }
  rep.add("energy.price_us", median(price_s) * 1e6, "us");
}

/// Build, profile and layout of the full suite, summed; medians over
/// three passes.
void runPrepare(const driver::Runner& runner, Report& rep) {
  std::vector<double> build, profile, layout;
  for (int pass = 0; pass < 3; ++pass) {
    double b = 0.0, p = 0.0, l = 0.0;
    for (const std::string& name : workloads::suiteNames()) {
      const driver::PreparedWorkload w = runner.prepare(name);
      b += w.phases.build_seconds;
      p += w.phases.profile_seconds;
      l += w.phases.layout_seconds;
    }
    build.push_back(b);
    profile.push_back(p);
    layout.push_back(l);
  }
  rep.add("workloads.build_ms", median(build) * 1e3, "ms");
  rep.add("profile.ms", median(profile) * 1e3, "ms");
  rep.add("layout.ms", median(layout) * 1e3, "ms");
}

void runLayoutSpecs(const driver::Runner& runner, Report& rep) {
  std::vector<double> ms;
  for (const std::string& name : fig6Workloads()) {
    const driver::PreparedWorkload p = runner.prepare(name);
    for (const char* spec : {"call_distance{call_reach_bytes=3072}",
                             "way_placement{chain_hot_threshold=500}",
                             "exttsp{tsp_forward_bytes=768}"}) {
      const double t0 = wallNow();
      (void)p.layoutFor(spec);
      ms.push_back((wallNow() - t0) * 1e3);
    }
  }
  rep.add("layout.spec_ms", median(ms), "ms");
}

/// SweepExecutor, record codec, ResultStore and SweepService costs.
/// Returns the service's per-request handling time in seconds.
double runDriver(const Options& opt, Report& rep) {
  driver::SweepExecutor ex(fig6Workloads(), energy::EnergyParams{}, opt.seed, 1,
                           nullptr, nullptr);
  const std::vector<cache::CacheGeometry>& geoms = fig6Geometries();

  // Cold cells: the thread CPU time of each call outside the simulate
  // span the RunResult records (itself thread CPU time), through the
  // executor and through the bare Runner::run, alternating which goes
  // first. With one worker the executor computes on this thread, so
  // both sides read one clock, and preemption during the simulate span
  // cannot leak into the residue. Subtracting the span leaves residues
  // of microseconds, where the difference of two whole cells would
  // drown in the cells' own run-to-run noise.
  std::vector<double> exec_rest, run_rest;
  int k = 0;
  for (const driver::PreparedWorkload& p : ex.prepared()) {
    for (const cache::CacheGeometry& g : geoms) {
      const driver::SchemeSpec spec = baselineSpec();
      const auto rest = [](double t0, const driver::RunResult& r) {
        return threadCpuSeconds() - t0 - r.simulate_seconds;
      };
      const auto timeExec = [&] {
        const double t0 = threadCpuSeconds();
        exec_rest.push_back(rest(t0, ex.run(p, g, spec)));
      };
      const auto timeRun = [&] {
        const double t0 = threadCpuSeconds();
        run_rest.push_back(rest(t0, ex.runner().run(p, g, spec)));
      };
      if (k++ % 2 == 0) {
        timeExec();
        timeRun();
      } else {
        timeRun();
        timeExec();
      }
    }
  }
  rep.add("driver.sweep.cell_overhead_us",
          (median(exec_rest) - median(run_rest)) * 1e6, "us");

  const driver::PreparedWorkload& p0 = ex.prepared().front();
  const cache::CacheGeometry& g0 = geoms[0];
  const driver::RunResult& r0 = ex.run(p0, g0, baselineSpec());
  rep.add("driver.sweep.memo_hit_us",
          perCall([&] { (void)ex.run(p0, g0, baselineSpec()); }) * 1e6, "us");

  const std::string key =
      driver::SweepExecutor::keyOf(p0.name, g0, baselineSpec());
  u64 digest = 0;
  rep.add("driver.sweep.image_digest_us",
          perCall([&] {
            digest = driver::imageDigest(p0.imageFor("original"));
          }, 50) * 1e6,
          "us");
  std::string line;
  rep.add("driver.record.render_us",
          perCall([&] {
            line = driver::renderRecord(key, digest, r0, 0.5);
          }) * 1e6,
          "us");
  driver::CheckpointRecord parsed;
  driver::RecordParse fate = driver::RecordParse::kMalformed;
  rep.add("driver.record.parse_us",
          perCall([&] { fate = driver::parseRecordLine(line, parsed); }) * 1e6,
          "us");
  ++rep.attempted;
  if (fate != driver::RecordParse::kOk || parsed.key != key) {
    rep.fail("a rendered record did not parse back");
  }

  const std::string store_dir = opt.workdir + "/ledger/store";
  removeTree(opt.workdir + "/ledger");
  makeDirs(opt.workdir + "/ledger");
  MetricsRegistry metrics;
  driver::ResultStore store({store_dir}, opt.seed, metrics, nullptr);
  std::vector<double> put_ms, open_ms;
  for (int i = 0; i < 30; ++i) {
    const std::string k_i = key + "/perfbench" + std::to_string(i);
    const double t0 = wallNow();
    driver::ResultStore::Outcome o = store.open(k_i, digest);
    if (!o.record && o.lease.owned()) store.put(o.lease, k_i, digest, r0, 0.5);
    put_ms.push_back((wallNow() - t0) * 1e3);
  }
  const std::string k_0 = key + "/perfbench0";
  for (int i = 0; i < 100; ++i) {
    const double t0 = wallNow();
    const driver::ResultStore::Outcome o = store.open(k_0, digest);
    open_ms.push_back((wallNow() - t0) * 1e3);
    ++rep.attempted;
    if (!o.record) {
      ++rep.failed;
      rep.fail("a record just put was not served by ResultStore::open");
    }
  }
  if (store.degraded()) rep.fail("the ledger's result store degraded");
  rep.add("driver.store.put_ms", median(put_ms), "ms");
  rep.add("driver.store.open_ms", median(open_ms), "ms");
  removeTree(opt.workdir + "/ledger");

  driver::SweepService service(driver::ServiceConfig{}, ex,
                               ShutdownLatch::instance());
  const std::string eval = "{\"op\": \"eval\", \"workload\": \"" + p0.name +
                           "\", \"icache_kb\": 16, \"ways\": 8, \"scheme\": "
                           "\"baseline\"}";
  std::string reply;
  const double handle_s = perCall([&] { reply = service.handleLine(eval); });
  ++rep.attempted;
  if (parseReply(reply)["fate"] != "served") {
    ++rep.failed;
    rep.fail("SweepService::handleLine did not serve a warm eval: " + reply);
  }
  rep.add("driver.service.handle_us", handle_s * 1e6, "us");
  return handle_s;
}

void addTail(Report& rep, const std::string& workload,
             const std::vector<double>& rtt_s) {
  const Tail t = tailOf(rtt_s);
  const std::string base = "driver.service.rtt_ms_tail." + workload;
  rep.add(base, t.value * 1e3, "ms");
  rep.add(base + ".pct", t.percentile, "%");
  rep.add(base + ".samples", static_cast<double>(t.samples), "count");
  rep.notes.push_back(workload + " round trip: p" + pct(t.percentile) + " = " +
                      g17(t.value * 1e3) + " ms over " +
                      std::to_string(t.samples) + " samples (" +
                      std::to_string(t.beyond) + " beyond it)");
}

/// One serve_cold round against a full-suite daemon, then a warm cycle
/// over cells it has already answered.
void runDaemon(const Options& opt, double handle_s, Report& rep) {
  const std::string dir = opt.workdir + "/ledger-daemon";
  removeTree(dir);
  std::vector<double> cold, warm;
  {
    Daemon d(opt, dir, "store");
    const std::vector<EvalRequest> plan = coldPlan(opt.seed, 1);
    const auto exchange = [&](const EvalRequest& r, std::vector<double>& rtt) {
      const double t0 = wallNow();
      const std::string reply = d.request(r.line);
      rtt.push_back(wallNow() - t0);
      ++rep.attempted;
      if (parseReply(reply)["fate"] != "served") ++rep.failed;
    };
    for (const EvalRequest& r : plan) exchange(r, cold);
    const std::size_t warm_set = std::min<std::size_t>(24, plan.size());
    for (std::size_t i = 0; i < kWarmRtts; ++i) {
      exchange(plan[i % warm_set], warm);
    }
    if (!d.drain()) rep.fail("the ledger's daemon did not drain cleanly");
  }
  removeTree(dir);
  rep.add("driver.service.transport_us", (median(warm) - handle_s) * 1e6, "us");
  addTail(rep, "serve_cold", cold);
  addTail(rep, "serve_warm", warm);
}

}  // namespace

Report runLedger(const Options& opt) {
  Report rep;
  const driver::Runner runner(energy::EnergyParams{}, opt.seed);
  std::vector<driver::PreparedWorkload> subset;
  for (const std::string& name : fig6Workloads()) {
    subset.push_back(runner.prepare(name));
  }
  runLadder(runner, subset, rep);
  runPrepare(runner, rep);
  runLayoutSpecs(runner, rep);
  const double handle_s = runDriver(opt, rep);
  runDaemon(opt, handle_s, rep);
  return rep;
}

}  // namespace perfbench
