// fig6_sweep: the Fig. 6 grid priced in process by one SweepExecutor
// with one worker thread, exactly as bench/fig6_cache_configs.cpp runs
// it, over the four-workload subset. 63 cells per workload: 9
// geometries x (baseline, way-memoization, 5 way-placement areas).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "driver/sweep.hpp"
#include "layout/strategy.hpp"
#include "percentile.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

/// Host seconds one grid takes on the reference host (nproc 4,
/// RelWithDebInfo); --seconds is turned into whole grids with it, so
/// every run of one setting prices the same cells.
constexpr double kGridSeconds = 21.0;
constexpr int kSetupRepeats = 25;

using wp::driver::SchemeSpec;
using wp::driver::SweepExecutor;

std::vector<SchemeSpec> fig6Schemes() {
  std::vector<SchemeSpec> s = {baselineSpec(), wayMemoSpec()};
  for (const u32 kb : kFig6AreasKb) {
    s.push_back(wayPlaceSpec(kb, wp::layout::defaultStrategyName()));
  }
  return s;
}

std::unique_ptr<SweepExecutor> makeExecutor(u64 seed) {
  return std::make_unique<SweepExecutor>(fig6Workloads(),
                                         wp::energy::EnergyParams{}, seed, 1,
                                         nullptr, nullptr);
}

/// Checks every cell of one priced grid against references computed
/// apart from the simulator; returns the guest instructions it saw.
u64 checkGrid(SweepExecutor& ex, Report& rep) {
  u64 instructions = 0;
  const std::vector<SchemeSpec> schemes = fig6Schemes();
  for (const wp::driver::PreparedWorkload& p : ex.prepared()) {
    const std::vector<wp::u8> expected =
        p.workload->expected(wp::workloads::InputSize::kLarge);
    std::optional<u64> dataflow;
    for (const wp::cache::CacheGeometry& g : fig6Geometries()) {
      const wp::driver::RunResult* base = nullptr;
      for (const SchemeSpec& spec : schemes) {
        ++rep.attempted;
        const SweepExecutor::CellView v = ex.tryRun(p, g, spec);
        const std::string key = SweepExecutor::keyOf(p.name, g, spec);
        if (v.quarantined || v.result == nullptr) {
          ++rep.failed;
          continue;
        }
        const wp::driver::RunResult& r = *v.result;
        instructions += r.stats.instructions;
        if (r.output != expected) {
          rep.fail(key + ": guest output differs from the reference");
        }
        if (!dataflow) dataflow = r.stats.dataflow_hash;
        if (r.stats.dataflow_hash != *dataflow) {
          rep.fail(key + ": dataflow_hash differs within " + p.name);
        }
        if (spec.scheme == wp::cache::Scheme::kBaseline) base = &r;
        if (spec.scheme == wp::cache::Scheme::kWayMemoization &&
            base != nullptr &&
            (r.stats.retired_pc_hash != base->stats.retired_pc_hash ||
             r.stats.instructions != base->stats.instructions)) {
          rep.fail(key + ": way-memoization retired another stream than "
                         "the baseline");
        }
      }
    }
  }
  return instructions;
}

}  // namespace

Report runFig6Sweep(const Options& opt) {
  Report rep;
  const int rounds =
      std::max(1, static_cast<int>(std::lround(opt.seconds / kGridSeconds)));

  std::vector<SweepExecutor::Cell> grid;
  for (const wp::cache::CacheGeometry& g : fig6Geometries()) {
    for (const SchemeSpec& s : fig6Schemes()) {
      if (s.scheme != wp::cache::Scheme::kBaseline) grid.push_back({g, s});
    }
  }

  // Set-up: build, profile and lay out the subset, several times.
  std::vector<double> setups;
  std::unique_ptr<SweepExecutor> ex;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ex.reset();
    const double t0 = wallNow();
    ex = makeExecutor(opt.seed);
    setups.push_back(wallNow() - t0);
  }

  double wall = 0.0, cpu = 0.0;
  u64 instructions = 0, computed = 0;
  for (int r = 0; r < rounds; ++r) {
    if (r > 0) ex = makeExecutor(opt.seed);
    const ProcUsage u0 = procUsage();
    const double t0 = wallNow();
    ex->runAll(grid);
    wall += wallNow() - t0;
    cpu += procUsage().cpu_s - u0.cpu_s;
    computed += ex->metrics().counter("cells.computed").value();
    instructions += checkGrid(*ex, rep);
  }
  if (computed != rep.attempted) {
    rep.fail("the executor computed " + std::to_string(computed) +
             " cells for a grid of " + std::to_string(rep.attempted));
  }

  rep.add("setup_s", median(setups), "s");
  rep.add("wall_s", wall, "s");
  rep.add("cpu_s", cpu, "s");
  rep.add("cells_per_s", static_cast<double>(computed) / wall, "1/s");
  rep.add("peak_rss_mb", procUsage().peak_rss_mb, "MiB");
  rep.notes.push_back(
      "fig6_sweep: " + std::to_string(rounds) + " grid(s), " +
      std::to_string(computed) + " cells, " + std::to_string(instructions) +
      " guest instructions, guest_mips " +
      g17(static_cast<double>(instructions) / wall / 1e6));
  return rep;
}

}  // namespace perfbench
