// Tests for the parallel sweep executor: memo-key uniqueness,
// deterministic aggregation independent of the worker-thread count, the
// WP_JSON cell report, the WP_TRACE event log, and the fail-loud policy
// for unwritable report paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace wp {
namespace {

const cache::CacheGeometry kXScale{32 * 1024, 32, 32};

std::vector<std::string> fastSubset() { return {"crc", "bitcount"}; }

/// Sets an environment variable for the enclosing scope; restores the
/// previous value (or unsets) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_old_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

// ---------------------------------------------------------------------
// keyOf: every field that can change a result must change the key.

TEST(SweepKey, DistinctSpecsGetDistinctKeys) {
  std::vector<driver::SchemeSpec> specs;
  specs.push_back(driver::SchemeSpec::baseline());
  specs.push_back(driver::SchemeSpec::wayMemoization());
  specs.push_back(driver::SchemeSpec::wayPrediction());
  specs.push_back(driver::SchemeSpec::wayPlacement(1024));
  specs.push_back(driver::SchemeSpec::wayPlacement(2048));

  {  // each ablation/extension knob on its own
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.intraline_skip = false;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayMemoization();
    s.wm_precise_invalidation = true;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::baseline();
    s.drowsy_window = 2048;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.layout = "random";
    specs.push_back(s);
  }

  // Fault schedules: period, seed and each class flag are key material.
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault = fault::FaultSpec::allClasses(101);
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault = fault::FaultSpec::allClasses(202);
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault = fault::FaultSpec::allClasses(101, 7);
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.period = 101;
    s.fault.flip_way_hint = true;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.period = 101;
    s.fault.resize_storm = true;
    specs.push_back(s);
  }

  // Cell-fault schedules (the supervision layer): kind and failure
  // count are key material, so a faulted cell never aliases the clean
  // one in the memo or the checkpoint journal.
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.cell_fault = fault::CellFault::kTransient;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.cell_fault = fault::CellFault::kTransient;
    s.fault.cell_fault_failures = 2;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.cell_fault = fault::CellFault::kPersistent;
    specs.push_back(s);
  }

  std::set<std::string> keys;
  for (const driver::SchemeSpec& s : specs) {
    keys.insert(driver::SweepExecutor::keyOf("crc", kXScale, s));
  }
  EXPECT_EQ(keys.size(), specs.size())
      << "two distinct SchemeSpecs collided on one memo key";

  // Workload and geometry are key material too.
  const driver::SchemeSpec base = driver::SchemeSpec::baseline();
  keys.insert(driver::SweepExecutor::keyOf("sha", kXScale, base));
  keys.insert(driver::SweepExecutor::keyOf(
      "crc", cache::CacheGeometry{16 * 1024, 32, 32}, base));
  keys.insert(driver::SweepExecutor::keyOf(
      "crc", cache::CacheGeometry{32 * 1024, 16, 32}, base));
  keys.insert(driver::SweepExecutor::keyOf(
      "crc", cache::CacheGeometry{32 * 1024, 32, 16}, base));
  EXPECT_EQ(keys.size(), specs.size() + 4);
}

// ---------------------------------------------------------------------
// Determinism: the same grid aggregated on 1 and on 4 threads must give
// bit-identical numbers (memoized cells + fixed aggregation order).

TEST(SweepExecutor, AggregationIsBitIdenticalAcrossJobCounts) {
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::SchemeSpec wm = driver::SchemeSpec::wayMemoization();
  const auto energy = [](const driver::Normalized& n) {
    return n.icache_energy;
  };
  const auto ed = [](const driver::Normalized& n) { return n.ed_product; };

  driver::SweepExecutor serial(fastSubset(), energy::EnergyParams{}, 0, 1);
  driver::SweepExecutor parallel(fastSubset(), energy::EnergyParams{}, 0, 4);
  EXPECT_EQ(serial.jobs(), 1u);
  EXPECT_EQ(parallel.jobs(), 4u);

  parallel.runAll({{kXScale, wp}, {kXScale, wm}});

  EXPECT_EQ(serial.averageNormalized(kXScale, wp, energy),
            parallel.averageNormalized(kXScale, wp, energy));
  EXPECT_EQ(serial.averageNormalized(kXScale, wm, energy),
            parallel.averageNormalized(kXScale, wm, energy));
  EXPECT_EQ(serial.averageNormalized(kXScale, wp, ed),
            parallel.averageNormalized(kXScale, wp, ed));

  // The memoized raw results are identical too, not just the averages.
  for (std::size_t i = 0; i < serial.prepared().size(); ++i) {
    const auto& ps = serial.prepared()[i];
    const auto& pp = parallel.prepared()[i];
    ASSERT_EQ(ps.name, pp.name) << "preparation order must be stable";
    const driver::RunResult& rs = serial.run(ps, kXScale, wp);
    const driver::RunResult& rp = parallel.run(pp, kXScale, wp);
    EXPECT_EQ(rs.stats.cycles, rp.stats.cycles);
    EXPECT_EQ(rs.stats.dataflow_hash, rp.stats.dataflow_hash);
    EXPECT_EQ(rs.output, rp.output);
  }
}

TEST(SweepExecutor, RunMemoizesAndReturnsStableReferences) {
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
  const auto& p = suite.prepared().at(0);
  const driver::RunResult& a =
      suite.run(p, kXScale, driver::SchemeSpec::baseline());
  const driver::RunResult& b =
      suite.run(p, kXScale, driver::SchemeSpec::baseline());
  EXPECT_EQ(&a, &b) << "second request must hit the memo";
}

// ---------------------------------------------------------------------
// JSON report round-trip.

// Minimal extraction of `"key": <number>` at/after `from`.
double jsonNumber(const std::string& json, const std::string& key,
                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << "missing JSON key " << key;
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

TEST(SweepExecutor, JsonReportRoundTripsCellMetrics) {
  driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0, 2);
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  suite.runAll({{kXScale, wp}});

  std::ostringstream os;
  suite.writeJsonReport(os);
  const std::string json = os.str();

  EXPECT_EQ(jsonNumber(json, "seed"), 0.0);
  EXPECT_EQ(jsonNumber(json, "jobs"), 2.0);
  EXPECT_GT(jsonNumber(json, "wall_seconds"), 0.0);
  EXPECT_EQ(jsonNumber(json, "workloads"), 2.0);

  // Each workload's cell carries exactly the normalized metrics the
  // tables are built from, at full precision. Search inside the cells
  // array — the prepare section also names every workload.
  const std::size_t cells_at = json.find("\"cells\": [");
  ASSERT_NE(cells_at, std::string::npos);
  for (const auto& p : suite.prepared()) {
    const driver::Normalized n = driver::normalize(
        suite.run(p, kXScale, wp),
        suite.run(p, kXScale, driver::SchemeSpec::baseline()), p.name);
    const std::size_t cell =
        json.find("\"workload\": \"" + p.name + "\"", cells_at);
    ASSERT_NE(cell, std::string::npos) << "no JSON cell for " << p.name;
    EXPECT_EQ(jsonNumber(json, "icache_energy", cell), n.icache_energy);
    EXPECT_EQ(jsonNumber(json, "total_energy", cell), n.total_energy);
    EXPECT_EQ(jsonNumber(json, "delay", cell), n.delay);
    EXPECT_EQ(jsonNumber(json, "ed_product", cell), n.ed_product);
    EXPECT_EQ(jsonNumber(json, "wp_area_bytes", cell), 16384.0);
  }

  // Baseline cells are not reported (they normalize to 1 by definition).
  EXPECT_EQ(json.find("\"scheme\": \"baseline\""), std::string::npos);
}

TEST(SweepExecutor, JsonReportCarriesObservabilityFields) {
  driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0, 2);
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  suite.runAll({{kXScale, wp}});

  std::ostringstream os;
  suite.writeJsonReport(os);
  const std::string json = os.str();

  // Host aggregate: guest instructions, simulate time, MIPS, memo stats
  // and the build→price phase breakdown.
  EXPECT_GT(jsonNumber(json, "guest_instructions"), 0.0);
  EXPECT_GT(jsonNumber(json, "simulate_seconds"), 0.0);
  EXPECT_GT(jsonNumber(json, "guest_mips"), 0.0);
  EXPECT_EQ(jsonNumber(json, "cells_computed"), 4.0)
      << "2 workloads x (baseline + way-placement)";
  const std::size_t phases = json.find("\"phase_seconds\"");
  ASSERT_NE(phases, std::string::npos);
  EXPECT_GE(jsonNumber(json, "build", phases), 0.0);
  EXPECT_GT(jsonNumber(json, "profile", phases), 0.0);
  EXPECT_GE(jsonNumber(json, "layout", phases), 0.0);
  EXPECT_GE(jsonNumber(json, "price", phases), 0.0);

  // Per-workload prepare records.
  const std::size_t prep = json.find("\"prepare\": [");
  ASSERT_NE(prep, std::string::npos);
  EXPECT_GT(jsonNumber(json, "profile_seconds", prep), 0.0);
  EXPECT_GT(jsonNumber(json, "profile_instructions", prep), 0.0);

  // Per-cell wall-clock, phase breakdown and guest throughput.
  const std::size_t cell = json.find("\"scheme\": \"way-placement\"");
  ASSERT_NE(cell, std::string::npos);
  EXPECT_GT(jsonNumber(json, "wall_seconds", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "simulate_seconds", cell), 0.0);
  EXPECT_GE(jsonNumber(json, "price_seconds", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "guest_mips", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "instructions", cell), 0.0);
  // Two pool workers: the computing worker is 0 or 1.
  EXPECT_GE(jsonNumber(json, "worker", cell), 0.0);
  EXPECT_LE(jsonNumber(json, "worker", cell), 1.0);

  // The LayoutReport ride-alongs: canonical strategy name, chains,
  // repairs, and the WP-area dynamic-instruction coverage.
  EXPECT_NE(json.find("\"layout\": \"way_placement\"", cell),
            std::string::npos);
  EXPECT_GT(jsonNumber(json, "layout_chains", cell), 0.0);
  EXPECT_GE(jsonNumber(json, "layout_repairs", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "wp_area_coverage", cell), 0.0);
  EXPECT_LE(jsonNumber(json, "wp_area_coverage", cell), 1.0);
}

TEST(SweepKey, LayoutStrategiesAreKeyMaterialAndAliasesCanonicalize) {
  driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
  std::set<std::string> keys;
  for (const layout::LayoutStrategy* strategy : layout::strategies()) {
    s.layout = strategy->name;
    keys.insert(driver::SweepExecutor::keyOf("crc", kXScale, s));
  }
  EXPECT_EQ(keys.size(), layout::strategies().size())
      << "two layout strategies collided on one memo key";

  // The legacy alias spelling memoizes to the same cell as the
  // canonical name — same image, same result, one simulation.
  s.layout = "way_placement";
  const std::string canonical =
      driver::SweepExecutor::keyOf("crc", kXScale, s);
  s.layout = "way-placement";
  EXPECT_EQ(driver::SweepExecutor::keyOf("crc", kXScale, s), canonical);

  // Parameter overrides are key material: a tuned spec must never
  // collide with the default-params cell it was derived from...
  s.layout = "way_placement{chain_hot_threshold=64}";
  EXPECT_NE(driver::SweepExecutor::keyOf("crc", kXScale, s), canonical);
  // ...but spelling out a registered default is the same experiment,
  // and any spelling of the same overrides normalizes to one key.
  s.layout = "way_placement{chain_hot_threshold=0}";
  EXPECT_EQ(driver::SweepExecutor::keyOf("crc", kXScale, s), canonical);
  s.layout = "exttsp{tsp_forward_weight=0.2,tsp_forward_bytes=512}";
  const std::string tuned = driver::SweepExecutor::keyOf("crc", kXScale, s);
  s.layout = "exttsp{tsp_forward_bytes=512,tsp_forward_weight=0.2}";
  EXPECT_EQ(driver::SweepExecutor::keyOf("crc", kXScale, s), tuned);
}

// ---------------------------------------------------------------------
// WP_TRACE: the JSONL event log records the sweep without changing it.

TEST(SweepTrace, WritesEventsAndDoesNotPerturbResults) {
  const std::string path = testing::TempDir() + "sweep_trace_test.jsonl";
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);

  u64 traced_cycles = 0;
  {
    ScopedEnv env("WP_TRACE", path.c_str());
    driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
    EXPECT_TRUE(suite.tracing());
    suite.runAll({{kXScale, wp}});
    traced_cycles = suite.run(suite.prepared().at(0), kXScale, wp)
                        .stats.cycles;
  }  // destructor writes sweep_end

  driver::SweepExecutor plain({"crc"}, energy::EnergyParams{}, 0, 2);
  EXPECT_FALSE(plain.tracing());
  plain.runAll({{kXScale, wp}});
  EXPECT_EQ(plain.run(plain.prepared().at(0), kXScale, wp).stats.cycles,
            traced_cycles)
      << "tracing must not perturb the simulated machine";

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::string line;
  std::vector<std::string> events;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const std::size_t ev = line.find("\"ev\": \"");
    ASSERT_NE(ev, std::string::npos) << line;
    events.push_back(line.substr(ev + 7, line.find('"', ev + 7) - (ev + 7)));
  }
  std::remove(path.c_str());

  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front(), "sweep_start");
  EXPECT_EQ(events.back(), "sweep_end");
  const auto count = [&events](const std::string& name) {
    return std::count(events.begin(), events.end(), name);
  };
  EXPECT_EQ(count("prepare"), 1);
  EXPECT_EQ(count("cell_start"), 2) << "baseline + way-placement";
  EXPECT_EQ(count("cell_end"), 2);
  EXPECT_GE(count("memo_hit"), 1) << "the explicit run() re-read a cell";
}

// ---------------------------------------------------------------------
// Shared execution: runAll prices the cells of one (workload, layout)
// from one guest execution. Every cell must still equal its solo
// Runner::run, keep its own memo entry and counter, fail alone, and
// replay from a warm store.

/// A Fig. 6-shaped grid on two geometries: way-memoization and three
/// way-placement areas per geometry, baselines implied.
std::vector<driver::SweepExecutor::Cell> fig6StyleGrid() {
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const cache::CacheGeometry& g :
       {cache::CacheGeometry{16 * 1024, 8, 32}, kXScale}) {
    grid.push_back({g, driver::SchemeSpec::wayMemoization()});
    for (const u32 kb : {16u, 4u, 1u}) {
      grid.push_back({g, driver::SchemeSpec::wayPlacement(kb * 1024)});
    }
  }
  return grid;
}

/// Distinct cells of fig6StyleGrid on fastSubset(): per workload and
/// geometry, one baseline plus four schemes.
constexpr u64 kFig6StyleCells = 2 * 2 * 5;

void expectSameResult(const driver::RunResult& a, const driver::RunResult& b) {
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.energy.icacheTotal(), b.energy.icacheTotal());
  EXPECT_EQ(a.energy.itlb, b.energy.itlb);
  EXPECT_EQ(a.energy.core, b.energy.core);
  EXPECT_EQ(a.energy.memory, b.energy.memory);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.layout_strategy, b.layout_strategy);
  EXPECT_EQ(a.layout_chains, b.layout_chains);
  EXPECT_EQ(a.layout_repairs, b.layout_repairs);
  EXPECT_EQ(a.wp_area_coverage, b.wp_area_coverage);
  // The digest the store and journal verify covers all of the above.
  EXPECT_EQ(driver::statsDigest(a), driver::statsDigest(b));
}

TEST(SweepSharedExecution, GroupedCellsEqualRunnerRunAtOneAndFourJobs) {
  const std::vector<driver::SweepExecutor::Cell> grid = fig6StyleGrid();
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0,
                                jobs);
    suite.runAll(grid);
    EXPECT_EQ(suite.metrics().counter("cells.computed").value(),
              kFig6StyleCells);
    EXPECT_EQ(suite.metrics().counter("cells.shared").value(),
              kFig6StyleCells)
        << "every cell of this grid runs as a lane of a group";
    EXPECT_GE(suite.metrics().counter("exec_groups").value(), 4u)
        << "at least one execution per (workload, image)";
    for (const driver::PreparedWorkload& p : suite.prepared()) {
      for (const driver::SweepExecutor::Cell& cell : grid) {
        for (const driver::SchemeSpec& spec :
             {driver::SchemeSpec::baseline(), cell.spec}) {
          SCOPED_TRACE(driver::SweepExecutor::keyOf(p.name, cell.icache, spec));
          const auto view = suite.tryRun(p, cell.icache, spec);
          ASSERT_NE(view.result, nullptr);
          EXPECT_EQ(view.attempts, 1u);
          expectSameResult(*view.result,
                           suite.runner().run(p, cell.icache, spec));
        }
      }
    }
    EXPECT_EQ(suite.metrics().counter("cells.computed").value(),
              kFig6StyleCells)
        << "reading the grid back computes nothing";
  }
}

TEST(SweepSharedExecution, ComputesEachDistinctCellOnceAtOneAndFourJobs) {
  // The grid twice over, in one call and then again: duplicates and
  // already-settled cells are memo hits, never a second compute.
  std::vector<driver::SweepExecutor::Cell> grid = fig6StyleGrid();
  const std::vector<driver::SweepExecutor::Cell> once = grid;
  grid.insert(grid.end(), once.begin(), once.end());
  const u64 requests = 2 * fastSubset().size() * grid.size();
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0,
                                jobs);
    suite.runAll(grid);
    EXPECT_EQ(suite.metrics().counter("cells.computed").value(),
              kFig6StyleCells);
    EXPECT_EQ(suite.metrics().counter("memo.hits").value(),
              requests - kFig6StyleCells);
    suite.runAll(once);
    EXPECT_EQ(suite.metrics().counter("cells.computed").value(),
              kFig6StyleCells);
  }
}

TEST(SweepSharedExecution, OnlyTheFailingCellsQuarantineInAMixedGrid) {
  // Clean cells share executions; a spec-level persistent cell fault
  // and a drowsy cell run solo beside them. A way-placement area that
  // is not a whole number of pages is groupable but fails in Runner,
  // so its whole way-placed group throws and every member falls back
  // to the solo ladder. Each failure must cost its own cell alone, and
  // every neighbour must equal its solo result.
  const cache::CacheGeometry g16{16 * 1024, 8, 32};
  driver::SchemeSpec faulted = driver::SchemeSpec::wayPlacement(4 * 1024);
  faulted.fault.cell_fault = fault::CellFault::kPersistent;
  driver::SchemeSpec drowsy = driver::SchemeSpec::wayMemoization();
  drowsy.drowsy_window = 256;
  const driver::SchemeSpec bad_area = driver::SchemeSpec::wayPlacement(1536);
  const std::vector<driver::SweepExecutor::Cell> grid = {
      {kXScale, driver::SchemeSpec::wayMemoization()},
      {kXScale, driver::SchemeSpec::wayPlacement(4 * 1024)},
      {kXScale, faulted},
      {kXScale, drowsy},
      {kXScale, driver::SchemeSpec::wayPlacement(1024)},
      {kXScale, bad_area},
      {g16, driver::SchemeSpec::wayPlacement(4 * 1024)},
  };
  driver::SupervisorConfig sc;
  sc.retries = 1;
  driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0, 2,
                              &sc);
  suite.runAll(grid);

  const std::vector<driver::SweepExecutor::QuarantinedCell> quar =
      suite.quarantined();
  ASSERT_EQ(quar.size(), 2 * fastSubset().size())
      << "the faulted and the bad-area cell of each workload";
  for (const driver::PreparedWorkload& p : suite.prepared()) {
    for (const driver::SweepExecutor::Cell& cell : grid) {
      for (const driver::SchemeSpec& spec :
           {driver::SchemeSpec::baseline(), cell.spec}) {
        const std::string key =
            driver::SweepExecutor::keyOf(p.name, cell.icache, spec);
        SCOPED_TRACE(key);
        const auto view = suite.tryRun(p, cell.icache, spec);
        if (spec.fault.cellFaultEnabled() || spec.wp_area_bytes == 1536) {
          EXPECT_TRUE(view.quarantined);
          EXPECT_EQ(view.attempts, 2u) << "the solo ladder ran in full";
          continue;
        }
        ASSERT_FALSE(view.quarantined);
        expectSameResult(*view.result,
                         suite.runner().run(p, cell.icache, spec));
      }
    }
  }
  EXPECT_EQ(suite.metrics().counter("exec_groups.failed").value(),
            fastSubset().size())
      << "the way-placed group of each workload failed once";
  EXPECT_EQ(suite.metrics().counter("cells.shared").value(),
            fastSubset().size() * 3)
      << "per workload, only the original image's group (two baselines "
         "and way-memoization) shared an execution";
}

TEST(SweepSharedExecution, WarmStoreReplaysAGroupedSweepComputingNothing) {
  const std::string dir = testing::TempDir() + "sweep_shared_store";
  std::filesystem::remove_all(dir);
  ScopedEnv env("WP_STORE", dir.c_str());
  const std::vector<driver::SweepExecutor::Cell> grid = fig6StyleGrid();
  const auto energy = [](const driver::Normalized& n) {
    return n.icache_energy;
  };
  std::vector<double> cold_means;
  {
    driver::SweepExecutor cold(fastSubset(), energy::EnergyParams{}, 0, 2);
    cold.runAll(grid);
    EXPECT_EQ(cold.metrics().counter("cells.computed").value(),
              kFig6StyleCells);
    EXPECT_EQ(cold.metrics().counter("cells.shared").value(), kFig6StyleCells);
    EXPECT_EQ(cold.metrics().counter("store.records_written").value(),
              kFig6StyleCells);
    for (const auto& cell : grid) {
      cold_means.push_back(cold.averageNormalized(cell.icache, cell.spec,
                                                  energy));
    }
  }
  driver::SweepExecutor warm(fastSubset(), energy::EnergyParams{}, 0, 2);
  warm.runAll(grid);
  EXPECT_EQ(warm.metrics().counter("cells.computed").value(), 0u);
  EXPECT_EQ(warm.metrics().counter("exec_groups").value(), 0u);
  EXPECT_EQ(warm.metrics().counter("cells.from_store").value(),
            kFig6StyleCells);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(warm.averageNormalized(grid[i].icache, grid[i].spec, energy),
              cold_means[i]);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Fail-loud report paths: a requested artifact that cannot be produced
// exits with a message naming the knob, instead of silently vanishing.

using SweepReportDeathTest = ::testing::Test;

TEST(SweepReportDeathTest, UnwritableJsonPathExitsNamingWpJson) {
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
  ScopedEnv env("WP_JSON", "/nonexistent-dir-zzz/report.json");
  EXPECT_EXIT(suite.emitJsonIfRequested(), testing::ExitedWithCode(1),
              "WP_JSON.*cannot open");
}

TEST(SweepReportDeathTest, UnwritableTracePathExitsNamingWpTrace) {
  ScopedEnv env("WP_TRACE", "/nonexistent-dir-zzz/trace.jsonl");
  EXPECT_EXIT(
      driver::SweepExecutor({"crc"}, energy::EnergyParams{}, 0, 1),
      testing::ExitedWithCode(1), "WP_TRACE.*cannot open");
}

TEST(SweepReportDeathTest, UnwritableCheckpointPathExitsNamingKnob) {
  ScopedEnv env("WP_CHECKPOINT", "/nonexistent-dir-zzz/journal.jsonl");
  EXPECT_EXIT(
      driver::SweepExecutor({"crc"}, energy::EnergyParams{}, 0, 1),
      testing::ExitedWithCode(1), "WP_CHECKPOINT.*cannot open");
}

// ---------------------------------------------------------------------
// Strict supervision knobs: garbage exits 1 naming the knob, never a
// silent default (same policy as WP_JOBS/WP_SEED).

using SupervisorEnvDeathTest = ::testing::Test;

TEST(SupervisorEnvDeathTest, GarbageRetriesExits) {
  ScopedEnv env("WP_RETRIES", "abc");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_RETRIES");
}

TEST(SupervisorEnvDeathTest, OutOfRangeRetriesExits) {
  ScopedEnv env("WP_RETRIES", "101");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_RETRIES");
}

TEST(SupervisorEnvDeathTest, GarbageTimeoutExits) {
  ScopedEnv env("WP_CELL_TIMEOUT_MS", "50ms");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_TIMEOUT_MS");
}

TEST(SupervisorEnvDeathTest, NegativeTimeoutExits) {
  ScopedEnv env("WP_CELL_TIMEOUT_MS", "-5");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_TIMEOUT_MS");
}

TEST(SupervisorEnvDeathTest, GarbageCellFaultExits) {
  ScopedEnv env("WP_CELL_FAULT", "flaky");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_FAULT");
}

TEST(SupervisorEnvDeathTest, ZeroTransientFailureCountExits) {
  ScopedEnv env("WP_CELL_FAULT", "transient:0");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_FAULT.*failure count");
}

TEST(SupervisorEnvDeathTest, ExecutorParsesKnobsBeforePreparing) {
  // The parse happens in the constructor, before any expensive work.
  ScopedEnv env("WP_RETRIES", "not-a-number");
  EXPECT_EXIT(driver::SweepExecutor({"crc"}, energy::EnergyParams{}, 0, 1),
              testing::ExitedWithCode(1), "WP_RETRIES");
}

}  // namespace
}  // namespace wp
