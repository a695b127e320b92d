// Interpreter-vs-block-engine equivalence: the block engine is a host
// optimisation, never a model change. Over the full workload suite the
// two engines must agree on the retired instruction stream, the data
// flow, the workload output and every RunStats counter (statsDigest
// also folds in the priced energy and layout ride-alongs), plus the
// strict WP_ENGINE parse and the engine field of the WP_JSON report.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/sweep.hpp"
#include "workloads/workload.hpp"

namespace wp {
namespace {

const cache::CacheGeometry kXScale{32 * 1024, 32, 32};

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

TEST(EngineKnob, DefaultsToBlock) {
  ScopedEnv env("WP_ENGINE", "");
  EXPECT_EQ(driver::engineFromEnv(), sim::Engine::kBlock);
}

TEST(EngineKnob, ParsesBothEngines) {
  {
    ScopedEnv env("WP_ENGINE", "interp");
    EXPECT_EQ(driver::engineFromEnv(), sim::Engine::kInterp);
  }
  {
    ScopedEnv env("WP_ENGINE", "block");
    EXPECT_EQ(driver::engineFromEnv(), sim::Engine::kBlock);
  }
}

TEST(EngineKnob, GarbageIsAStartupErrorNotASilentDefault) {
  ScopedEnv env("WP_ENGINE", "fast");
  EXPECT_EXIT((void)driver::engineFromEnv(), testing::ExitedWithCode(1),
              "WP_ENGINE.*not a valid simulation engine");
}

TEST(EngineKnob, RunnerCapturesTheEngineAtConstruction) {
  ScopedEnv env("WP_ENGINE", "interp");
  driver::Runner runner;
  EXPECT_EQ(runner.engine(), sim::Engine::kInterp);
  EXPECT_EQ(runner.machineFor(kXScale, driver::SchemeSpec::baseline()).engine,
            sim::Engine::kInterp);
}

TEST(EngineJson, ReportNamesTheEngine) {
  ScopedEnv env("WP_ENGINE", "interp");
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
  (void)suite.averageNormalized(
      kXScale, driver::SchemeSpec::wayPlacement(16 * 1024),
      [](const driver::Normalized& n) { return n.icache_energy; });
  std::ostringstream os;
  suite.writeJsonReport(os);
  EXPECT_NE(os.str().find("\"engine\": \"interp\""), std::string::npos);
}

// ---------------------------------------------------------------------
// The property test: every workload in the suite, every scheme,
// identical results.

TEST(EngineEquivalence, AllWorkloadsIdenticalAcrossEngines) {
  ScopedEnv interp_env("WP_ENGINE", "interp");
  driver::Runner interp_runner;
  ScopedEnv block_env("WP_ENGINE", "block");
  driver::Runner block_runner;
  ASSERT_EQ(interp_runner.engine(), sim::Engine::kInterp);
  ASSERT_EQ(block_runner.engine(), sim::Engine::kBlock);

  // All four schemes: way placement exercises the richest fetch path
  // (hint, TLB WP bit, single-way lookups, intra-line skips), way
  // memoization the link/flash-clear machinery, way prediction the
  // per-set MRU batching, and the baseline the plain path. One
  // prepared workload is shared per name, so any divergence is the
  // engine's, not the build's.
  const driver::SchemeSpec specs[] = {
      driver::SchemeSpec::baseline(),
      driver::SchemeSpec::wayPlacement(16 * 1024),
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPrediction(),
  };
  for (const std::string& name : workloads::suiteNames()) {
    SCOPED_TRACE(name);
    const driver::PreparedWorkload p = block_runner.prepare(name);
    for (const driver::SchemeSpec& spec : specs) {
      SCOPED_TRACE(cache::schemeName(spec.scheme));
      const driver::RunResult interp = interp_runner.run(p, kXScale, spec);
      const driver::RunResult block = block_runner.run(p, kXScale, spec);
      EXPECT_EQ(interp.stats.retired_pc_hash, block.stats.retired_pc_hash);
      EXPECT_EQ(interp.stats.dataflow_hash, block.stats.dataflow_hash);
      EXPECT_EQ(interp.stats.instructions, block.stats.instructions);
      EXPECT_EQ(interp.stats.cycles, block.stats.cycles);
      EXPECT_EQ(interp.output, block.output);
      EXPECT_EQ(interp.output,
                p.workload->expected(workloads::InputSize::kLarge));
      // Full RunStats + energy + layout ride-alongs, in one digest.
      EXPECT_EQ(driver::statsDigest(interp), driver::statsDigest(block));
    }
  }
}

// ---------------------------------------------------------------------
// Execute once, price many: a multi-lane Processor drives every lane
// from one execution, and each lane must equal a solo Processor::run of
// its configuration, field for field, under both engines. Under the
// block engine each lane is also checked against a solo interpreter
// run, the reference oracle.

void expectLanesMatchSoloRuns(sim::Engine engine) {
  // The second geometry has shorter lines, so the block engine batches
  // by the smallest line of the group and the 32 B lanes see their
  // lines entered in halves. The third misses often, so the lanes'
  // fetch cycles diverge and their timing classes split and merge.
  const cache::CacheGeometry geometries[] = {
      kXScale, {4 * 1024, 4, 16}, {1024, 32, 2}};
  const struct {
    cache::Scheme scheme;
    u32 wp_area;
  } schemes[] = {
      {cache::Scheme::kBaseline, 0},
      {cache::Scheme::kWayMemoization, 0},
      {cache::Scheme::kWayPlacement, 4 * 1024},
      {cache::Scheme::kWayPlacement, 1024},
  };
  const driver::Runner runner;
  for (const std::string& name : workloads::suiteNames()) {
    SCOPED_TRACE(name);
    const driver::PreparedWorkload p = runner.prepare(name);
    for (const char* layout : {"original", "way_placement"}) {
      SCOPED_TRACE(layout);
      const mem::Image& image = p.imageFor(layout);
      sim::MachineConfig shared = sim::baselineMachine();
      shared.engine = engine;
      std::vector<cache::FetchPathConfig> lanes;
      for (const cache::CacheGeometry& g : geometries) {
        for (const auto& s : schemes) {
          cache::FetchPathConfig f = shared.fetch;
          f.icache = g;
          f.scheme = s.scheme;
          f.wp_area_bytes = s.wp_area;
          lanes.push_back(f);
        }
      }
      // The small input keeps the 23 x 2 x 2 x 13 runs (x 25 under the
      // block engine) quick; every workload still runs its whole
      // program.
      const auto freshMemory = [&] {
        auto memory = std::make_unique<mem::Memory>();
        image.loadInto(*memory);
        p.workload->prepare(*memory, workloads::InputSize::kSmall);
        return memory;
      };
      const auto group_memory = freshMemory();
      sim::Processor group(shared, lanes, image, *group_memory);
      const std::vector<sim::RunStats> grouped = group.runLanes();
      ASSERT_EQ(grouped.size(), lanes.size());
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        SCOPED_TRACE(i);
        sim::MachineConfig solo_config = shared;
        solo_config.fetch = lanes[i];
        const auto solo_memory = freshMemory();
        sim::Processor solo(solo_config, image, *solo_memory);
        EXPECT_TRUE(solo.run() == grouped[i])
            << "lane " << i << " differs from its solo run";
        if (engine == sim::Engine::kBlock) {
          solo_config.engine = sim::Engine::kInterp;
          const auto oracle_memory = freshMemory();
          sim::Processor oracle(solo_config, image, *oracle_memory);
          EXPECT_TRUE(oracle.run() == grouped[i])
              << "lane " << i << " differs from its solo interpreter run";
        }
      }
      EXPECT_EQ(p.workload->output(*group_memory),
                p.workload->expected(workloads::InputSize::kSmall));
    }
  }
}

TEST(EngineEquivalence, SharedExecutionLanesMatchSoloRunsUnderInterp) {
  expectLanesMatchSoloRuns(sim::Engine::kInterp);
}

TEST(EngineEquivalence, SharedExecutionLanesMatchSoloRunsUnderBlock) {
  expectLanesMatchSoloRuns(sim::Engine::kBlock);
}

}  // namespace
}  // namespace wp
