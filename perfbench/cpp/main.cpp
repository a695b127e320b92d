// perfbench: one run of one benchmark workload.
//
//   perfbench --workload fig6_sweep|serve_cold|serve_warm --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --workdir DIR
//             [--commit ID]
//
// With --trace 0 the workload runs and the last stdout line carries its
// end-to-end metrics; with --trace 1 the layer ledger runs instead (see
// ledger.cpp) and that line carries the per-layer metrics. Earlier
// stdout lines start with "# ": the host stamp first, then notes.
// Exit 0 with a result line; exit 2 without one when the run could not
// be carried out.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "driver/runner.hpp"
#include "util.hpp"

extern char** environ;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --workdir DIR [--commit ID]\n");
  return 2;
}

/// Drops every WP_* knob, so no setting of the caller's environment
/// reaches the executors built in this process.
void clearKnobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WP_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

/// Pins this process, and with it every thread and daemon it starts, to
/// the highest-numbered CPU it may use; returns that CPU (-1 when the
/// affinity cannot be read). Request hand-offs between the client, the
/// daemon's poll thread and its worker then stay on one CPU instead of
/// waking an idle vCPU, whose wake-up latency dominates the warm tail.
int pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string hostStamp(const perfbench::Options& opt, const std::string& commit,
                      int cpu) {
  const wp::driver::Runner runner;
  return std::string("host {\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + PERFBENCH_COMPILER + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"engine\": \"" +
         wp::sim::engineName(runner.engine()) +
         "\", \"wp_jobs\": 1, \"pinned_cpu\": " + std::to_string(cpu) +
         ", \"workload\": \"" + opt.workload +
         "\", \"workload_seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + perfbench::g17(opt.seconds) +
         ", \"trace\": " + (opt.trace ? "1" : "0") + ", \"commit\": \"" +
         commit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  const int cpu = pinToOneCpu();
  clearKnobs();
  perfbench::Options opt;
  std::string commit = "unknown";
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value;
    } else if (key == "--serve-bin") {
      opt.serve_bin = value;
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || (trace != "0" && trace != "1") || opt.seconds <= 0 ||
      opt.serve_bin.empty() || opt.workdir.empty()) {
    return usage();
  }
  opt.trace = trace == "1";

  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "fig6_sweep") run = perfbench::runFig6Sweep;
  if (opt.workload == "serve_cold") run = perfbench::runServeCold;
  if (opt.workload == "serve_warm") run = perfbench::runServeWarm;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (expected "
                 "fig6_sweep, serve_cold or serve_warm)\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.trace) run = perfbench::runLedger;

  std::printf("# %s\n", hostStamp(opt, commit, cpu).c_str());
  std::fflush(stdout);
  perfbench::makeDirs(opt.workdir);
  run(opt).print();
  return 0;
}
