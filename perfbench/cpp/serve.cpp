// serve_cold and serve_warm: a wp_serve daemon over the full suite,
// driven by one closed-loop client connection.
//
// serve_cold sends distinct eval requests to a daemon on a fresh store,
// so each request computes one cell, publishes it and then replies.
// serve_warm first fills a store with a fixed set of cells, then starts
// a fresh daemon on it and cycles over those cells: the first request
// for a cell reads the store, every later one hits the memo.
#include "serve.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "driver/sweep.hpp"
#include "layout/strategy.hpp"
#include "percentile.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using wp::driver::SchemeSpec;

/// Daemon launches behind setup_s (the median is reported).
constexpr int kSetupRepeats = 7;
/// Host seconds of one serve_cold round (23 workloads x 4 cells) on the
/// reference host; --seconds becomes whole rounds with it.
constexpr double kColdRoundSeconds = 10.5;
/// Warm replies per second on the reference host; --seconds becomes
/// whole cycles over the warm set with it.
constexpr double kWarmRequestsPerSecond = 28000.0;
/// Workloads in the warm set (4 cells each).
constexpr std::size_t kWarmWorkloads = 6;
/// serve_cold replies re-derived in process by the correctness check.
constexpr std::size_t kColdSample = 8;

/// Parameterized layout specs, in the spirit of the Codestitcher-style
/// candidates the autotuner prices.
const std::vector<std::string>& layoutSpecs() {
  static const std::vector<std::string> specs = {
      "call_distance{call_reach_bytes=1024}",
      "call_distance{call_reach_bytes=2048}",
      "call_distance{call_reach_bytes=8192}",
      "call_distance{call_reach_bytes=16384}",
      "way_placement{chain_hot_threshold=1000}",
      "exttsp{tsp_forward_bytes=512}",
  };
  return specs;
}

std::string evalLine(const EvalRequest& r) {
  std::string line = "{\"op\": \"eval\", \"workload\": \"" + r.workload +
                     "\", \"icache_kb\": " +
                     std::to_string(r.icache.size_bytes / 1024) +
                     ", \"ways\": " + std::to_string(r.icache.ways) +
                     ", \"line_bytes\": " +
                     std::to_string(r.icache.line_bytes) +
                     ", \"scheme\": \"" + wp::cache::schemeName(r.spec.scheme) +
                     "\"";
  if (r.spec.scheme == wp::cache::Scheme::kWayPlacement) {
    line += ", \"wp_kb\": " + std::to_string(r.spec.wp_area_bytes / 1024) +
            ", \"layout\": \"" + r.spec.layout + "\"";
  }
  return line + "}";
}

/// The four requests of one (workload, geometry): the baseline first,
/// so that each later request computes exactly its own cell.
void pushCellGroup(std::vector<EvalRequest>& out, const std::string& w,
                   const wp::cache::CacheGeometry& g, Rng& rng) {
  const auto area = [&] {
    return kFig6AreasKb[rng.below(std::size(kFig6AreasKb))];
  };
  const u32 a1 = area();
  const u32 a2 = area();
  const std::string& spec = layoutSpecs()[rng.below(layoutSpecs().size())];
  for (const SchemeSpec& s :
       {baselineSpec(), wayMemoSpec(),
        wayPlaceSpec(a1, wp::layout::defaultStrategyName()),
        wayPlaceSpec(a2, spec)}) {
    EvalRequest r{w, g, s, ""};
    r.line = evalLine(r);
    out.push_back(std::move(r));
  }
}

struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double client_cpu_s = 0.0;  ///< this process, sharing the daemon's CPU
  double peak_rss_mb = 0.0;
  std::size_t requests = 0;
  std::vector<double> rtt_s;
  std::vector<std::string> replies;  ///< kept when no expected replies given
  std::size_t differing = 0;         ///< replies unlike the expected ones
  std::size_t unserved = 0;          ///< ... whose fate is not "served"
  Fields stats_before, stats_after;
};

/// The timed phase: @p order indexes @p plan; one request in flight.
/// With @p expected, each reply is compared with expected[i] as it
/// arrives instead of being kept.
Timed drive(Daemon& d, const std::vector<EvalRequest>& plan,
            const std::vector<std::size_t>& order,
            const std::vector<std::string>* expected = nullptr) {
  Timed t;
  t.requests = order.size();
  t.rtt_s.reserve(order.size());
  if (expected == nullptr) t.replies.reserve(order.size());
  // The client shares the daemon's CPU, so its per-request work is kept
  // to the exchange itself, two clock reads and one compare.
  std::vector<std::string> framed;
  framed.reserve(plan.size());
  for (const EvalRequest& r : plan) framed.push_back(r.line + "\n");
  std::string reply;
  reply.reserve(4096);
  t.stats_before = daemonStats(d);
  const ProcUsage u0 = procUsage(d.pid());
  const ProcUsage c0 = procUsage();
  const double start = wallNow();
  for (const std::size_t i : order) {
    const double t0 = wallNow();
    d.exchange(framed[i], reply);
    t.rtt_s.push_back(wallNow() - t0);
    if (expected == nullptr) {
      t.replies.push_back(reply);
    } else if (reply != (*expected)[i]) {
      ++t.differing;
      if (parseReply(reply)["fate"] != "served") ++t.unserved;
    }
  }
  t.wall_s = wallNow() - start;
  t.client_cpu_s = procUsage().cpu_s - c0.cpu_s;
  const ProcUsage u1 = procUsage(d.pid());
  t.cpu_s = u1.cpu_s - u0.cpu_s;
  t.peak_rss_mb = u1.peak_rss_mb;
  t.stats_after = daemonStats(d);
  return t;
}

u64 counterDelta(const Timed& t, const std::string& key) {
  return fieldU64(t.stats_after, key) - fieldU64(t.stats_before, key);
}

/// Starts kSetupRepeats daemons on @p store; returns the last one
/// running, with the median launch-to-health time in @p setup_s.
std::unique_ptr<Daemon> startDaemons(const Options& opt,
                                     const std::string& dir,
                                     const std::string& store,
                                     double& setup_s) {
  std::vector<double> setups;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (d && !d->drain()) die("a set-up daemon did not drain cleanly");
    d = std::make_unique<Daemon>(opt, dir + "/d" + std::to_string(i), store);
    setups.push_back(d->launchToHealthSeconds());
  }
  setup_s = median(setups);
  return d;
}

void addMetrics(Report& rep, double setup_s, const Timed& t) {
  rep.add("setup_s", setup_s, "s");
  rep.add("wall_s", t.wall_s, "s");
  rep.add("cpu_s", t.cpu_s, "s");
  rep.add("cells_per_s", static_cast<double>(t.requests) / t.wall_s,
          "1/s");
  rep.add("peak_rss_mb", t.peak_rss_mb, "MiB");
}

std::string latencyNote(const std::string& name, const Timed& t) {
  const Tail tail = tailOf(t.rtt_s);
  return name + ": " + std::to_string(t.requests) +
         " requests, req_per_s " +
         g17(static_cast<double>(t.requests) / t.wall_s) +
         ", req_ms_p50 " + g17(median(t.rtt_s) * 1e3) + ", p" +
         pct(tail.percentile) + " " + g17(tail.value * 1e3) + " ms (" +
         std::to_string(tail.samples) + " samples), client cpu_s " +
         g17(t.client_cpu_s);
}

/// Re-derives a served eval reply in this process: Runner::run of the
/// cell and its baseline, normalize, and the guest output against the
/// workload's host reference.
void checkInProcess(const EvalRequest& r,
                    const std::string& reply,
                    std::map<std::string, wp::driver::PreparedWorkload>& cache,
                    const wp::driver::Runner& runner, Report& rep) {
  auto it = cache.find(r.workload);
  if (it == cache.end()) {
    it = cache.emplace(r.workload, runner.prepare(r.workload)).first;
  }
  const wp::driver::PreparedWorkload& p = it->second;
  const wp::driver::RunResult base = runner.run(p, r.icache, baselineSpec());
  const wp::driver::RunResult cell =
      r.spec.scheme == wp::cache::Scheme::kBaseline
          ? base
          : runner.run(p, r.icache, r.spec);
  const wp::driver::Normalized n =
      wp::driver::normalize(cell, base, r.workload);
  const Fields f = parseReply(reply);
  const auto same = [&](const char* key, const std::string& want) {
    const auto got = f.find(key);
    if (got == f.end() || got->second != want) {
      rep.fail(r.line + ": reply field " + key + " is not " + want);
    }
  };
  same("icache_energy", g17(n.icache_energy));
  same("total_energy", g17(n.total_energy));
  same("delay", g17(n.delay));
  same("ed_product", g17(n.ed_product));
  same("cycles", std::to_string(cell.stats.cycles));
  same("instructions", std::to_string(cell.stats.instructions));
  if (cell.output != p.workload->expected(wp::workloads::InputSize::kLarge)) {
    rep.fail(r.line + ": in-process guest output differs from the reference");
  }
}

}  // namespace

std::vector<EvalRequest> coldPlan(u64 seed, int rounds) {
  const std::vector<std::string>& suite = wp::workloads::suiteNames();
  const auto& geoms = fig6Geometries();
  rounds = std::clamp(rounds, 1, static_cast<int>(geoms.size()));
  Rng rng(seed);
  // Each workload meets a geometry at most once, so every round's
  // baselines are new cells too.
  std::map<std::string, std::vector<std::size_t>> geometry_order;
  for (const std::string& w : suite) {
    std::vector<std::size_t> perm(geoms.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.shuffle(perm);
    geometry_order[w] = perm;
  }
  std::vector<EvalRequest> plan;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::string> order = suite;
    rng.shuffle(order);
    for (const std::string& w : order) {
      pushCellGroup(plan, w, geoms[geometry_order[w][r]], rng);
    }
  }
  return plan;
}

std::vector<EvalRequest> warmSet(u64 seed) {
  // Every fourth workload of the suite, so that the daemon's memory and
  // the set-up's cost do not hinge on which workloads a seed draws.
  const std::vector<std::string>& suite = wp::workloads::suiteNames();
  const auto& geoms = fig6Geometries();
  Rng rng(seed ^ 0x77a7e5e7ULL);
  std::vector<EvalRequest> set;
  for (std::size_t i = 0; i < kWarmWorkloads; ++i) {
    pushCellGroup(set, suite[i * 4], geoms[rng.below(geoms.size())], rng);
  }
  return set;
}

int coldRounds(double seconds) {
  return std::max(1,
                  static_cast<int>(std::lround(seconds / kColdRoundSeconds)));
}

Report runServeCold(const Options& opt) {
  Report rep;
  const std::string dir = opt.workdir + "/serve_cold";
  removeTree(dir);
  const std::vector<EvalRequest> plan =
      coldPlan(opt.seed, coldRounds(opt.seconds));

  // "store" is relative to each daemon's own directory: every set-up
  // daemon starts on a fresh store, and the last one serves.
  double setup_s = 0.0;
  std::unique_ptr<Daemon> d = startDaemons(opt, dir, "store", setup_s);

  std::vector<std::size_t> order(plan.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const Timed t = drive(*d, plan, order);
  if (!d->drain()) rep.fail("the daemon did not drain cleanly");
  d.reset();

  u64 instructions = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++rep.attempted;
    const Fields f = parseReply(t.replies[i]);
    const auto fate = f.find("fate");
    if (fate == f.end() || fate->second != "served") {
      ++rep.failed;
      continue;
    }
    instructions += fieldU64(f, "instructions");
    const std::string key = wp::driver::SweepExecutor::keyOf(
        plan[i].workload, plan[i].icache, plan[i].spec);
    if (f.count("key") == 0 || f.at("key") != key) {
      rep.fail(plan[i].line + ": reply names another cell");
    }
  }
  const u64 computed = counterDelta(t, "cells_computed");
  if (computed != plan.size()) {
    rep.fail("the daemon computed " + std::to_string(computed) + " cells for " +
             std::to_string(plan.size()) + " distinct requests");
  }

  // A seeded sample of replies, recomputed here.
  const wp::driver::Runner runner(wp::energy::EnergyParams{}, opt.seed);
  std::map<std::string, wp::driver::PreparedWorkload> prepared;
  std::vector<std::size_t> sample = order;
  Rng rng(opt.seed ^ 0xc01dc0deULL);
  rng.shuffle(sample);
  sample.resize(std::min(sample.size(), kColdSample));
  for (const std::size_t i : sample) {
    if (parseReply(t.replies[i])["fate"] == "served") {
      checkInProcess(plan[i], t.replies[i], prepared, runner, rep);
    }
  }
  removeTree(dir);

  addMetrics(rep, setup_s, t);
  // Round by round, so a slow stretch of the host shows as one slow
  // round rather than only as a slower run.
  std::string rounds_note;
  const std::size_t per_round = 4 * wp::workloads::suiteNames().size();
  for (std::size_t r0 = 0; r0 < plan.size(); r0 += per_round) {
    double sum = 0.0;
    for (std::size_t i = r0; i < r0 + per_round; ++i) sum += t.rtt_s[i];
    rounds_note += " " + g17(sum);
  }
  rep.notes.push_back("serve_cold round seconds:" + rounds_note);
  rep.notes.push_back(latencyNote("serve_cold", t) + ", cells computed " +
                      std::to_string(computed) + ", guest_mips " +
                      g17(static_cast<double>(instructions) / t.wall_s / 1e6));
  return rep;
}

Report runServeWarm(const Options& opt) {
  Report rep;
  const std::string dir = opt.workdir + "/serve_warm";
  removeTree(dir);
  const std::vector<EvalRequest> set = warmSet(opt.seed);

  // Set-up 1: a first daemon computes the warm set into the store.
  std::vector<std::string> expected;
  {
    Daemon first(opt, dir + "/fill", "../store");
    for (const EvalRequest& r : set) {
      expected.push_back(first.request(r.line));
      if (parseReply(expected.back())["fate"] != "served") {
        die("set-up could not compute " + r.line + ": " + expected.back());
      }
    }
    if (!first.drain()) die("the filling daemon did not drain cleanly");
  }
  // Set-up 2: fresh daemons with the same settings start on that store.
  double setup_s = 0.0;
  std::unique_ptr<Daemon> d = startDaemons(opt, dir, "../store", setup_s);

  const auto cycles = static_cast<std::size_t>(std::max(
      1.0, std::round(opt.seconds * kWarmRequestsPerSecond /
                      static_cast<double>(set.size()))));
  std::vector<std::size_t> cycle(set.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
  Rng rng(opt.seed ^ 0x3a3a3a3aULL);
  rng.shuffle(cycle);
  std::vector<std::size_t> order;
  order.reserve(cycles * cycle.size());
  for (std::size_t c = 0; c < cycles; ++c) {
    order.insert(order.end(), cycle.begin(), cycle.end());
  }
  const Timed t = drive(*d, set, order, &expected);
  if (!d->drain()) rep.fail("the daemon did not drain cleanly");
  d.reset();

  rep.attempted = t.requests;
  rep.failed = t.unserved;
  if (t.differing > 0) {
    rep.fail(std::to_string(t.differing) +
             " warm replies differ from the replies set-up received");
  }
  const u64 computed = counterDelta(t, "cells_computed");
  const u64 from_store = counterDelta(t, "cells_from_store");
  if (computed != 0 || from_store != set.size()) {
    rep.fail("the warm phase computed " + std::to_string(computed) +
             " cells and read " + std::to_string(from_store) +
             " from the store; expected 0 and " + std::to_string(set.size()));
  }
  removeTree(dir);

  addMetrics(rep, setup_s, t);
  rep.notes.push_back(latencyNote("serve_warm", t) + ", cells computed " +
                      std::to_string(computed) + ", store reads " +
                      std::to_string(from_store));
  return rep;
}

}  // namespace perfbench
