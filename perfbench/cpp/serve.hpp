// Request plans of the serve workloads, shared with the traced run.
#pragma once

#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// One eval request and the cell it names.
struct EvalRequest {
  std::string workload;
  wp::cache::CacheGeometry icache;
  wp::driver::SchemeSpec spec;
  std::string line;  ///< the request as sent
};

/// serve_cold's distinct requests: @p rounds rounds (at most 9), each
/// visiting all 23 workloads in a seeded order with a geometry the
/// workload has not met yet, four requests each: baseline,
/// way-memoization, way-placement under the default layout and
/// way-placement under a parameterized layout spec, at seeded areas.
[[nodiscard]] std::vector<EvalRequest> coldPlan(u64 seed, int rounds);

/// serve_cold's round count for --seconds.
[[nodiscard]] int coldRounds(double seconds);

/// serve_warm's fixed set: six workloads (every fourth of the suite),
/// four requests each as in coldPlan, at one seeded geometry each.
[[nodiscard]] std::vector<EvalRequest> warmSet(u64 seed);

}  // namespace perfbench
