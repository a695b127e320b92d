// Tests of the percentile rule in percentile.hpp. Exits 0 when every
// check passes; prints each failure and exits 1 otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "percentile.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Samples n, n-1, ..., 1 (reversed, so the selector has to sort).
std::vector<double> descending(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int main() {
  using perfbench::tailOf;

  check(std::isnan(perfbench::median({})), "median of nothing is NaN");
  check(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "even median averages");

  const perfbench::Tail none = tailOf({});
  check(none.samples == 0 && std::isnan(none.value), "empty set: no tail");

  const perfbench::Tail small = tailOf(descending(39));
  check(small.percentile == 50.0, "39 samples report the median alone");
  check(small.value == 20.0, "39 samples: median value");
  check(small.samples == 39, "39 samples: count travels with the value");

  const perfbench::Tail at40 = tailOf(descending(40));
  check(at40.percentile == 75.0, "40 samples reach p75");
  check(at40.value == 30.0 && at40.beyond == 10, "40 samples: p75 value");

  const perfbench::Tail at99 = tailOf(descending(99));
  check(at99.percentile == 75.0, "99 samples: p90 has only 9 beyond");

  const perfbench::Tail at100 = tailOf(descending(100));
  check(at100.percentile == 90.0 && at100.value == 90.0,
        "100 samples reach p90");

  const perfbench::Tail at1000 = tailOf(descending(1000));
  check(at1000.percentile == 99.0 && at1000.value == 990.0 &&
            at1000.beyond == 10,
        "1000 samples reach p99, not p99.9");

  const perfbench::Tail at20k = tailOf(descending(20000));
  check(at20k.percentile == 99.9 && at20k.beyond == 20,
        "20000 samples reach p99.9");

  const perfbench::Tail flat = tailOf(std::vector<double>(500, 0.25));
  check(flat.percentile == 95.0 && flat.value == 0.25,
        "ties: 500 equal samples report p95 at the common value");

  if (failures == 0) std::printf("percentile_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
