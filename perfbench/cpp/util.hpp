// Shared plumbing of the benchmark: clocks, process accounting, the
// seeded generator, the daemon handle and the result line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/geometry.hpp"
#include "driver/runner.hpp"
#include "support/socket.hpp"

namespace perfbench {

using wp::u32;
using wp::u64;

/// Prints @p why, kills every daemon still running and exits 2 without
/// a result line.
[[noreturn]] void die(const std::string& why);

/// Monotonic wall clock in seconds.
inline double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of a whole process (all threads) and its
/// peak resident set, read from /proc.
struct ProcUsage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
/// @p pid 0 means this process.
[[nodiscard]] ProcUsage procUsage(pid_t pid = 0);

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed ^ 0x5eed0fbe9c4d1a27ULL) {}
  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  u64 state_;
};

/// The Fig. 6 grid's axes (bench/fig6_cache_configs.cpp).
inline const std::vector<wp::cache::CacheGeometry>& fig6Geometries() {
  static const std::vector<wp::cache::CacheGeometry> g = [] {
    std::vector<wp::cache::CacheGeometry> out;
    for (const u32 kb : {16u, 32u, 64u}) {
      for (const u32 ways : {8u, 16u, 32u}) {
        out.push_back({kb * 1024, 32, ways});
      }
    }
    return out;
  }();
  return g;
}
inline constexpr u32 kFig6AreasKb[] = {16, 8, 4, 2, 1};

/// The four-workload subset the fig6_sweep workload and the ladder run.
inline const std::vector<std::string>& fig6Workloads() {
  static const std::vector<std::string> names = {"crc", "sha", "djpeg",
                                                 "susan_s"};
  return names;
}

/// Scheme specs built field by field, so no WP_LAYOUT in the
/// environment can change them.
wp::driver::SchemeSpec baselineSpec();
wp::driver::SchemeSpec wayMemoSpec();
wp::driver::SchemeSpec wayPlaceSpec(u32 area_kb, std::string layout);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. The last stdout line is
/// {"correct", "attempted", "failed", "metrics"}; `notes` print before it,
/// one "# " line each.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why);  ///< correct = false, reason to stderr
  void print() const;
};

/// Options shared by the workloads.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string serve_bin;  ///< the wp_serve executable
  std::string workdir;    ///< scratch directory for stores and sockets
};

/// A wp_serve daemon started by the benchmark. Its socket and log live
/// in its own directory; the destructor kills and reaps it if it is
/// still running, so no path leaves a daemon behind.
class Daemon {
 public:
  /// Starts wp_serve in @p dir with WP_STORE=@p store (relative to
  /// @p dir), one worker thread and @p seed, then waits for its
  /// `health` reply. launch_to_health_s is that whole span. Exits the
  /// benchmark (code 2) when the daemon dies or stays silent for 60 s.
  Daemon(const Options& opt, const std::string& dir, const std::string& store);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] double launchToHealthSeconds() const { return setup_s_; }

  /// One request/reply exchange on the daemon's single client
  /// connection.
  [[nodiscard]] std::string request(const std::string& line);
  /// The same for a request that already ends in a newline, with the
  /// reply read into @p reply: the timed loops allocate nothing.
  void exchange(const std::string& framed, std::string& reply);

  /// Sends `drain` and reaps the process; true on a clean exit 0.
  bool drain();

 private:
  std::string dir_;
  pid_t pid_ = -1;
  int fd_ = -1;
  double setup_s_ = 0.0;
  std::unique_ptr<wp::support::LineReader> reader_;
};

/// Fields of one flat reply line, values as their raw text; an empty
/// map for a malformed line.
using Fields = std::map<std::string, std::string>;
[[nodiscard]] Fields parseReply(const std::string& reply);
/// Unsigned field of @p f; 0 when absent or not a number.
[[nodiscard]] u64 fieldU64(const Fields& f, const std::string& key);

/// The daemon's `stats` counters.
[[nodiscard]] Fields daemonStats(Daemon& d);

/// rm -rf of a scratch directory the benchmark owns.
void removeTree(const std::string& path);
void makeDirs(const std::string& path);

/// Renders a double the way the daemon's replies do (%.17g).
[[nodiscard]] std::string g17(double v);
/// Renders a percentile for a note ("99.9").
[[nodiscard]] std::string pct(double p);

/// Workload entry points (fig6.cpp, serve.cpp, ledger.cpp).
Report runFig6Sweep(const Options& opt);
Report runServeCold(const Options& opt);
Report runServeWarm(const Options& opt);
Report runLedger(const Options& opt);

}  // namespace perfbench
