// Parallel sweep execution over (workload × geometry × scheme) grids.
//
// The figure benches all follow the same shape: prepare the suite once,
// then price many independent simulations and average normalized
// metrics. SweepExecutor owns that shape. Simulations fan out across a
// work-stealing thread pool; every result is memoized under a
// deterministic cell key, and aggregation walks the prepared workloads
// in suite order reading from the memo — so a table's bytes are
// identical at any job count, and the baseline for each (workload,
// geometry) is priced exactly once no matter how many schemes share it.
//
// Every cell runs *supervised* (see driver/supervisor.hpp): a cell that
// throws SimError is retried with deterministic seed-derived backoff,
// and a cell that exhausts its attempts is quarantined — tagged with
// its full cell key, excluded from aggregation (SuiteAverage reports
// how many cells an average lost), rendered as QUAR by the benches, and
// surfaced through quarantined() so a bench can exit 3
// (degraded-but-complete) instead of aborting the whole figure.
//
// runAll executes each guest once per (workload, layout) for all the
// cells it shares: cells that are solo, fault-free and not drowsy, in
// an executor without WP_ISOLATE, WP_CELL_FAULT or WP_CELL_TIMEOUT_MS,
// are priced as the lanes of one Runner::runGroup (see sim::Processor).
// Each cell keeps its own key, memo entry, store lease and record,
// journal line, trace events and counters. A group that throws keeps
// no result: each of its cells runs the solo attempt ladder from
// attempt 1, so fates, retries and quarantines match solo execution.
//
// Environment knobs (parsed strictly — garbage is a startup error, not
// a silent default):
//   WP_JOBS       worker-thread count; 0 or unset = one per hardware
//                 thread
//   WP_JSON       path to write a machine-readable report of every
//                 priced cell (normalized energy/ED plus per-cell
//                 wall-clock, phase breakdown and guest MIPS) when the
//                 bench finishes
//   WP_TRACE      path for a JSONL event log of the sweep as it
//                 executes: per-workload prepare phases, cell
//                 start/end/failure/retry/quarantine with worker thread
//                 and durations, memo hits, report emission
//   WP_RETRIES / WP_CELL_TIMEOUT_MS / WP_CELL_FAULT / WP_ISOLATE
//                 cell supervision policy — see driver/supervisor.hpp.
//                 Under WP_ISOLATE=1 every cell attempt runs in a
//                 forked worker process (driver/worker.hpp), so a
//                 SIGSEGV or wedged loop costs one attempt of one
//                 cell, not the bench.
//   WP_CHECKPOINT path of a durable JSONL journal (fsync'd per record):
//                 every freshly computed cell is appended, and on
//                 startup the journal is replayed — records whose
//                 digests verify against the freshly prepared images
//                 seed the memo, the rest recompute. A killed sweep
//                 resumed with the same journal prints a byte-identical
//                 table. See driver/checkpoint.hpp.
//   WP_STORE      directory of a persistent cross-run result store:
//                 cells whose stored record verifies (image digest +
//                 stats digest + seed) are served instead of simulated,
//                 freshly computed cells are published atomically, and
//                 concurrent sweeps sharing the directory coordinate
//                 through lock-file leases (WP_LEASE_TIMEOUT_MS) so a
//                 cell is computed once across processes. See
//                 driver/result_store.hpp.
//
// Instrumentation is host-side only: with or without WP_TRACE/WP_JSON/
// WP_CHECKPOINT/WP_STORE, at any WP_JOBS, with or without WP_ISOLATE,
// the printed tables are byte-identical.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/result_store.hpp"
#include "driver/runner.hpp"
#include "driver/supervisor.hpp"
#include "support/metrics.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

namespace wp::driver {

/// Worker count from WP_JOBS. Unset, empty or "0" mean one thread per
/// hardware thread; anything non-numeric exits with a clear message.
[[nodiscard]] unsigned jobsFromEnv();

class SweepExecutor {
 public:
  /// One point of a sweep grid: a cache geometry plus a scheme to run
  /// on it (the matching baseline is implied and shared).
  struct Cell {
    cache::CacheGeometry icache;
    SchemeSpec spec;
  };

  /// Non-owning view of one memoized cell's fate. `result` is null iff
  /// the cell is quarantined; `error` then carries the tagged failure
  /// of the final attempt. Pointees live as long as the executor.
  struct CellView {
    const RunResult* result = nullptr;
    bool quarantined = false;
    unsigned attempts = 0;    ///< attempts spent (0 = restored from journal)
    const std::string* error = nullptr;
  };

  /// A suite mean that knows what it lost: `excluded` counts workloads
  /// whose cell (or baseline) was quarantined and therefore left out.
  /// Benches render degraded() averages with a marker and a footer.
  struct SuiteAverage {
    double mean = 0.0;  ///< 0.0 when included == 0 (render QUAR, not a number)
    unsigned included = 0;
    unsigned excluded = 0;
    [[nodiscard]] bool degraded() const { return excluded > 0; }
  };

  /// One quarantined cell, for degradation footers and the JSON report.
  struct QuarantinedCell {
    std::string key;
    std::string error;
    unsigned attempts = 0;
    /// True when the cell never ran because a shutdown latch fired
    /// first (see the interrupt_latch constructor argument): the cell
    /// is excluded like any quarantined cell, but it represents work
    /// deliberately not started, not work that failed — benches count
    /// these in an INTERRUPTED footer instead of listing them as QUAR
    /// failures, and exit 5 instead of 3.
    bool interrupted = false;
  };

  /// Prepares @p workload_names (profile + layout) in parallel, kept in
  /// the given order for all later aggregation. @p jobs of 0 means
  /// WP_JOBS (which itself defaults to the hardware thread count).
  /// @p supervisor overrides the WP_RETRIES/WP_CELL_TIMEOUT_MS/
  /// WP_CELL_FAULT environment policy (tests pin it; benches pass
  /// nothing). All WP_* parsing and the WP_CHECKPOINT journal open
  /// happen before any workload is prepared, so a bad environment fails
  /// in milliseconds.
  /// @p interrupt_latch, when non-null, makes the executor *interrupt-
  /// aware*: once the latch fires (SIGTERM/SIGINT), cells that have not
  /// started yet are immediately quarantined with `interrupted` set
  /// instead of being computed — a running cell always finishes, so no
  /// record is ever torn — and the bench can flush partial results and
  /// exit 5. Benches pass the process latch; the sweep service passes
  /// nothing (its drain protocol finishes queued work instead).
  explicit SweepExecutor(std::vector<std::string> workload_names,
                         energy::EnergyParams params = energy::EnergyParams{},
                         u64 seed = 0, unsigned jobs = 0,
                         const SupervisorConfig* supervisor = nullptr,
                         const ShutdownLatch* interrupt_latch = nullptr);

  /// Out of line: the memo map holds unique_ptrs to the private
  /// CellEntry, which is incomplete outside sweep.cpp.
  ~SweepExecutor();

  [[nodiscard]] const std::vector<PreparedWorkload>& prepared() const {
    return prepared_;
  }
  [[nodiscard]] const Runner& runner() const { return runner_; }
  [[nodiscard]] unsigned jobs() const { return pool_.threadCount(); }
  [[nodiscard]] const CellSupervisor& supervisor() const {
    return supervisor_;
  }

  /// Prices every (prepared workload × cell) plus the implied baselines
  /// across the pool. Already-memoized cells cost nothing; benches call
  /// this up front with their whole grid so the pool stays saturated
  /// instead of draining at each table cell. Cells that can share an
  /// execution (see the file comment) are computed as groups, one pool
  /// task per group; with more than one worker, groups are split into
  /// chunks of at most ceil(lanes / jobs) lanes so every worker gets
  /// work. The split never changes a result. Never throws for a failing
  /// cell: failures retry and then quarantine (inspect via tryRun /
  /// quarantined()).
  void runAll(const std::vector<Cell>& cells);

  /// Memoized result of one simulation; computed on the calling thread
  /// on a miss. The reference stays valid for the executor's lifetime.
  /// A quarantined cell throws SimError tagged with the full cell key —
  /// use tryRun() to handle quarantine without exceptions.
  const RunResult& run(const PreparedWorkload& p,
                       const cache::CacheGeometry& icache,
                       const SchemeSpec& spec);

  /// Like run(), but a quarantined cell comes back as a CellView with
  /// `quarantined` set instead of a throw.
  [[nodiscard]] CellView tryRun(const PreparedWorkload& p,
                                const cache::CacheGeometry& icache,
                                const SchemeSpec& spec);

  /// Average of `metric(normalize(scheme, baseline))` across the suite,
  /// in preparation order. Missing cells are first priced in parallel,
  /// so this is also the one-call form of runAll for a single cell.
  /// Quarantined cells are excluded from the mean; use the Checked form
  /// when the caller needs to render that degradation.
  double averageNormalized(
      const cache::CacheGeometry& icache, const SchemeSpec& spec,
      const std::function<double(const Normalized&)>& metric);

  /// averageNormalized plus the included/excluded accounting benches
  /// need to render QUAR markers and degradation footers.
  SuiteAverage averageNormalizedChecked(
      const cache::CacheGeometry& icache, const SchemeSpec& spec,
      const std::function<double(const Normalized&)>& metric);

  /// Every quarantined cell so far, ordered by cell key (deterministic
  /// at any job count). Empty on a clean sweep.
  [[nodiscard]] std::vector<QuarantinedCell> quarantined() const;

  /// The memo key: every field of the geometry and spec that can change
  /// a result appears in it. Exposed for tests.
  [[nodiscard]] static std::string keyOf(const std::string& workload,
                                         const cache::CacheGeometry& g,
                                         const SchemeSpec& s);

  /// Writes the JSON report: seed, job count, wall-clock since
  /// construction, and one record per memoized non-baseline cell with
  /// its normalized metrics (cells whose baseline was never priced are
  /// skipped), plus a "quarantined" section. Deterministic: records are
  /// ordered by memo key.
  void writeJsonReport(std::ostream& os) const;

  /// Registers an extra top-level section for writeJsonReport: @p key
  /// becomes a top-level JSON field whose value is @p rendered_json
  /// (which must already be valid JSON). Benches with bench-specific
  /// structured results — the autotune report — use this so the shared
  /// host/prepare/cells schema stays untouched for every other bench.
  void addJsonSection(const std::string& key, std::string rendered_json);

  /// writeJsonReport to the WP_JSON path, if that variable is set.
  /// Benches call this once after printing their tables. An unwritable
  /// path is a fatal error (exit 1), not a silent omission.
  void emitJsonIfRequested() const;

  /// One-line human summary of the sweep so far — cells priced, memo
  /// hits, shared cells and executions, restored/quarantined counts,
  /// guest instructions, host throughput (MIPS), wall-clock and job
  /// count. Benches print this to
  /// stderr (stderr, so the stdout tables stay byte-identical across
  /// job counts).
  void printSummary(std::ostream& os) const;

  /// Host-side counters/timers: this executor's "cells.computed" /
  /// "cells.shared" (computed as a lane of a group of two or more) /
  /// "exec_groups" (such groups executed) / "memo.hits" /
  /// "cells.restored" / "cells.quarantined" / "cells.failed_attempts"
  /// plus the shared Runner phase timers.
  [[nodiscard]] MetricsRegistry& metrics() const { return metrics_; }
  /// True when WP_TRACE requested a JSONL event log.
  [[nodiscard]] bool tracing() const { return trace_ != nullptr; }
  /// True when WP_CHECKPOINT is journaling this sweep.
  [[nodiscard]] bool checkpointing() const { return journal_ != nullptr; }
  /// The WP_STORE result store, or null when the store is not enabled.
  [[nodiscard]] const ResultStore* store() const { return store_.get(); }

 private:
  struct CellEntry;
  /// A cell a runAll call claimed for computing.
  struct Claimed {
    const PreparedWorkload* p = nullptr;
    CellEntry* entry = nullptr;
    std::string key;
  };

  /// Claims @p entry's compute for the caller; false when another
  /// caller holds the claim or the entry is settled.
  bool claim(CellEntry& entry);
  /// Marks a claimed entry settled (its fate is final); wakes waiters.
  void settle(CellEntry& entry);
  /// Gives up a claim whose compute threw, so the next caller retries
  /// (the std::call_once contract). A no-op on an unclaimed entry.
  void unclaim(CellEntry& entry);
  /// Blocks while another caller holds @p entry's claim; returns whether
  /// the entry is settled (false: the claim was given up).
  bool waitSettled(CellEntry& entry);

  /// Finds or creates the memo entry of @p key.
  CellEntry& entryFor(const PreparedWorkload& p,
                      const cache::CacheGeometry& icache,
                      const SchemeSpec& spec, const std::string& key);

  /// Settles @p entry exactly once: the first caller to claim it
  /// computes it on the calling thread; concurrent callers block until
  /// its fate is final. Returns true when this call computed it. The
  /// compute is supervised and never throws for a cell failure.
  bool settleEntry(CellEntry& entry, const std::string& key,
                   const PreparedWorkload& p);

  /// Computes the claimed cell @p c (computeCell) and settles it; gives
  /// the claim back if the compute throws.
  void computeClaimed(const Claimed& c);

  /// Finds-or-creates the memo entry and settles it (see settleEntry),
  /// counting a memo hit when another call computed it.
  CellEntry& ensureCell(const PreparedWorkload& p,
                        const cache::CacheGeometry& icache,
                        const SchemeSpec& spec);

  /// The supervised solo compute of a claimed cell: interrupt check,
  /// store and journal lookup, then up to maxAttempts() tries, then
  /// quarantine.
  void computeCell(CellEntry& entry, const std::string& key,
                   const PreparedWorkload& p);

  /// Computes claimed cells of one workload whose layouts resolve to
  /// one image from a single execution; see the file comment.
  void computeGroup(const PreparedWorkload& p,
                    const std::vector<Claimed>& cells);

  /// True when @p spec may be priced as a lane of a shared execution.
  [[nodiscard]] bool groupable(const SchemeSpec& spec) const;

  /// Quarantines @p entry without running it when the shutdown latch
  /// has fired; returns whether it did.
  bool interruptIfRequested(CellEntry& entry, const std::string& key);

  /// Serves @p entry from the result store or the journal when either
  /// holds a verified record (returns true). Otherwise returns false,
  /// with @p lease holding the store's compute lease when a store is
  /// open.
  bool serveFromRecords(CellEntry& entry, const std::string& key,
                        u64 image_digest, ResultStore::Lease& lease);

  /// The solo attempt ladder of ensureCell, from attempt 1, ending in
  /// a published result or quarantine. @p corun_group and
  /// @p group_error carry a co-run cell's resolved partners.
  void runAttempts(CellEntry& entry, const std::string& key,
                   const PreparedWorkload& p,
                   const std::vector<const PreparedWorkload*>& corun_group,
                   const std::string& group_error, u64 image_digest,
                   ResultStore::Lease& lease);

  /// Counts, traces, journals and publishes the freshly computed
  /// result in @p entry, then marks it ready.
  void publishComputed(CellEntry& entry, const std::string& key,
                       u64 image_digest, ResultStore::Lease& lease);

  /// True when anything reads image digests: the result store, the
  /// journal or isolated workers.
  [[nodiscard]] bool needsImageDigest() const;
  /// imageDigest(@p image), computed at most once per image for the
  /// executor's lifetime.
  [[nodiscard]] u64 imageDigestOf(const mem::Image& image);

  Runner runner_;
  mutable MetricsRegistry metrics_;
  CellSupervisor supervisor_;
  /// Optional shutdown latch consulted before each cell compute (see
  /// the constructor). Not owned; null = never interrupt.
  const ShutdownLatch* interrupt_latch_ = nullptr;
  /// Created before (and so destroyed after) the pool whose workers
  /// write to it. Null unless WP_TRACE is set.
  std::unique_ptr<TraceWriter> trace_;
  /// WP_CHECKPOINT journal writer (null when not checkpointing) and the
  /// verified records replayed from it at startup (read-only after the
  /// constructor).
  std::unique_ptr<DurableJsonlWriter> journal_;
  CheckpointJournal restored_;
  /// WP_STORE cross-run result store (null when not enabled). Created
  /// before the pool so workers can use it; destroyed after.
  std::unique_ptr<ResultStore> store_;
  ThreadPool pool_;
  std::vector<PreparedWorkload> prepared_;
  /// Guards memo_ and every entry's claim state; also guards const
  /// report reads.
  mutable std::mutex memo_mutex_;
  /// Signalled when an entry's claim is settled or given up.
  std::condition_variable settled_cv_;
  /// Keyed by keyOf(); entries hold atomics, so they live behind a
  /// unique_ptr (atomics are neither movable nor copyable).
  std::map<std::string, std::unique_ptr<CellEntry>> memo_;
  /// imageDigestOf's cache: image address → digest. Images live in the
  /// prepared workloads, whose layout maps never move a node.
  std::mutex digest_mutex_;
  std::map<const mem::Image*, u64> image_digests_;
  /// Extra writeJsonReport sections (addJsonSection), key → rendered
  /// JSON. Guarded by memo_mutex_ like the other report inputs.
  std::map<std::string, std::string> extra_json_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wp::driver
