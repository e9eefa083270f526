// GraphService: a multi-client query-serving front end over the snapshot
// store and engine pool — the subsystem that turns the single-caller
// framework into a concurrent read path.
//
// Topology:
//
//   writer thread                         client threads (any number)
//   ─────────────                         ──────────────────────────
//   StreamSession::apply(batch)           service.submit({algo, src})
//        │                                     │        future<QueryResult>
//        ▼                                     ▼
//   publish_session() ──► SnapshotStore   bounded MPMC queue ──► workers
//        (new epoch,       (epoch refs)        │ (explicit rejection
//         cache cleared)        ▲              │  when full — never
//                               └── acquire ───┘  silent blocking)
//                                    │
//                             EnginePool::lease (per-query engine,
//                             rebind-on-version-change, PR-1 scratch kept)
//
// Admission control: in-flight work is bounded by `workers` executing
// queries plus `queue_capacity` waiting ones. A submit that finds the
// queue full is rejected with SubmitStatus::QueueFull so callers see
// backpressure explicitly and can shed or retry — the queue never blocks
// a client.
//
// Queries are typed (the algorithms/query.hpp protocol): a registry code
// plus a QueryParams set validated against the algorithm's ParamSchema
// (unknown/ill-typed params fail the future with vebo::Error), and a
// ResultKind selecting the answer shape — the legacy checksum scalar, or
// the algorithm's typed QueryPayload (per-vertex vectors, top-k lists).
//
// Results are futures. Each completed query reports the epoch version it
// ran on, its submit-to-completion latency (p50/p95/p99 via latency()),
// and whether it was served from the version-keyed result cache. Every
// query ends in one place, settle(), in a fixed order: ledger, latency,
// tail sample, window, heartbeat, then the promise. The cache is keyed
// canonically on (code, validated params) — spelling, ordering, and
// default-reliance cannot split semantically identical queries — holds
// results for the current epoch only, and is wiped on publish; within an
// epoch, overflow evicts LRU entries (stats: `evictions`, distinct from
// `invalidations`). A cached value can never outlive the graph state it
// was computed on.
//
// Query.source / params["source"] and every vertex id inside a returned
// payload are in ORIGINAL vertex ids when the published snapshot carries
// a permutation (publish_session attaches the maintained VEBO ordering);
// otherwise ids name snapshot vertices directly. Per-vertex payloads are
// translated back to original ids exactly once, inside the worker that
// computed them (never under the cache lock); scalar answers skip
// translation entirely.
// Overload behavior (PR 6): queries may carry a deadline and a cancel
// token. A deadline that lapses while the query is queued sheds it before
// any execution (fails fast with ErrorCode::DeadlineExceeded); a running
// query observes cancellation/deadline at its next edge_map superstep
// via the QueryContext bound to the leased engine. Every serve-path
// failure is a ServiceError with a machine-readable code, counted
// per-code in GraphServiceStats. In the opt-in stale-serve mode
// (GraphServiceOptions::serve_stale) publish rotates the result cache
// instead of wiping it, and overload/deadline-shed queries may be
// answered from the retired previous-epoch generation — always marked
// QueryResult::stale = true with the epoch the answer was computed on.
// health() reports queue depth, in-flight count, the oldest running
// query's age, and a per-worker heartbeat.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/query.hpp"
#include "framework/cancel.hpp"
#include "graph/permute.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/engine_pool.hpp"
#include "serve/result_cache.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/annotated_mutex.hpp"
#include "support/histogram.hpp"
#include "support/timer.hpp"

namespace vebo::serve {

/// Always-on telemetry (the PR 8 layer). Everything here defaults ON —
/// this is the production configuration whose cost bench_obs_overhead
/// budgets at <=3% on both guarded op points.
struct TelemetryOptions {
  /// Tail sampling: EVERY query runs under a reusable per-worker trace
  /// ring (4096 spans, no per-query allocation); at completion the
  /// service decides keep or drop. Kept into trace_store() (the last 32):
  /// queries slower than the rolling threshold (windowed p99 x 3,
  /// floored at keep_min_ms), deadline hits, and ServiceError failures.
  /// Dropped: everything else, for the cost of a few clock reads.
  /// Query::trace runs on the same ring with keep forced, and its trace
  /// goes on the result instead of into the store.
  bool tail_sampling = true;
  /// Absolute floor for the slow-keep threshold so cache-hit jitter on
  /// a microsecond-scale p99 cannot flood the store.
  double keep_min_ms = 1.0;
  /// Until the window holds this many latency samples there is no p99
  /// worth multiplying: only failures are kept.
  std::uint64_t keep_min_samples = 50;
  /// Sliding-window monitoring: qps, per-ErrorCode error rate, latency
  /// quantiles per algorithm over the last buckets x bucket_ns. Feeds
  /// health(), the *_window metric gauges, and the SLO burn rate.
  bool window = true;
  /// error_codes is overridden with kNumErrorCodes at construction.
  obs::WindowOptions window_opts;
  obs::SloConfig slo;
  /// Completion-time monitoring cadence: the rolling keep threshold and
  /// the anomaly checks run at most once per this interval.
  double monitor_interval_ms = 100;
  /// Anomaly triggers for the process flight recorder (no-ops unless
  /// obs::FlightRecorder::instance() is armed): windowed error rate >=
  /// anomaly_error_rate over >= anomaly_min_samples, or an in-flight
  /// query older than 1 s. The publish path triggers on a publish slower
  /// than 250 ms.
  double anomaly_error_rate = 0.5;
  std::uint64_t anomaly_min_samples = 20;
};

struct GraphServiceOptions {
  /// Worker threads executing queries (= max concurrently running).
  std::size_t workers = 4;
  /// Pending-query bound; submits beyond it are rejected (backpressure).
  std::size_t queue_capacity = 64;
  /// Engine pool configuration. max_engines is raised to `workers` if
  /// smaller so no worker can deadlock waiting for an engine.
  EnginePoolOptions engine;
  /// Result cache over canonical (code, validated params) keys for the
  /// current epoch. Sized in entries; wiped on publish, LRU-evicted on
  /// overflow.
  bool enable_cache = true;
  std::size_t cache_capacity = 4096;
  /// Opt-in graceful degradation: keep one previous-epoch cache
  /// generation across publish and answer overload/deadline-shed queries
  /// from it (marked stale) instead of rejecting. Requires enable_cache.
  /// Off by default — default-mode behavior is identical to PR 5.
  bool serve_stale = false;
  /// Opt-in incremental maintenance (PR 10): publishes that carry an
  /// edge delta (publish_session, or publish(..., delta)) refresh cache
  /// entries whose algorithm has an AlgorithmSpec::refresh hook — warm-
  /// started from the previous epoch's payload, re-keyed to the new
  /// epoch — instead of dropping them. Entries without a hook (or whose
  /// refresh preconditions fail) are invalidated exactly as before.
  /// Refreshed answers are NOT stale: they are full-fidelity results for
  /// the new epoch (refresh == recompute is the contract, see ROADMAP
  /// "Incremental maintenance"). Off by default — default-mode behavior
  /// is identical to PR 9.
  bool refresh_on_publish = false;
  /// Refresh is only worthwhile for small deltas: when the net delta
  /// exceeds this fraction of the new snapshot's edges, the publish
  /// falls back to a plain invalidation (and each algorithm's hook
  /// additionally falls back to a full run past its own threshold).
  double refresh_max_delta_fraction = 0.05;
  /// Optional metrics plane: when set, the service registers one
  /// collector that exposes every GraphServiceStats field (including
  /// errors_by_code), the cache size/evictions, the engine-pool
  /// lease/rebind counters, the snapshot-store publish/reclaim counters,
  /// and the latency summary through the registry's exposition. The
  /// registry must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  /// The always-on telemetry layer (tail sampling, sliding window, SLO,
  /// anomaly triggers). On by default; see TelemetryOptions.
  TelemetryOptions telemetry;
};

/// What shape of answer the client wants back.
enum class ResultKind : std::uint8_t {
  Checksum,  ///< QueryResult::value only (legacy scalar surface)
  Payload,   ///< also attach the typed QueryPayload in original ids
};

struct Query {
  Query() = default;
  /// The `{algo, source}` shorthand used throughout: a converting
  /// constructor (not aggregate init) so partial braces stay clean
  /// under -Werror=missing-field-initializers.
  Query(std::string algo_code, VertexId src = 0)
      : algo(std::move(algo_code)), source(src) {}

  std::string algo;     ///< registry code: "BFS", "CC", "PR", ...
  VertexId source = 0;  ///< legacy source shorthand; see `params`
  /// Typed parameters, validated against the algorithm's ParamSchema.
  /// When the schema takes a "source" and the map does not set one, the
  /// legacy `source` field is used — params win if both are given.
  /// Vertex-id params are in the header comment's id space.
  algo::QueryParams params;
  ResultKind result = ResultKind::Checksum;
  /// Relative deadline from submit; 0 = none. Expired-while-queued
  /// queries are shed before execution; expiry mid-run is observed at
  /// the next superstep. Both fail with ErrorCode::DeadlineExceeded
  /// (or are answered stale in stale-serve mode).
  double deadline_ms = 0;
  /// Cooperative cancel handle (CancelSource::token()). Default tokens
  /// can never fire. Cancellation is observed within one superstep and
  /// fails the future with ErrorCode::Cancelled.
  CancelToken cancel;
  /// Opt this query into execution tracing: the worker's trace ring is
  /// armed for it (whether or not tail sampling is on) and
  /// QueryResult::trace carries the spans (queue wait, cache probe,
  /// engine lease, execute with every framework step, translate). Never
  /// stored in trace_store(). Untraced queries pay one relaxed atomic
  /// load per step while no thread holds a trace ring.
  bool trace = false;
};

struct QueryResult {
  double value = 0;            ///< checksum fold of the payload
  /// The typed payload in original vertex ids; set iff the query asked
  /// for ResultKind::Payload. Shared with the result cache — treat as
  /// immutable.
  std::shared_ptr<const algo::QueryPayload> payload;
  std::uint64_t version = 0;   ///< epoch the query ran on
  bool cache_hit = false;
  double latency_ms = 0;       ///< submit -> completion, queue wait included
  /// True iff the answer came from the previous-epoch cache generation
  /// (stale-serve mode only; `version` is the epoch it was computed on).
  /// Default-mode results are never stale.
  bool stale = false;
  /// The execution trace; set iff the query asked for Query::trace and
  /// completed successfully. Export with obs::to_chrome_trace_json().
  std::shared_ptr<const obs::Trace> trace;
};

enum class SubmitStatus : std::uint8_t { Accepted, QueueFull, Stopped };
const char* to_string(SubmitStatus s);

struct Submission {
  SubmitStatus status = SubmitStatus::Stopped;
  std::future<QueryResult> result;  ///< valid iff accepted()
  bool accepted() const { return status == SubmitStatus::Accepted; }
};

/// Service counters. Snapshots from stats() are internally consistent:
/// every ledger transition happens in one stats-mutex critical section,
/// so `submitted == completed + failed + rejected + in_flight` holds for
/// ANY observer at ANY instant — never just eventually.
struct GraphServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   ///< backpressure rejections
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< completed exceptionally
  /// Accepted queries whose outcome is not yet decided (queued or
  /// executing). The balancing term of the ledger invariant above.
  std::uint64_t in_flight = 0;
  std::uint64_t cache_hits = 0;
  /// Cache wipes (publish / epoch change) and single entries LRU-evicted
  /// when full; read from the ResultCache, outside the ledger.
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;
  /// Entries carried across a publish by in-place recompute
  /// (refresh_on_publish). Distinct from invalidations: a refreshing
  /// publish that keeps every entry counts zero invalidations; one that
  /// drops any entry (no hook, failed precondition, oversized delta)
  /// still counts one invalidation for the wipe of the dropped set.
  std::uint64_t refreshes = 0;
  /// Accepted queries shed before execution (deadline lapsed / cancelled
  /// while queued). Every shed is also counted in `failed` (the future
  /// resolves exceptionally) unless it was answered stale instead.
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_cancelled = 0;
  /// Answers served from the previous-epoch generation (stale=true).
  std::uint64_t stale_served = 0;
  /// Failures by ServiceError code; indexed by static_cast<ErrorCode>.
  /// Sums to `failed` plus the Overloaded count of rejected submits
  /// (which carry no future and are not in `failed`).
  std::array<std::uint64_t, kNumErrorCodes> errors_by_code{};

  std::uint64_t errors(ErrorCode c) const {
    return errors_by_code[static_cast<std::size_t>(c)];
  }
};

/// Backoff schedule for the convenience query() helper. Only rejected
/// submits (QueueFull) are retried — failed futures rethrow immediately,
/// and Stopped is terminal. The default makes one attempt: no behavior
/// change for existing callers.
struct RetryPolicy {
  int max_attempts = 1;
  double initial_backoff_ms = 1;
  double multiplier = 2;
  double max_backoff_ms = 100;
};

/// One worker's heartbeat: queries it has finished and what it is doing
/// right now. `busy_ms` is the age of the query it is running (0 idle).
struct WorkerHealth {
  std::uint64_t processed = 0;
  bool busy = false;
  double busy_ms = 0;
};

/// Point-in-time service health for external monitoring / load shedding.
struct ServiceHealth {
  bool accepting = false;        ///< false once stop() began
  std::size_t queue_depth = 0;   ///< queries waiting (not yet picked up)
  std::size_t in_flight = 0;     ///< queries currently executing
  /// Age of the oldest currently-running query (0 when idle). A large
  /// value with a deep queue is the overload signal.
  double oldest_running_ms = 0;
  std::vector<WorkerHealth> workers;
  /// Sliding-window view (telemetry.window; zeros when off or empty).
  std::uint64_t window_samples = 0;
  double window_qps = 0;
  double window_error_rate = 0;
  double window_p50_ms = 0, window_p95_ms = 0, window_p99_ms = 0;
  /// SLO verdict over the window (SloTracker on telemetry.slo).
  double availability = 1.0;
  double burn_rate = 0;
  double latency_burn_rate = 0;
  bool slo_healthy = true;
  /// Tail sampling: traces kept so far, and the current slow-keep
  /// threshold (0 = window still warming up, only failures kept).
  std::uint64_t traces_captured = 0;
  double slow_keep_threshold_ms = 0;
};

struct LatencySummary {
  std::uint64_t samples = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, mean_ms = 0;
};

class GraphService {
 public:
  /// The store is shared infrastructure (writer publishes into it, other
  /// services may read it) and must outlive the service.
  explicit GraphService(SnapshotStore& store, GraphServiceOptions opts = {});
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Non-blocking admission. Rejections carry no future. In stale-serve
  /// mode a QueueFull submit may instead be accepted and answered
  /// immediately from the previous-epoch generation (stale=true).
  Submission submit(Query q) EXCLUDES(queue_mutex_, stats_mutex_);

  /// Convenience: submit and wait; throws ServiceError(Overloaded) when
  /// every attempt is rejected and rethrows query failures. `retry`
  /// controls backoff-retry of QueueFull rejections (default: one
  /// attempt, no retry).
  QueryResult query(Query q, RetryPolicy retry = {});

  /// Publishes a new epoch into the store and invalidates the result
  /// cache. `perm` (optional) maps original ids -> snapshot positions so
  /// clients keep addressing vertices by original id. `delta` (optional,
  /// ORIGINAL id space, net across batches) enables the refresh-on-
  /// publish path when opts.refresh_on_publish is set; it is only read
  /// during the call.
  std::uint64_t publish(std::shared_ptr<const Graph> graph,
                        order::Partitioning partitioning,
                        std::shared_ptr<const Permutation> perm = nullptr,
                        const algo::EdgeDelta* delta = nullptr);

  /// Publishes the session's current version: reordered shared snapshot,
  /// maintained partitioning, and the VEBO permutation. Writer-thread
  /// API (same thread that calls session.apply()). Drains the session's
  /// accumulated net edge delta and feeds it to the refresh-on-publish
  /// path (drained regardless of the option, so deltas never pile up
  /// across a mode change).
  std::uint64_t publish_session(stream::StreamSession& session);

  /// Per-algorithm refresh cost accounting (refresh-on-publish mode):
  /// how many entries were refreshed for `algo` and the total wall time
  /// spent in their refresh hooks. Sorted by algo code.
  struct RefreshLatency {
    std::string algo;
    std::uint64_t count = 0;
    double total_ms = 0;
  };
  std::vector<RefreshLatency> refresh_latency() const EXCLUDES(stats_mutex_);

  /// Stops accepting work, drains the queue, joins the workers. Idempotent;
  /// also run by the destructor.
  void stop() EXCLUDES(stop_mutex_, queue_mutex_);

  GraphServiceStats stats() const EXCLUDES(stats_mutex_, cache_mutex_);
  LatencySummary latency() const;
  ServiceHealth health() const EXCLUDES(queue_mutex_);
  const SnapshotStore& store() const { return store_; }
  const EnginePool& engine_pool() const { return pool_; }
  /// The tail-sampling sink: the last 32 keeper traces (slow / deadline
  /// / failed queries), captured with zero Query::trace opt-in. Export
  /// entries with obs::to_chrome_trace_json.
  const obs::TraceStore& trace_store() const { return trace_store_; }
  /// The sliding window behind health()/metrics (null when
  /// telemetry.window is off); snapshot with obs::Tracer::now_ns().
  const obs::SlidingWindow* window() const { return window_.get(); }

 private:
  struct Item {
    Query q;
    std::promise<QueryResult> promise;
    Timer submitted;
    /// Deadline (absolute, fixed at submit) + the client's cancel token;
    /// polled by the shed check and, via the engine binding, at every
    /// superstep of the run.
    QueryContext ctx;
  };

  /// How one query ended. No strings: the hot path builds one per query.
  struct Outcome {
    enum class Kind : std::uint8_t { Completed, Failed, Rejected };
    Kind kind = Kind::Completed;
    ErrorCode code = ErrorCode::Internal;  ///< Failed / Rejected
    QueryResult result;                    ///< Completed
    std::exception_ptr error;              ///< Failed
    bool shed = false;  ///< ended before execution (cancel or deadline)
  };

  /// Submit-to-completion latency of completed queries (log-bucketed us
  /// + sum). One per worker and one for submit-thread stale serves, so
  /// recording never contends; settle() writes, latency() merges.
  class LatencyRecorder {
   public:
    void record(double latency_ms) EXCLUDES(mutex_);
    void merge_into(Histogram& h, double& sum_ms) const EXCLUDES(mutex_);

   private:
    mutable Mutex mutex_;
    Histogram buckets_ GUARDED_BY(mutex_);
    double sum_ms_ GUARDED_BY(mutex_) = 0;
  };

  /// Per-worker heartbeat state. busy_since_us is a steady-clock
  /// microsecond stamp; < 0 means idle.
  struct WorkerState {
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::int64_t> busy_since_us{-1};
    LatencyRecorder latency;
  };

  void worker_loop(std::size_t worker_idx) EXCLUDES(queue_mutex_);
  /// Runs one picked-up query to its settle(); `pickup_us` is the
  /// heartbeat's pickup stamp, reused as the queue-wait end.
  void process(Item& item, WorkerState& ws, std::int64_t pickup_us)
      EXCLUDES(stats_mutex_);
  /// Snapshot, validation, cache probe and run of one query that passed
  /// the shed checks, into `r`; throws on failure. `pickup_ns` is the
  /// queue-wait end (0 when no stage is wanted).
  void execute(Item& item, std::uint64_t pickup_ns, QueryResult& r)
      EXCLUDES(cache_mutex_);
  /// The only code that records a query's end, in this order: ledger,
  /// latency recorder, tail-sample keep/drop, window, heartbeat, then
  /// the promise (nothing for a rejection). The heartbeat settles before
  /// the promise so a client whose future::get() returned never sees its
  /// own query still running. `ws` is null on the submit thread.
  void settle(Item& item, Outcome out, WorkerState* ws) EXCLUDES(stats_mutex_);
  /// Rate-limited (monitor_interval_ms) in steady state; while the keep
  /// threshold is still unset (window short of keep_min_samples) it
  /// re-evaluates on every settle so slow-keep arms as soon as there is
  /// evidence. Recomputes the tail-sampling keep threshold from the
  /// windowed p99 and fires the flight-recorder anomaly triggers.
  void maybe_monitor(std::uint64_t now_ns);
  /// Every worker's heartbeat, aged against one clock read.
  std::vector<WorkerHealth> worker_health() const;
  /// Stale-serve lookup for a query that would otherwise fail (overload
  /// / deadline shed): true iff the previous-epoch generation answers
  /// it, filling `r` (stale, with the epoch it was computed on).
  bool find_stale_answer(Item& item, QueryResult& r) EXCLUDES(cache_mutex_);
  /// The refresh-on-publish path (replaces the plain advance on a
  /// delta-carrying publish in refresh mode): takes the live generation,
  /// recomputes every refreshable entry against the new epoch via its
  /// AlgorithmSpec::refresh hook (outside the cache lock), and reinserts
  /// the survivors keyed to `new_version`. Non-refreshable entries are
  /// dropped (counted as one invalidation if any). `delta` is in
  /// ORIGINAL ids; `perm` is the newly published permutation.
  void refresh_cache(std::uint64_t prev_version, std::uint64_t new_version,
                     const algo::EdgeDelta& delta,
                     const std::shared_ptr<const Permutation>& perm)
      EXCLUDES(cache_mutex_, stats_mutex_);
  /// Emits every service/cache/pool/snapshot stat as metric samples
  /// (the collector registered when options.metrics is set).
  void collect_metrics(std::vector<obs::MetricSample>& out) const
      EXCLUDES(cache_mutex_, stats_mutex_);

  SnapshotStore& store_;
  GraphServiceOptions opts_;
  EnginePool pool_;

  mutable Mutex queue_mutex_;  ///< mutable: health() reads depth
  std::condition_variable queue_cv_;
  std::deque<Item> queue_ GUARDED_BY(queue_mutex_);
  bool stopping_ GUARDED_BY(queue_mutex_) = false;
  Mutex stop_mutex_;  ///< serializes stop() callers (idempotence)
  std::vector<std::thread> workers_;
  /// Heartbeats, one per worker; stable addresses (vector of unique_ptr
  /// because atomics are not movable).
  std::vector<std::unique_ptr<WorkerState>> worker_state_;

  /// Single-epoch result cache (generations and their epochs live in
  /// ResultCache). An insert at a newer epoch catches up lazily, so even
  /// a publish bypassing this service (straight into the store) cannot
  /// cause a stale hit.
  mutable Mutex cache_mutex_;
  ResultCache cache_ GUARDED_BY(cache_mutex_);

  /// Lock order: the ledger nests stats_mutex_ INSIDE queue_mutex_
  /// (submit counts admission before a worker can pop the item); nothing
  /// ever takes queue_mutex_ while holding stats_mutex_.
  mutable Mutex stats_mutex_ ACQUIRED_AFTER(queue_mutex_);
  GraphServiceStats stats_ GUARDED_BY(stats_mutex_);
  /// Per-algo refresh cost: code -> (count, total ms). Feeds
  /// refresh_latency() and the vebo_cache_refresh_latency_ms_* metrics.
  std::map<std::string, std::pair<std::uint64_t, double>> refresh_lat_
      GUARDED_BY(stats_mutex_);
  /// Latency of submit-thread stale serves; worker completions land in
  /// their WorkerState's recorder.
  LatencyRecorder submit_latency_;

  /// Always-on telemetry state. The window is null when telemetry.window
  /// is off; the trace store exists regardless (manual pushes possible).
  std::unique_ptr<obs::SlidingWindow> window_;
  obs::SloTracker slo_;
  obs::TraceStore trace_store_;
  /// Rolling slow-keep threshold in us; kNoThreshold = window warming
  /// up, only failures keep. Written by maybe_monitor, read relaxed at
  /// every completion.
  static constexpr std::uint64_t kNoThreshold = ~std::uint64_t{0};
  std::atomic<std::uint64_t> keep_threshold_us_{kNoThreshold};
  std::atomic<std::int64_t> last_monitor_us_{0};

  /// Declared last so it deregisters first on destruction: an in-flight
  /// scrape (which holds the registry mutex) finishes before any other
  /// member is torn down.
  obs::MetricsRegistry::Registration metrics_reg_;
};

}  // namespace vebo::serve
