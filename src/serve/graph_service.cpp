#include "serve/graph_service.hpp"

#include <algorithm>
#include <chrono>

#include "algorithms/registry.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace vebo::serve {

namespace {

/// Per-worker trace ring, in spans, shared by tail sampling and
/// Query::trace. The heaviest traced keys the serving benchmark issues
/// (PR at 120 iterations, BC) record a few hundred.
constexpr std::size_t kTraceRingCapacity = 4096;
/// Keeper traces trace_store() retains.
constexpr std::size_t kTraceStoreCapacity = 32;
/// The slow-keep threshold is the windowed p99 times this.
constexpr double kKeepLatencyFactor = 3.0;
/// Flight-recorder anomaly triggers: a query in flight this long, and a
/// publish this slow.
constexpr double kAnomalyInFlightAgeMs = 1000;
constexpr double kAnomalyPublishStallMs = 250;

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t code_index(ErrorCode c) { return static_cast<std::size_t>(c); }

/// The query's params validated against its schema, with the legacy
/// `source` field folded in. They stay in ORIGINAL ids: the client-
/// visible identity of the query, and what the cache keys on. Throws
/// vebo::Error on unknown or ill-typed params.
algo::QueryParams validated(const algo::AlgorithmSpec& spec, const Query& q) {
  algo::QueryParams raw = q.params;
  if (spec.params.find("source") != nullptr && !raw.has("source"))
    raw.set("source", q.source);
  return spec.params.validate(raw);
}

/// The exception in flight as a ServiceError (its code in `code`): a
/// cooperative stop and anything else that escaped the run are retyped
/// so clients branch on code(); RAII already released lease and pin.
std::exception_ptr typed_error(ErrorCode& code) {
  const auto retyped = [&code](ErrorCode c, const char* what) {
    code = c;
    return std::make_exception_ptr(ServiceError(c, what));
  };
  try {
    throw;
  } catch (const ServiceError& e) {
    code = e.code();
    return std::current_exception();
  } catch (const CancelledError& e) {
    return retyped(ErrorCode::Cancelled, e.what());
  } catch (const DeadlineExceededError& e) {
    return retyped(ErrorCode::DeadlineExceeded, e.what());
  } catch (const std::exception& e) {
    return retyped(ErrorCode::Internal, e.what());
  } catch (...) {
    return retyped(ErrorCode::Internal, "unknown exception");
  }
}

/// Records a hand-stamped serve stage (to the thread's trace and the
/// flight recorder); an end before the start records zero.
void record_span(obs::SpanKind kind, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t a = 0) {
  obs::Span s;
  s.kind = kind;
  s.start_ns = start_ns;
  s.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  s.a = a;
  obs::record_stage(s);
}

/// An original source id translated to its position in a snapshot of
/// `n` vertices. Throws vebo::Error when it is out of range.
VertexId snapshot_source(VertexId source, const Permutation* perm,
                         VertexId n) {
  if (perm != nullptr) {
    VEBO_CHECK(source < static_cast<VertexId>(perm->size()),
               "GraphService: source out of range");
    source = (*perm)[source];
  }
  VEBO_CHECK(source < n, "GraphService: source out of range");
  return source;
}

}  // namespace

const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Accepted: return "accepted";
    case SubmitStatus::QueueFull: return "queue-full";
    case SubmitStatus::Stopped: return "stopped";
  }
  return "?";
}

GraphService::GraphService(SnapshotStore& store, GraphServiceOptions opts)
    : store_(store),
      opts_(opts),
      pool_([&] {
        EnginePoolOptions eopts = opts.engine;
        // A worker must always be able to lease an engine, else a full
        // pool could park every worker and starve the queue.
        eopts.max_engines = std::max(eopts.max_engines, opts.workers);
        return eopts;
      }()),
      cache_(opts.cache_capacity, opts.serve_stale),
      slo_(opts.telemetry.slo),
      trace_store_(kTraceStoreCapacity) {
  if (opts_.telemetry.window) {
    // The per-code dimension always matches this service's error codes;
    // callers tune bucket count/width only.
    obs::WindowOptions wopts = opts_.telemetry.window_opts;
    wopts.error_codes = kNumErrorCodes;
    window_ = std::make_unique<obs::SlidingWindow>(wopts);
  }
  VEBO_CHECK(opts_.workers >= 1, "GraphService: workers must be >= 1");
  VEBO_CHECK(opts_.queue_capacity >= 1,
             "GraphService: queue_capacity must be >= 1");
  VEBO_CHECK(!opts_.enable_cache || opts_.cache_capacity >= 1,
             "GraphService: cache_capacity must be >= 1 "
             "(set enable_cache = false to serve uncached)");
  VEBO_CHECK(!opts_.serve_stale || opts_.enable_cache,
             "GraphService: serve_stale requires enable_cache "
             "(stale answers come from the retired cache generation)");
  workers_.reserve(opts_.workers);
  worker_state_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i)
    worker_state_.push_back(std::make_unique<WorkerState>());
  for (std::size_t i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  // Register on the metrics plane last: a scrape can land the moment the
  // collector exists, so the service must already be fully built.
  if (opts_.metrics != nullptr)
    metrics_reg_ = opts_.metrics->add_collector(
        [this](std::vector<obs::MetricSample>& out) { collect_metrics(out); });
}

GraphService::~GraphService() { stop(); }

Submission GraphService::submit(Query q) {
  Submission sub;
  Item item;
  // The deadline is made absolute at admission: queue wait counts
  // against the budget, and the shed check / superstep polls compare
  // against one fixed time point.
  if (q.deadline_ms > 0)
    item.ctx.set_deadline(QueryContext::Clock::now() +
                          std::chrono::microseconds(static_cast<std::int64_t>(
                              q.deadline_ms * 1000.0)));
  if (q.cancel.can_be_cancelled()) item.ctx.set_cancel_token(q.cancel);
  item.q = std::move(q);
  sub.result = item.promise.get_future();
  // Ledger discipline (see GraphServiceStats): a query enters the books
  // as {submitted, in_flight} in the SAME critical section that decides
  // its admission, nested inside queue_mutex_ so a worker cannot
  // complete the query (it cannot even pop it) before it is counted —
  // an observer can therefore never see completed+failed+rejected+
  // in_flight drift from submitted. A query turned away settles below.
  {
    MutexLock lk(queue_mutex_);
    {
      MutexLock slk(stats_mutex_);
      ++stats_.submitted;
      ++stats_.in_flight;
    }
    if (stopping_) {
      sub.status = SubmitStatus::Stopped;
    } else if (queue_.size() >= opts_.queue_capacity) {
      // Explicit backpressure: the caller sees the rejection immediately
      // instead of blocking inside the service.
      sub.status = SubmitStatus::QueueFull;
    } else {
      sub.status = SubmitStatus::Accepted;
      queue_.push_back(std::move(item));
    }
  }
  if (sub.status == SubmitStatus::Accepted) {
    queue_cv_.notify_one();
    return sub;
  }
  // Graceful degradation: a backpressure rejection may instead be
  // answered from the previous-epoch generation (stale-serve mode only;
  // the result carries stale=true). The submission then counts as
  // accepted + completed, never as rejected.
  Outcome out;
  if (sub.status == SubmitStatus::QueueFull &&
      find_stale_answer(item, out.result)) {
    sub.status = SubmitStatus::Accepted;
  } else {
    out.kind = Outcome::Kind::Rejected;
    out.code = ErrorCode::Overloaded;
    sub.result = {};  // rejected submissions carry no future
  }
  settle(item, std::move(out), nullptr);
  return sub;
}

QueryResult GraphService::query(Query q, RetryPolicy retry) {
  double backoff_ms = retry.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    Submission sub = submit(q);  // keep q for a possible retry
    if (sub.accepted()) return sub.result.get();
    // Stopped is terminal; QueueFull is the retryable overload signal.
    if (sub.status == SubmitStatus::Stopped || attempt >= retry.max_attempts)
      throw ServiceError(ErrorCode::Overloaded,
                         std::string("GraphService: query rejected (") +
                             to_string(sub.status) + ")");
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.0, backoff_ms)));
    backoff_ms = std::min(backoff_ms * retry.multiplier,
                          retry.max_backoff_ms);
  }
}

std::uint64_t GraphService::publish(
    std::shared_ptr<const Graph> graph, order::Partitioning partitioning,
    std::shared_ptr<const Permutation> perm, const algo::EdgeDelta* delta) {
  // Stream-path stage span (writer thread): covers the store publish
  // AND the cache invalidation/rotation/refresh that makes the epoch
  // visible. StageScope, not SpanScope: the flight recorder sees
  // publishes too.
  Timer wall;
  std::uint64_t v = 0;
  {
    obs::StageScope span(obs::SpanKind::Publish);
    const std::uint64_t prev_v = store_.version();
    // `perm` is copied, not moved: the cache records it and the refresh
    // path re-translates payloads through it.
    v = store_.publish(std::move(graph), std::move(partitioning), perm);
    if (span.live()) span.span().a = v;
    if (opts_.refresh_on_publish && opts_.enable_cache && delta != nullptr) {
      refresh_cache(prev_v, v, *delta, perm);
    } else {
      MutexLock lk(cache_mutex_);
      cache_.advance_to(v, std::move(perm));
    }
  }
  // Anomaly trigger: a stalled publish means readers are pinned to an
  // aging epoch — exactly the moment to freeze the black box.
  if (wall.elapsed_ms() >= kAnomalyPublishStallMs) {
    obs::FlightRecorder& rec = obs::FlightRecorder::instance();
    if (rec.armed()) rec.trigger("publish-stall");
  }
  return v;
}

std::uint64_t GraphService::publish_session(stream::StreamSession& session) {
  // shared_snapshot() refreshes on the calling (writer) thread, so all
  // snapshot+reorder cost lands here, never on a reader.
  std::shared_ptr<const Graph> snap = session.shared_snapshot();
  auto perm = std::make_shared<const Permutation>(
      session.maintainer().ordering().perm);
  // Drain unconditionally, not just in refresh mode: the accumulator
  // must reset at every publish boundary so a later mode flip cannot
  // see a delta spanning several epochs.
  const algo::EdgeDelta delta = session.drain_delta();
  return publish(std::move(snap), session.maintainer().partitioning(),
                 std::move(perm), &delta);
}

void GraphService::stop() {
  MutexLock stop_lk(stop_mutex_);
  {
    MutexLock lk(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void GraphService::worker_loop(std::size_t worker_idx) {
  WorkerState& ws = *worker_state_[worker_idx];
  for (;;) {
    Item item;
    {
      // Open-coded wait predicate: a lambda body is a separate function
      // to the thread-safety analysis, so the guarded reads live here,
      // where the capability is visibly held.
      MutexLock lk(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(lk.native_lock());
      if (queue_.empty()) return;  // stopping_ && drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Heartbeat: busy from pickup until settle() right before promise
    // resolution, so health().oldest_running_ms sees queue-stall
    // and run time alike, and a returned future::get() never observes
    // its own query still in flight. process() reuses the stamp as the
    // queue-wait end instead of paying a second clock read per query.
    std::int64_t pickup_us = steady_now_us();
    ws.busy_since_us.store(pickup_us, std::memory_order_release);
    // Chaos hook: a stalled worker between pickup and execution — the
    // window where deadlines lapse after the queue check would pass.
    // The in-flight heartbeat keeps the pre-stall stamp (health must
    // see the age grow), but the telemetry pickup stamp moves past the
    // stall so the kept trace attributes it to queue-side wait.
    if (FaultInjector::instance().delay_point(
            FaultInjector::Hook::WorkerStall))
      pickup_us = steady_now_us();
    process(item, ws, pickup_us);
  }
}

void GraphService::process(Item& item, WorkerState& ws,
                           std::int64_t pickup_us) {
  // Arm the worker's trace ring BEFORE the shed checks: a shed query's
  // capture (queue-wait only) is still forensics — it shows the wait
  // that killed it. One reusable ring serves tail sampling and
  // Query::trace alike; settle() decides what is kept. The admission
  // Timer's start (same steady epoch) is the trace base: no clock read,
  // and the queue-wait span starts at t=0 in the export.
  const std::uint64_t enqueued_ns = item.submitted.start_ns();
  if (item.q.trace || opts_.telemetry.tail_sampling)
    obs::Tracer::begin_reusing(kTraceRingCapacity, enqueued_ns);
  // The armed path pays NO extra clock read here: the worker loop
  // already stamped pickup for the in-flight heartbeat, so the
  // queue-wait end (which doubles as the cache-probe start in execute())
  // is that same stamp, clamped against sub-microsecond truncation.
  std::uint64_t pickup_ns = 0;
  if (obs::stage_wanted()) {
    // The wait already happened, so record it with explicit stamps (its
    // start predates the trace; the exporter clamps). record_stage
    // routes it to the thread's trace AND the flight recorder.
    pickup_ns = std::max(enqueued_ns,
                         static_cast<std::uint64_t>(pickup_us) * 1000);
    record_span(obs::SpanKind::QueueWait, enqueued_ns, pickup_ns);
  }
  Outcome out;
  try {
    // Shed before execution: a queued query whose client already gave up
    // (cancel fired / deadline lapsed) must fail fast — no snapshot pin,
    // no engine lease, no run.
    if (item.ctx.cancelled()) {
      out.shed = true;
      throw ServiceError(ErrorCode::Cancelled, "query cancelled while queued");
    }
    if (item.ctx.deadline_expired()) {
      out.shed = true;
      // Deadline pressure is exactly what stale-serve degrades under: a
      // previous-epoch answer now beats a typed failure.
      if (!find_stale_answer(item, out.result))
        throw ServiceError(
            ErrorCode::DeadlineExceeded,
            "query deadline expired while queued (shed before execution)");
    } else {
      execute(item, pickup_ns, out.result);
    }
  } catch (...) {
    out.kind = Outcome::Kind::Failed;
    out.error = typed_error(out.code);
  }
  settle(item, std::move(out), &ws);
}

void GraphService::execute(Item& item, std::uint64_t pickup_ns,
                           QueryResult& r) {
  const SnapshotRef snap = store_.acquire();
  if (!snap)
    throw ServiceError(ErrorCode::NoSnapshot,
                       "GraphService: no snapshot published yet");
  const algo::AlgorithmSpec* spec = algo::find_spec(item.q.algo);
  if (spec == nullptr)
    throw ServiceError(ErrorCode::BadRequest,
                       "GraphService: unknown algorithm code: " +
                           item.q.algo);

  // Validation failures are the client's fault: BadRequest, never
  // Internal. The source is translated to its snapshot position for the
  // run; `norm` keeps the original id.
  algo::QueryParams norm;
  const bool takes_source = spec->params.find("source") != nullptr;
  const Permutation* perm = snap.perm();
  VertexId source = 0;
  try {
    norm = validated(*spec, item.q);
    if (takes_source)
      source = snapshot_source(norm.get_vertex("source"), perm,
                               snap.graph().num_vertices());
  } catch (const Error& e) {
    throw ServiceError(ErrorCode::BadRequest, e.what());
  }
  r.version = snap.version();

  const CacheKey key = CacheKey::make(spec->code, norm);
  const bool want_payload = item.q.result == ResultKind::Payload;
  // Probe span stamps by hand, not StageScope: the start reuses the
  // pickup read, and a HIT's end is derived from the completion
  // latency (recorded below, once latency is known) — zero extra
  // clock reads on the cache-hit hot path. A miss pays one read here,
  // noise next to the execution that follows.
  std::uint64_t probe_start = 0;
  if (opts_.enable_cache) {
    if (pickup_ns != 0)
      probe_start = pickup_ns;
    else if (obs::stage_wanted())
      probe_start = obs::Tracer::now_ns();
    {
      MutexLock lk(cache_mutex_);
      if (const ResultCache::Value* v = cache_.find(r.version, key)) {
        r.value = v->checksum;
        if (want_payload) r.payload = v->payload;
        r.cache_hit = true;
      }
    }
    if (probe_start != 0 && !r.cache_hit)
      record_span(obs::SpanKind::CacheProbe, probe_start,
                  obs::Tracer::now_ns(), /*a=hit*/ 0);
  }
  if (!r.cache_hit) {
    // Execution-space params: the source translated to its snapshot
    // position. Payload vertex ids come back in snapshot space and are
    // translated once, here in the worker — never under the cache lock.
    algo::QueryParams exec = norm;
    if (takes_source) exec.set("source", source);
    // Lease span with explicit stamps (a scoped span would have to
    // outlive this statement or force a move of the lease).
    const std::uint64_t lease_start =
        obs::stage_wanted() ? obs::Tracer::now_ns() : 0;
    EnginePool::Lease lease = pool_.lease(snap);
    if (lease_start != 0)
      record_span(obs::SpanKind::EngineLease, lease_start,
                  obs::Tracer::now_ns(), snap.version());
    // Chaos hook: a query that fails after the lease was taken — the
    // lease must come back via RAII (invariant: outstanding() drains
    // to zero whatever happens below).
    FaultInjector::instance().failure_point(
        FaultInjector::Hook::QueryThrow, "query execution");
    algo::QueryPayload payload;
    {
      obs::StageScope run(obs::SpanKind::Execute);
      if (run.live()) run.span().a = snap.version();
      // Bind the query's context for the duration of the run: the
      // framework entry points and the algorithms' hand-rolled loops
      // poll it between supersteps, so cancellation / deadline expiry
      // stops the traversal within one superstep. RAII unbind keeps a
      // cancelled run from leaking its context into the engine's next
      // lease.
      Engine::ContextBinding bind(lease.engine(), item.ctx);
      payload = spec->run(lease.engine(), exec, item.ctx);
    }
    lease.release();
    std::shared_ptr<const algo::QueryPayload> shared;
    {
      obs::StageScope tr(obs::SpanKind::Translate);
      if (tr.live()) tr.span().a = payload.num_entries();
      // The fold runs in snapshot order — the order the legacy surface
      // sums in — so checksums stay byte-identical across orderings.
      r.value = spec->checksum(payload);
      // Translation is skipped entirely when nobody will see the
      // payload (checksum-only query, cache off) — scalar answers stay
      // cheap.
      // Chaos hook: allocation failure at the one serve-path allocation
      // that scales with the answer (per-vertex payload copy).
      FaultInjector::instance().failure_point(
          FaultInjector::Hook::AllocThrow, "payload allocation");
      if (want_payload || opts_.enable_cache)
        shared = std::make_shared<const algo::QueryPayload>(
            perm != nullptr ? algo::translate_to_original_ids(payload, *perm)
                            : std::move(payload));
    }
    if (want_payload) r.payload = shared;
    if (opts_.enable_cache) {
      MutexLock lk(cache_mutex_);
      cache_.insert(r.version, key,
                    {r.value, std::move(shared), spec->code, std::move(norm)});
    }
  }
  r.latency_ms = item.submitted.elapsed_ms();
  // The hit probe span closes at completion (lookup through the books),
  // a stamp derived from the latency read above rather than one more
  // clock read on the hot path.
  if (r.cache_hit && probe_start != 0)
    record_span(obs::SpanKind::CacheProbe, probe_start,
                item.submitted.start_ns() +
                    static_cast<std::uint64_t>(r.latency_ms * 1e6),
                /*a=hit*/ 1);
}

void GraphService::settle(Item& item, Outcome out, WorkerState* ws) {
  const bool ok = out.kind == Outcome::Kind::Completed;
  const bool failed = out.kind == Outcome::Kind::Failed;
  QueryResult& r = out.result;
  // Rejections carry no latency sample (the window counts them as
  // errors only).
  const double latency_ms =
      ok ? r.latency_ms : failed ? item.submitted.elapsed_ms() : -1.0;
  {
    MutexLock lk(stats_mutex_);
    --stats_.in_flight;
    if (out.shed)
      ++(out.code == ErrorCode::Cancelled ? stats_.shed_cancelled
                                          : stats_.shed_deadline);
    if (ok) {
      ++stats_.completed;
      if (r.stale)
        ++stats_.stale_served;
      else if (r.cache_hit)
        ++stats_.cache_hits;
    } else {
      ++(failed ? stats_.failed : stats_.rejected);
      ++stats_.errors_by_code[code_index(out.code)];
    }
  }
  if (ok) (ws != nullptr ? ws->latency : submit_latency_).record(latency_ms);
  // Only process() arms a trace ring, on a worker (a submit thread may be
  // a client tracing itself). Query::trace keeps its spans onto the
  // result, unless it failed. Otherwise failures always keep and
  // successes keep iff over the rolling threshold; keep=false is the hot
  // path: disarm, retain the ring, copy nothing.
  if (ws != nullptr && (item.q.trace || opts_.telemetry.tail_sampling)) {
    const std::uint64_t thr =
        keep_threshold_us_.load(std::memory_order_relaxed);
    const bool slow = thr != kNoThreshold &&
                      latency_ms * 1000.0 > static_cast<double>(thr);
    const bool keep = item.q.trace ? ok : !ok || slow;
    obs::Trace t = obs::Tracer::end_reusing(keep);
    if (item.q.trace && ok) {
      r.trace = std::make_shared<const obs::Trace>(std::move(t));
    } else if (keep && !item.q.trace) {
      trace_store_.push(
          {.trace = std::move(t),
           .algo = item.q.algo,
           .reason = ok ? "slow"
                     : out.code == ErrorCode::DeadlineExceeded
                         ? "deadline"
                         : "error:" + std::string(to_string(out.code)),
           .latency_ms = latency_ms,
           .version = ok ? r.version : 0});
    }
  }
  if (window_ != nullptr) {
    // The completion stamp derives from the latency already read; only a
    // rejection (no latency) reads the clock.
    const std::uint64_t now =
        latency_ms < 0 ? obs::Tracer::now_ns()
                       : item.submitted.start_ns() +
                             static_cast<std::uint64_t>(latency_ms * 1e6);
    window_->record(now, item.q.algo, latency_ms,
                    ok ? obs::SlidingWindow::kOk : code_index(out.code));
    maybe_monitor(now);
  }
  if (ws != nullptr) {
    ws->processed.fetch_add(1, std::memory_order_relaxed);
    ws->busy_since_us.store(-1, std::memory_order_release);
  }
  // set_exception, not throw: the worker thread must survive the failure
  // and the client must see it — exactly once each.
  if (ok)
    item.promise.set_value(std::move(r));
  else if (failed)
    item.promise.set_exception(std::move(out.error));
}

void GraphService::maybe_monitor(std::uint64_t now_ns) {
  const auto now_us = static_cast<std::int64_t>(now_ns / 1000);
  std::int64_t last = last_monitor_us_.load(std::memory_order_relaxed);
  // The interval is a steady-state rate limit, not a cold-start delay:
  // while the keep threshold is still "failures only" the window hasn't
  // produced keep_min_samples of evidence yet, so re-evaluate on every
  // settle — the first settle past the minimum arms slow-keep. A burst
  // shorter than the interval must not leave the whole run unarmed.
  const bool cold =
      keep_threshold_us_.load(std::memory_order_relaxed) == kNoThreshold;
  if (last != 0 && !cold &&
      static_cast<double>(now_us - last) <
          opts_.telemetry.monitor_interval_ms * 1000.0)
    return;
  // One winner per interval; losers skip (the winner's pass covers them).
  if (!last_monitor_us_.compare_exchange_strong(last, now_us,
                                                std::memory_order_relaxed))
    return;
  const obs::WindowSnapshot w = window_->snapshot(now_ns);
  // Rolling tail-sampling keep threshold: windowed p99 x factor with an
  // absolute floor; "failures only" until the window has evidence.
  if (w.latency_samples >= opts_.telemetry.keep_min_samples) {
    const double thr_ms =
        std::max(w.p99_ms * kKeepLatencyFactor,
                 opts_.telemetry.keep_min_ms);
    keep_threshold_us_.store(static_cast<std::uint64_t>(thr_ms * 1000.0),
                             std::memory_order_relaxed);
  } else {
    keep_threshold_us_.store(kNoThreshold, std::memory_order_relaxed);
  }
  // Anomaly triggers -> the process flight recorder (rate-limited there).
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  if (!rec.armed()) return;
  if (w.total >= opts_.telemetry.anomaly_min_samples &&
      w.error_rate >= opts_.telemetry.anomaly_error_rate)
    rec.trigger("error-rate-spike");
  double oldest_ms = 0;
  for (const WorkerHealth& wh : worker_health())
    oldest_ms = std::max(oldest_ms, wh.busy_ms);
  if (oldest_ms >= kAnomalyInFlightAgeMs) rec.trigger("in-flight-age");
}

std::vector<WorkerHealth> GraphService::worker_health() const {
  const std::int64_t now_us = steady_now_us();
  std::vector<WorkerHealth> out;
  out.reserve(worker_state_.size());
  for (const auto& ws : worker_state_) {
    WorkerHealth w;
    w.processed = ws->processed.load(std::memory_order_relaxed);
    const std::int64_t since =
        ws->busy_since_us.load(std::memory_order_acquire);
    w.busy = since >= 0;
    // Clamp: the worker may have stamped after our now_us read.
    if (w.busy)
      w.busy_ms =
          static_cast<double>(std::max<std::int64_t>(0, now_us - since)) /
          1000.0;
    out.push_back(w);
  }
  return out;
}

bool GraphService::find_stale_answer(Item& item, QueryResult& r) {
  if (!opts_.serve_stale) return false;
  // The stale key is the same canonical identity a live lookup would
  // use; anything that fails here (unknown code, bad params) just means
  // "no stale answer" — the caller produces the real typed error.
  const algo::AlgorithmSpec* spec = algo::find_spec(item.q.algo);
  if (spec == nullptr) return false;
  CacheKey key;
  try {
    key = CacheKey::make(spec->code, validated(*spec, item.q));
  } catch (...) {
    return false;
  }
  {
    MutexLock lk(cache_mutex_);
    const ResultCache::StaleHit hit = cache_.find_stale(key);
    if (hit.value == nullptr) return false;
    r.value = hit.value->checksum;
    if (item.q.result == ResultKind::Payload) r.payload = hit.value->payload;
    // The epoch the retired generation was computed on — the client can
    // see exactly how stale the answer is.
    r.version = hit.version;
  }
  r.stale = true;
  r.cache_hit = true;
  r.latency_ms = item.submitted.elapsed_ms();
  return true;
}

void GraphService::refresh_cache(
    std::uint64_t prev_version, std::uint64_t new_version,
    const algo::EdgeDelta& delta,
    const std::shared_ptr<const Permutation>& perm) {
  // Phase A (cache lock): take the live generation and open the new
  // one. The generation advances EAGERLY — a concurrent miss computed
  // against the new epoch must land in the new generation, and the
  // reinserts below must find it current. In stale-serve mode the
  // retired generation is the pre-publish one; refreshed entries go into
  // the LIVE generation only, so the stale one stays a faithful picture
  // of the previous epoch.
  ResultCache::Refresh batch;
  {
    MutexLock lk(cache_mutex_);
    batch = cache_.begin_refresh(prev_version, new_version, perm);
  }

  // Phase B (no cache lock): recompute every refreshable entry against
  // the new epoch. Query traffic proceeds concurrently — misses for the
  // new epoch just compute-and-insert as usual.
  std::vector<std::pair<CacheKey, ResultCache::Value>> fresh;
  if (!batch.entries.empty()) {
    const SnapshotRef snap = store_.acquire();
    // Publish-level fallback threshold: a bulk rewrite refreshes
    // nothing (every hook would fall back to a full run anyway — better
    // to let queries recompute on demand than serialize N full runs on
    // the writer thread).
    bool usable = snap && snap.version() == new_version &&
                  static_cast<double>(delta.size()) <=
                      opts_.refresh_max_delta_fraction *
                          static_cast<double>(std::max<EdgeId>(
                              snap.graph().num_edges(), 1));
    // The delta arrives in original ids; the hooks work in snapshot
    // ids. An endpoint outside the permutation means the delta does not
    // match this perm — drop everything rather than refresh wrongly.
    algo::EdgeDelta snap_delta;
    if (usable && perm != nullptr) {
      const auto translate = [&](const std::vector<Edge>& in,
                                 std::vector<Edge>& out) {
        out.reserve(in.size());
        for (const Edge& e : in) {
          if (e.src >= perm->size() || e.dst >= perm->size()) return false;
          out.push_back({(*perm)[e.src], (*perm)[e.dst]});
        }
        return true;
      };
      usable = translate(delta.inserted, snap_delta.inserted) &&
               translate(delta.removed, snap_delta.removed);
    }
    if (usable) {
      const algo::EdgeDelta& eng_delta =
          perm != nullptr ? snap_delta : delta;
      EnginePool::Lease lease = pool_.lease(snap);
      const VertexId n = snap.graph().num_vertices();
      for (auto& [key, val] : batch.entries) {
        const algo::AlgorithmSpec* spec = algo::find_spec(val.code);
        if (spec == nullptr || !spec->refresh || val.payload == nullptr)
          continue;
        if (spec->refresh_needs_stable_perm && !batch.perm_stable) continue;
        try {
          Timer hook;
          algo::QueryParams exec = val.params;
          if (spec->params.find("source") != nullptr)
            exec.set("source", snapshot_source(exec.get_vertex("source"),
                                               perm.get(), n));
          // The cached payload is in original ids; hand the hook a view
          // in THIS snapshot's id space. Throws (and drops the entry)
          // when sizes no longer line up — e.g. vertex growth.
          const algo::QueryPayload prev_snap =
              perm != nullptr
                  ? algo::translate_from_original_ids(*val.payload, *perm)
                  : *val.payload;
          const QueryContext& ctx = QueryContext::none();
          algo::QueryPayload out;
          {
            obs::StageScope span(obs::SpanKind::Refresh);
            if (span.live()) span.span().a = new_version;
            Engine::ContextBinding bind(lease.engine(), ctx);
            out = spec->refresh(lease.engine(), exec, prev_snap, eng_delta,
                                ctx);
          }
          // Checksum in snapshot order, translate after — the exact
          // sequence execute() runs, so a refreshed entry is
          // indistinguishable from a recomputed one.
          val.checksum = spec->checksum(out);
          val.payload = std::make_shared<const algo::QueryPayload>(
              perm != nullptr ? algo::translate_to_original_ids(out, *perm)
                              : std::move(out));
          {
            MutexLock slk(stats_mutex_);
            auto& [count, total_ms] = refresh_lat_[val.code];
            ++count;
            total_ms += hook.elapsed_ms();
          }
          fresh.emplace_back(key, std::move(val));
        } catch (...) {
          // Refresh is best-effort: a throwing hook degrades to the
          // plain invalidation this entry would have gotten anyway.
        }
      }
    }
  }

  // Phase C (cache lock): reinsert, unless yet another publish already
  // superseded the generation we refreshed for.
  batch.entries = std::move(fresh);
  std::size_t reinserted = 0;
  {
    MutexLock lk(cache_mutex_);
    reinserted = cache_.finish_refresh(std::move(batch));
  }
  MutexLock slk(stats_mutex_);
  stats_.refreshes += reinserted;
}

std::vector<GraphService::RefreshLatency> GraphService::refresh_latency()
    const {
  MutexLock lk(stats_mutex_);
  std::vector<RefreshLatency> out;
  out.reserve(refresh_lat_.size());
  for (const auto& [algo, slot] : refresh_lat_)
    out.push_back({algo, slot.first, slot.second});
  return out;  // std::map iteration order == sorted by algo code
}

ServiceHealth GraphService::health() const {
  ServiceHealth h;
  {
    MutexLock lk(queue_mutex_);
    h.accepting = !stopping_;
    h.queue_depth = queue_.size();
  }
  h.workers = worker_health();
  for (const WorkerHealth& w : h.workers) {
    h.in_flight += w.busy ? 1 : 0;
    h.oldest_running_ms = std::max(h.oldest_running_ms, w.busy_ms);
  }
  if (window_ != nullptr) {
    const obs::WindowSnapshot w = window_->snapshot(obs::Tracer::now_ns());
    h.window_samples = w.total;
    h.window_qps = w.qps;
    h.window_error_rate = w.error_rate;
    h.window_p50_ms = w.p50_ms;
    h.window_p95_ms = w.p95_ms;
    h.window_p99_ms = w.p99_ms;
    const obs::SloStatus s = slo_.evaluate(w);
    h.availability = s.availability;
    h.burn_rate = s.burn_rate;
    h.latency_burn_rate = s.latency_burn_rate;
    h.slo_healthy = s.healthy;
  }
  h.traces_captured = trace_store_.captured();
  const std::uint64_t thr = keep_threshold_us_.load(std::memory_order_relaxed);
  h.slow_keep_threshold_ms =
      thr == kNoThreshold ? 0 : static_cast<double>(thr) / 1000.0;
  return h;
}

void GraphService::LatencyRecorder::record(double latency_ms) {
  // Log-bucketed microseconds (~6% resolution, bounded bin count — a
  // one-off multi-second outlier must not balloon the histogram). 0
  // rounds up to 1us so the p50 of all-cache-hit workloads is not
  // reported as exactly zero.
  const auto us = static_cast<std::uint64_t>(
      std::max(1.0, latency_ms * 1000.0));
  const std::uint64_t bucket = log_bucket(us);
  MutexLock lk(mutex_);
  buckets_.add(bucket);
  sum_ms_ += latency_ms;
}

void GraphService::LatencyRecorder::merge_into(Histogram& h,
                                               double& sum_ms) const {
  MutexLock lk(mutex_);
  h.merge(buckets_);
  sum_ms += sum_ms_;
}

GraphServiceStats GraphService::stats() const {
  GraphServiceStats s;
  {
    MutexLock lk(stats_mutex_);
    s = stats_;
  }
  MutexLock lk(cache_mutex_);
  s.invalidations = cache_.wipes();
  s.evictions = cache_.evictions();
  return s;
}

LatencySummary GraphService::latency() const {
  // Recorders are locked one at a time (no nesting), so workers keep
  // recording.
  Histogram merged;
  double sum_ms = 0;
  submit_latency_.merge_into(merged, sum_ms);
  for (const auto& ws : worker_state_) ws->latency.merge_into(merged, sum_ms);
  LatencySummary s;
  s.samples = merged.total();
  if (s.samples == 0) return s;
  const auto quantile_ms = [&merged](double q) {
    return static_cast<double>(
               log_bucket_floor(merged.value_at_quantile(q))) /
           1e3;
  };
  s.p50_ms = quantile_ms(0.50);
  s.p95_ms = quantile_ms(0.95);
  s.p99_ms = quantile_ms(0.99);
  s.mean_ms = sum_ms / static_cast<double>(s.samples);
  return s;
}

void GraphService::collect_metrics(std::vector<obs::MetricSample>& out) const {
  using obs::MetricSample;
  using obs::MetricType;
  auto emit = [&out](MetricType type, const char* name, const char* help,
                     double value,
                     std::vector<std::pair<std::string, std::string>> labels =
                         {}) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.type = type;
    s.labels = std::move(labels);
    s.value = value;
    out.push_back(std::move(s));
  };
  auto counter = [&emit](const char* name, const char* help,
                         std::uint64_t value,
                         std::vector<std::pair<std::string, std::string>>
                             labels = {}) {
    emit(MetricType::Counter, name, help, static_cast<double>(value),
         std::move(labels));
  };
  auto quantiles = [&emit](const char* name, const char* help, double p50,
                           double p95, double p99) {
    emit(MetricType::Summary, name, help, p50, {{"quantile", "0.5"}});
    emit(MetricType::Summary, name, help, p95, {{"quantile", "0.95"}});
    emit(MetricType::Summary, name, help, p99, {{"quantile", "0.99"}});
  };

  const GraphServiceStats st = stats();
  counter("vebo_service_submitted_total",
          "queries ever submitted (accepted or rejected)", st.submitted);
  counter("vebo_service_rejected_total", "submits rejected by backpressure",
          st.rejected);
  counter("vebo_service_completed_total", "queries answered successfully",
          st.completed);
  counter("vebo_service_failed_total", "queries completed exceptionally",
          st.failed);
  emit(MetricType::Gauge, "vebo_service_in_flight",
       "accepted queries not yet settled",
       static_cast<double>(st.in_flight));
  counter("vebo_service_shed_total", "accepted queries shed before execution",
          st.shed_deadline, {{"reason", "deadline"}});
  counter("vebo_service_shed_total", "accepted queries shed before execution",
          st.shed_cancelled, {{"reason", "cancelled"}});
  counter("vebo_service_stale_served_total",
          "answers served from the retired cache generation", st.stale_served);
  for (std::size_t i = 0; i < kNumErrorCodes; ++i)
    counter("vebo_service_errors_total", "failures by ServiceError code",
            st.errors_by_code[i],
            {{"code", to_string(static_cast<ErrorCode>(i))}});

  // Result cache: hits come from the service ledger, wipes, occupancy
  // and evictions from the cache itself.
  counter("vebo_cache_hits_total",
          "queries answered from the live cache generation", st.cache_hits);
  counter("vebo_cache_invalidations_total",
          "cache generations wiped or rotated by publish", st.invalidations);
  counter("vebo_cache_refreshes_total",
          "entries refreshed in place across a publish (refresh_on_publish)",
          st.refreshes);
  for (const RefreshLatency& rl : refresh_latency()) {
    emit(MetricType::Gauge, "vebo_cache_refresh_latency_ms_sum",
         "total wall time spent in refresh hooks", rl.total_ms,
         {{"algo", rl.algo}});
    emit(MetricType::Gauge, "vebo_cache_refresh_latency_ms_count",
         "refresh-hook invocations", static_cast<double>(rl.count),
         {{"algo", rl.algo}});
  }
  counter("vebo_cache_evictions_total",
          "entries LRU-evicted from a full cache", st.evictions);
  {
    MutexLock lk(cache_mutex_);
    emit(MetricType::Gauge, "vebo_cache_entries",
         "live-generation entries resident",
         static_cast<double>(cache_.size()));
    emit(MetricType::Gauge, "vebo_cache_stale_entries",
         "retired-generation entries resident",
         static_cast<double>(cache_.stale_size()));
  }

  const EnginePoolStats ps = pool_.stats();
  counter("vebo_pool_engines_created_total", "engine contexts ever constructed",
          ps.created);
  counter("vebo_pool_leases_total", "engine leases handed out", ps.leases);
  counter("vebo_pool_rebinds_total", "leases that crossed a snapshot version",
          ps.rebinds);
  counter("vebo_pool_waits_total", "leases that blocked on a full pool",
          ps.waits);

  const SnapshotStoreStats ss = store_.stats();
  counter("vebo_snapshots_published_total", "epochs ever published",
          ss.published);
  counter("vebo_snapshots_reclaimed_total",
          "epochs whose last reference dropped", ss.reclaimed);
  emit(MetricType::Gauge, "vebo_snapshots_live", "published - reclaimed",
       static_cast<double>(ss.live));

  const LatencySummary ls = latency();
  quantiles("vebo_service_latency_ms",
            "submit-to-completion latency quantiles", ls.p50_ms, ls.p95_ms,
            ls.p99_ms);
  emit(MetricType::Gauge, "vebo_service_latency_ms_sum",
       "total latency over all samples",
       ls.mean_ms * static_cast<double>(ls.samples));
  emit(MetricType::Gauge, "vebo_service_latency_ms_count",
       "latency samples recorded", static_cast<double>(ls.samples));

  // The always-on window (PR 8): what is happening RIGHT NOW, next to
  // the cumulative trajectory above. Names end in _window so dashboards
  // can't confuse a 10-second rate with a since-boot counter.
  if (window_ != nullptr) {
    const obs::WindowSnapshot w = window_->snapshot(obs::Tracer::now_ns());
    const obs::SloStatus slo = slo_.evaluate(w);
    emit(MetricType::Gauge, "vebo_service_qps_window",
         "settled queries per second over the sliding window", w.qps);
    emit(MetricType::Gauge, "vebo_service_error_rate_window",
         "windowed error fraction of settled queries", w.error_rate);
    emit(MetricType::Gauge, "vebo_service_window_samples",
         "settled queries inside the sliding window",
         static_cast<double>(w.total));
    for (std::size_t i = 0; i < kNumErrorCodes && i < w.errors_by_code.size();
         ++i)
      emit(MetricType::Gauge, "vebo_service_errors_window",
           "windowed failures by ServiceError code",
           static_cast<double>(w.errors_by_code[i]),
           {{"code", to_string(static_cast<ErrorCode>(i))}});
    quantiles("vebo_service_latency_ms_window", "windowed latency quantiles",
              w.p50_ms, w.p95_ms, w.p99_ms);
    for (const obs::AlgoWindowStats& a : w.per_algo) {
      const char* alat_help = "windowed latency quantiles per algorithm";
      emit(MetricType::Summary, "vebo_algo_latency_ms_window", alat_help,
           a.p50_ms, {{"algo", a.algo}, {"quantile", "0.5"}});
      emit(MetricType::Summary, "vebo_algo_latency_ms_window", alat_help,
           a.p99_ms, {{"algo", a.algo}, {"quantile", "0.99"}});
    }
    emit(MetricType::Gauge, "vebo_slo_availability_window",
         "1 - windowed error rate", slo.availability);
    emit(MetricType::Gauge, "vebo_slo_burn_rate",
         "windowed error rate / error budget (1.0 = sustainable pace)",
         slo.burn_rate);
    emit(MetricType::Gauge, "vebo_slo_latency_burn_rate",
         "over-target latency fraction / allowed fraction",
         slo.latency_burn_rate);
  }

  // Tail sampling + flight recorder activity.
  counter("vebo_traces_captured_total",
          "tail-sampled traces kept (slow / deadline / failed)",
          trace_store_.captured());
  emit(MetricType::Gauge, "vebo_traces_stored",
       "keeper traces resident in the trace store",
       static_cast<double>(trace_store_.size()));
  counter("vebo_recorder_dumps_total",
          "flight-recorder dumps taken (process-wide)",
          obs::FlightRecorder::instance().dumps());
}

}  // namespace vebo::serve
