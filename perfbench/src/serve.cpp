// The serving workloads: reads beside writes. A StreamSession holds the
// mutable graph (the rmat27 stand-in, 80% seeded, the rest streamed in)
// behind a GraphService with the shipped defaults (Polymer engines, one
// thread each). Two closed-loop clients send 70% hot repeating keys (PR,
// PRD, CC, and BFS from the 8 highest out-degree vertices) and 30% cold
// unique-source BFS/BC.
// One writer applies 1k-update batches (1/8 removals) and publishes each
// as a new epoch.
//
//  * serve-churn: refresh_on_publish off, so each publish wipes the
//    cache.
//  * refresh-churn: refresh_on_publish on, so cached entries are
//    recomputed at publish instead.
// The writer is open-loop (one batch due every kCadenceMs, lateness
// reported) and identical in both, so the two differ only in the mode.
// Both cap the result cache at kCacheCapacity entries.
//
// After the window the writer stops, and every hot key plus a sample of
// cold keys is served once more and compared with StreamSession::
// query_typed on the same final version; the service ledger must
// balance after stop().
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "algorithms/registry.hpp"
#include "check.hpp"
#include "common.hpp"
#include "gen/datasets.hpp"
#include "serve/graph_service.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"

namespace perfbench {

using namespace vebo;
using serve::GraphService;
using serve::Query;
using serve::Submission;
using stream::EdgeUpdate;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kBatchSize = 1000;
constexpr std::size_t kHotSources = 8;
constexpr std::uint64_t kHotPercent = 70;
constexpr std::size_t kColdSamplesChecked = 8;
/// Set-ups per run (setup_s is their median); one takes ~0.5 s.
constexpr int kServeSetupRepeats = 5;

/// Result-cache capacity in entries, in both workloads: the hot set plus
/// a few hundred one-off answers. With the shipped default (4096) neither
/// workload settles. Under serve-churn each publish wipes a cache that
/// holds however many answers the last second completed (~430-560), so
/// the resident set followed the host's speed. Under refresh-churn the
/// cold BFS answers survive publishes (they have a refresh hook), so the
/// cache grew through the whole window, by ~230 entries and ~125 MiB a
/// second to 2.6 GiB at 20 s, and every publish refreshed more entries
/// than the last. At 256 both caches are full within a second of each
/// epoch.
constexpr std::size_t kCacheCapacity = 256;

/// The writer's cadence. A wiping publish makes every hot PR/PRD key a
/// ~170 ms single-thread recompute, and both clients often miss on it at
/// once (the service does not merge identical in-flight queries); at
/// 250 ms the two workers spent the whole epoch recomputing and the
/// numbers were chaotic. At 1 s both workloads keep up, and a refreshing
/// publish (~0.1 s with kCacheCapacity entries) fits inside one period,
/// so the writer stays on time.
constexpr double kCadenceMs = 1000;

struct Workload {
  double scale;
  bool refresh;
};

Workload workload_for(const Options& opts) {
  return {opts.smoke ? 0.1 : 1.0, opts.workload == "refresh-churn"};
}

/// One client-visible query. Sources are original vertex ids.
struct Key {
  std::string code;
  VertexId source = 0;
  algo::QueryParams extra;  ///< non-source parameters

  Query query(bool payload) const {
    Query q(code);
    q.params = extra;
    if (algo::spec(code).params.find("source") != nullptr)
      q.params.set("source", source);
    if (payload) q.result = serve::ResultKind::Payload;
    return q;
  }
  algo::QueryParams params() const { return query(false).params; }
  std::string name() const { return code + "@" + std::to_string(source); }
};

/// The hot PR/PRD keys run at the converged operating point of the
/// refresh contract (the parameters tests/test_incremental.cpp uses):
/// a warm-started refresh converges to the fixed point and cannot replay
/// a 10-iteration scratch trajectory, so only converged answers are
/// comparable between the two paths (algorithms/incremental.hpp).
std::vector<Key> hot_keys(const std::vector<VertexId>& bfs_sources) {
  std::vector<Key> hot;
  hot.push_back({"PR", 0, algo::QueryParams().set("iterations", 120)});
  hot.push_back({"PRD", 0,
                 algo::QueryParams().set("max_iters", 200).set("epsilon",
                                                                1e-8)});
  hot.push_back({"CC", 0, {}});
  for (VertexId v : bfs_sources) hot.push_back({"BFS", v, {}});
  return hot;
}

/// Everything one set-up builds. The service refers to the store, so the
/// store is declared first (and destroyed last).
struct Setup {
  std::vector<std::vector<EdgeUpdate>> batches;
  std::vector<Key> hot;
  std::vector<VertexId> cold_sources;
  VertexId n = 0;
  EdgeId m = 0;
  std::unique_ptr<stream::StreamSession> session;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<GraphService> service;
  double seconds = 0;
};

std::unique_ptr<Setup> build_setup(const Workload& w, const Options& opts,
                                   LayerClock& clock) {
  Timer total;
  auto s = std::make_unique<Setup>();
  const Graph full = timed(clock, "gen.graph", [&] {
    return gen::make_dataset("rmat27", w.scale, opts.seed);
  });
  // 80% of the edges seed the graph; the rest is the insert stream.
  const auto all = full.coo().edges();
  const std::size_t seed_count = all.size() * 8 / 10;
  std::vector<Edge> seed_edges(all.begin(), all.begin() + seed_count);
  EdgeList seed_el(full.num_vertices(), seed_edges, full.directed());
  seed_el.remove_duplicates();
  const Graph seed = Graph::from_edges(seed_el);
  s->n = seed.num_vertices();
  s->m = seed.num_edges();

  Xoshiro256 rng(opts.seed * 0x9E3779B97F4A7C15ULL + 7);
  const std::size_t nbatches =
      static_cast<std::size_t>(opts.seconds * 1e3 / kCadenceMs) + 2;
  std::size_t next_insert = seed_count;
  for (std::size_t b = 0; b < nbatches; ++b) {
    std::vector<EdgeUpdate> batch;
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      if (i % 8 == 7) {
        const Edge& e = seed_edges[rng.next_below(seed_edges.size())];
        batch.push_back(EdgeUpdate::remove(e.src, e.dst));
      } else {
        if (next_insert == all.size()) next_insert = seed_count;
        const Edge& e = all[next_insert++];
        batch.push_back(EdgeUpdate::insert(e.src, e.dst));
      }
    }
    s->batches.push_back(std::move(batch));
  }

  // Hot BFS sources are the kHotSources highest out-degree vertices (the
  // popular ones); cold sources are the other vertices with an out-edge,
  // in seeded random order, each handed out once.
  std::vector<VertexId> by_degree;
  for (VertexId v = 0; v < seed.num_vertices(); ++v)
    if (seed.out_degree(v) > 0) by_degree.push_back(v);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return seed.out_degree(a) > seed.out_degree(b);
                   });
  s->hot = hot_keys({by_degree.begin(), by_degree.begin() + kHotSources});
  s->cold_sources.assign(by_degree.begin() + kHotSources, by_degree.end());
  for (std::size_t i = s->cold_sources.size(); i > 1; --i)
    std::swap(s->cold_sources[i - 1], s->cold_sources[rng.next_below(i)]);

  stream::SessionOptions so;
  so.model = SystemModel::Polymer;
  s->session = std::make_unique<stream::StreamSession>(seed, so);
  s->store = std::make_unique<serve::SnapshotStore>();
  serve::GraphServiceOptions go;
  go.workers = kWorkers;
  go.engine.model = SystemModel::Polymer;
  go.refresh_on_publish = w.refresh;
  go.cache_capacity = kCacheCapacity;
  s->service = std::make_unique<GraphService>(*s->store, go);
  s->service->publish_session(*s->session);

  // Warm the engine pool (every worker leases, binds and runs) and the
  // cache's hot set before the window opens. Warm-up cold queries use
  // sources the window never hands out.
  std::vector<Submission> warm;
  for (const Key& k : s->hot)
    warm.push_back(s->service->submit(k.query(false)));
  for (const char* code : {"BFS", "BC"}) {
    warm.push_back(
        s->service->submit(Key{code, s->cold_sources.back(), {}}.query(false)));
    s->cold_sources.pop_back();
  }
  for (auto& sub : warm)
    if (sub.accepted()) sub.result.get();
  s->seconds = total.elapsed();
  return s;
}

/// One completed query as the client saw it.
struct Sample {
  double done_s;     ///< resolve time since the window opened
  double latency_ms; ///< submit -> resolved future, queue wait included
  std::uint64_t version;
  bool hit;
  int hot;           ///< index into Setup::hot, -1 for cold
  double value;      ///< checksum fold of the answer
  bool traced;
};

struct WriterEvent {
  double due_s, start_s;
  std::uint64_t version;
  double apply_ms, snapshot_ms, publish_ms;
  bool rebalanced;
};

/// Span time of one traced query, by serve-path stage.
struct SpanSums {
  double queue_wait = 0, cache_probe = 0, lease = 0, execute = 0,
         translate = 0;
  std::uint64_t traces = 0;
};

struct WindowResult {
  std::vector<Sample> samples;
  /// Peak resident set of each whole second of the window, MiB.
  std::vector<double> rss_peak_mb;
  std::vector<WriterEvent> writes;
  std::vector<Key> cold_issued;
  SpanSums spans;
  std::uint64_t rejected = 0, failed = 0;
  std::string writer_error;  ///< set when apply or publish threw
  double elapsed_s = 0;
};

WindowResult run_window(Setup& s, const Options& opts) {
  WindowResult out;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> cold_next{0};
  std::mutex merge_mutex;
  const double trace_from = opts.trace ? opts.seconds / 2 : 1e300;
  Timer window;

  std::thread writer([&] {
    try {
      for (std::size_t b = 0; b < s.batches.size(); ++b) {
        const double due = static_cast<double>(b) * kCadenceMs / 1e3;
        if (due >= opts.seconds) break;
        while (!stop.load() && window.elapsed() < due)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (stop.load()) break;
        WriterEvent e{};
        e.due_s = due;
        e.start_s = window.elapsed();
        Timer t;
        const auto outcome = s.session->apply(s.batches[b]);
        e.apply_ms = t.elapsed_ms();
        e.rebalanced = outcome.rebalance != stream::RebalanceAction::None;
        t.reset();
        s.session->shared_snapshot();  // publish reuses this snapshot
        e.snapshot_ms = t.elapsed_ms();
        t.reset();
        e.version = s.service->publish_session(*s.session);
        e.publish_ms = t.elapsed_ms();
        out.writes.push_back(e);
      }
    } catch (const std::exception& e) {
      out.writer_error = e.what();
    }
  });

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Xoshiro256 rng(opts.seed * 1000003 + c);
      std::vector<Sample> mine;
      std::vector<Key> cold;
      SpanSums spans;
      std::uint64_t rejected = 0, failed = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int hot = -1;
        Key key;
        if (rng.next_below(100) < kHotPercent) {
          hot = static_cast<int>(rng.next_below(s.hot.size()));
          key = s.hot[static_cast<std::size_t>(hot)];
        } else {
          const std::size_t i = cold_next.fetch_add(1);
          key = {i % 2 == 0 ? "BFS" : "BC",
                 s.cold_sources[i % s.cold_sources.size()], {}};
          cold.push_back(key);
        }
        Query q = key.query(false);
        const double start_s = window.elapsed();
        q.trace = start_s >= trace_from;
        Timer t;
        Submission sub = s.service->submit(std::move(q));
        if (!sub.accepted()) {
          ++rejected;
          continue;
        }
        try {
          const serve::QueryResult r = sub.result.get();
          const double lat = t.elapsed_ms();
          mine.push_back({window.elapsed(), lat, r.version, r.cache_hit, hot,
                          r.value, start_s >= trace_from});
          if (r.trace) {
            ++spans.traces;
            for (const obs::Span& sp : r.trace->spans) {
              const double ms = static_cast<double>(sp.dur_ns) / 1e6;
              switch (sp.kind) {
                case obs::SpanKind::QueueWait: spans.queue_wait += ms; break;
                case obs::SpanKind::CacheProbe: spans.cache_probe += ms; break;
                case obs::SpanKind::EngineLease: spans.lease += ms; break;
                case obs::SpanKind::Execute: spans.execute += ms; break;
                case obs::SpanKind::Translate: spans.translate += ms; break;
                default: break;
              }
            }
          }
        } catch (const std::exception& e) {
          ++failed;
          std::cerr << "query " << key.name() << " failed: " << e.what()
                    << "\n";
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      out.samples.insert(out.samples.end(), mine.begin(), mine.end());
      out.cold_issued.insert(out.cold_issued.end(), cold.begin(), cold.end());
      out.spans.queue_wait += spans.queue_wait;
      out.spans.cache_probe += spans.cache_probe;
      out.spans.lease += spans.lease;
      out.spans.execute += spans.execute;
      out.spans.translate += spans.translate;
      out.spans.traces += spans.traces;
      out.rejected += rejected;
      out.failed += failed;
    });
  }

  // The main thread samples the resident set every 2 ms, so each second's
  // peak (a publish's snapshot build on top of a full cache) is caught.
  for (double t = 0; t < opts.seconds; t = window.elapsed()) {
    const auto second = static_cast<std::size_t>(t);
    if (second >= out.rss_peak_mb.size()) out.rss_peak_mb.resize(second + 1);
    out.rss_peak_mb[second] =
        std::max(out.rss_peak_mb[second], current_rss_mb());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  out.elapsed_s = window.elapsed();
  writer.join();
  std::sort(out.samples.begin(), out.samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_s < b.done_s;
            });
  return out;
}

/// Throughput and latency percentiles per whole second of the window,
/// each reported as the median over the seconds, so interference that
/// disturbs a few seconds does not move them. Every second holds one
/// publish (the writer's cadence is one second). Only the samples whose
/// tracing matches `traced` count; seconds without any are skipped.
struct PerSecond {
  double qps = 0, p50_ms = 0, p99_ms = 0;
};

PerSecond per_second(const WindowResult& r, double seconds, bool traced) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::floor(seconds)));
  const double width = std::min(1.0, seconds);
  std::vector<std::vector<double>> lat(n);
  for (const Sample& sm : r.samples) {
    const auto i = static_cast<std::size_t>(sm.done_s / width);
    if (i < n && sm.traced == traced) lat[i].push_back(sm.latency_ms);
  }
  std::vector<double> qps, p50, p99;
  for (const auto& l : lat) {
    if (l.empty()) continue;
    qps.push_back(static_cast<double>(l.size()) / width);
    p50.push_back(quantile(l, 0.5));
    p99.push_back(quantile(l, 0.99));
  }
  return {median(qps), median(p50), median(p99)};
}

/// Median time from each batch's due time to the first answer computed on
/// an epoch that contains it. Batches no answer followed are skipped.
double fresh_answer_ms(const WindowResult& r) {
  std::vector<double> fresh;
  for (const WriterEvent& e : r.writes)
    for (const Sample& sm : r.samples)
      if (sm.version >= e.version) {
        fresh.push_back((sm.done_s - e.due_s) * 1e3);
        break;
      }
  return median(fresh);
}

/// Latency of the first computed (cache-miss) answer on each new epoch.
double first_query_ms(const WindowResult& r) {
  std::vector<double> first;
  for (const WriterEvent& e : r.writes)
    for (const Sample& sm : r.samples)
      if (sm.version == e.version && !sm.hit) {
        first.push_back(sm.latency_ms);
        break;
      }
  return median(first);
}

/// In-window consistency: every answer to one hot key on one epoch is the
/// same answer, whether computed, cached or refreshed.
void check_window(const WindowResult& r, const Setup& s, Tolerance tolerance,
                  Report& report) {
  std::map<std::pair<int, std::uint64_t>, double> seen;
  for (const Sample& sm : r.samples) {
    if (sm.hot < 0) {
      report.attempt(true);
      continue;
    }
    const auto [it, first] =
        seen.emplace(std::make_pair(sm.hot, sm.version), sm.value);
    const Key& k = s.hot[static_cast<std::size_t>(sm.hot)];
    const bool ok = first || checksums_agree(k.code, it->second, sm.value,
                                             tolerance);
    if (ok) {
      report.attempt(true);
      continue;
    }
    std::ostringstream why;
    why.precision(17);
    why << "hot key " << k.name() << " answered " << sm.value << " and "
        << it->second << " on epoch " << sm.version;
    report.attempt(false, why.str());
  }
  for (std::uint64_t i = 0; i < r.rejected; ++i)
    report.attempt(false, "query rejected (queue full)");
  for (std::uint64_t i = 0; i < r.failed; ++i)
    report.attempt(false, "query failed");
  report.attempt(r.writer_error.empty(), "writer failed: " + r.writer_error);
}

/// Final-version check: served answers equal StreamSession::query_typed.
void check_final(Setup& s, const WindowResult& r, const Options& opts,
                 Tolerance tolerance, Report& report) {
  std::vector<Key> keys = s.hot;
  const std::size_t step =
      std::max<std::size_t>(1, r.cold_issued.size() / kColdSamplesChecked);
  for (std::size_t i = 0; i < r.cold_issued.size() &&
                          keys.size() < s.hot.size() + kColdSamplesChecked;
       i += step)
    keys.push_back(r.cold_issued[i]);
  const std::uint64_t version = s.store->version();
  report.attempt(r.writes.empty() || r.writes.back().version == version,
                 "last publish is not the store's version");
  bool first = true;
  for (const Key& k : keys) {
    const serve::QueryResult got = s.service->query(k.query(true));
    report.attempt(got.version == version,
                   k.name() + " served on epoch " +
                       std::to_string(got.version) + ", store is at " +
                       std::to_string(version));
    const algo::QueryPayload want = s.session->query_typed(k.code, k.params());
    algo::QueryPayload served = *got.payload;
    if (opts.corrupt && first) served = perturbed(served);
    first = false;
    const std::string why =
        compare_payloads(k.code, served, want, s.n, tolerance);
    report.attempt(why.empty(), "served " + k.name() + " vs session: " + why);
  }
}

}  // namespace

void run_serve(const Options& opts, Report& report) {
  const Workload w = workload_for(opts);
  LayerClock setup_clock;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    s.reset();
    s = build_setup(w, opts, setup_clock);
    setup_s.push_back(s->seconds);
  }
  report.condition("dataset", std::string("rmat27"));
  report.condition("scale", w.scale);
  report.condition("n", static_cast<double>(s->n));
  report.condition("m", static_cast<double>(s->m));
  report.condition("workers", static_cast<double>(kWorkers));
  report.condition("clients", static_cast<double>(kClients));
  report.condition("refresh_on_publish", w.refresh ? 1.0 : 0.0);
  report.condition("cadence_ms", kCadenceMs);
  report.condition("cache_capacity", static_cast<double>(kCacheCapacity));
  std::cerr << "rmat27 seed graph n=" << s->n << " m=" << s->m << ", set-up "
            << median(setup_s) << " s (median of " << kServeSetupRepeats
            << ")\n";

  const auto pool0 = s->service->engine_pool().stats();
  const auto stats0 = s->service->stats();
  const WindowResult r = run_window(*s, opts);
  const auto pool1 = s->service->engine_pool().stats();
  const auto stats1 = s->service->stats();
  // With refresh on, a hot answer may be refreshed or recomputed.
  const Tolerance tolerance =
      w.refresh ? Tolerance::Refresh : Tolerance::Scratch;
  check_window(r, *s, tolerance, report);
  check_final(*s, r, opts, tolerance, report);

  std::vector<double> lat;
  std::size_t hits = 0;
  for (const Sample& sm : r.samples) {
    lat.push_back(sm.latency_ms);
    hits += sm.hit ? 1 : 0;
  }
  const double nwrites =
      static_cast<double>(std::max<std::size_t>(1, r.writes.size()));
  report.condition("publishes", static_cast<double>(r.writes.size()));
  report.condition("query_samples", static_cast<double>(lat.size()));
  std::cerr << lat.size() << " queries, " << r.writes.size()
            << " publishes in " << r.elapsed_s << " s\n";

  std::cerr << "peak resident set per second (MiB):";
  for (double mb : r.rss_peak_mb) std::cerr << " " << std::lround(mb);
  std::cerr << "\n";

  if (!opts.trace) {
    report.metric("setup_s", median(setup_s), "s");
    const PerSecond ps = per_second(r, opts.seconds, false);
    report.metric("qps", ps.qps, "1/s");
    report.metric("query_p99_ms", ps.p99_ms, "ms");
    report.metric("fresh_answer_ms", fresh_answer_ms(r), "ms");
    report.metric("peak_rss_mb", median(r.rss_peak_mb), "MiB");
  } else {
    // The untraced first half of the window.
    report.layer("query.p50_ms", per_second(r, opts.seconds, false).p50_ms,
                 "ms");
    std::vector<double> apply, snap, publish, lag;
    double rebalances = 0;
    for (const WriterEvent& e : r.writes) {
      apply.push_back(e.apply_ms);
      snap.push_back(e.snapshot_ms);
      publish.push_back(e.publish_ms);
      lag.push_back((e.start_s - e.due_s) * 1e3);
      rebalances += e.rebalanced ? 1 : 0;
    }
    report.layer("gen.graph_s", setup_clock.median_of("gen.graph"), "s");
    report.layer("stream.apply_ms", median(apply), "ms");
    report.layer("stream.snapshot_ms", median(snap), "ms");
    report.layer("stream.rebalances", rebalances, "count");
    report.layer("serve.publish_ms", median(publish), "ms");
    report.layer("serve.first_query_ms", first_query_ms(r), "ms");
    report.layer("serve.cache_hit_ratio",
                 static_cast<double>(hits) / std::max<double>(1, lat.size()),
                 "ratio");
    report.layer("serve.engine_rebinds",
                 static_cast<double>(pool1.rebinds - pool0.rebinds), "count");
    report.layer("serve.writer_lag_ms",
                 lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()),
                 "ms");
    double refresh_ms = 0;
    for (const auto& rl : s->service->refresh_latency())
      refresh_ms += rl.total_ms;
    report.layer("incr.refreshes_per_publish",
                 static_cast<double>(stats1.refreshes - stats0.refreshes) /
                     nwrites,
                 "count");
    report.layer("incr.refresh_ms", refresh_ms / nwrites, "ms");
    const double traces = std::max<double>(1, r.spans.traces);
    report.layer("span.queue_wait_ms", r.spans.queue_wait / traces, "ms");
    report.layer("span.cache_probe_ms", r.spans.cache_probe / traces, "ms");
    report.layer("span.lease_ms", r.spans.lease / traces, "ms");
    report.layer("span.execute_ms", r.spans.execute / traces, "ms");
    report.layer("span.translate_ms", r.spans.translate / traces, "ms");
    double plain = 0, traced = 0;
    for (const Sample& sm : r.samples) (sm.traced ? traced : plain) += 1;
    const double half = opts.seconds / 2;
    const double plain_qps = plain / half;
    const double traced_qps = traced / (r.elapsed_s - half);
    report.layer("obs.trace_overhead",
                 plain_qps > 0 ? 1.0 - traced_qps / plain_qps : 0, "ratio");
    report.layer("query.samples", static_cast<double>(lat.size()), "count");
  }

  // The ledger must balance once the service has stopped.
  s->service->stop();
  const auto st = s->service->stats();
  report.attempt(st.submitted == st.completed + st.failed + st.rejected &&
                     st.in_flight == 0,
                 "service ledger does not balance after stop()");
  report.attempt(st.failed == 0 && st.rejected == 0,
                 "service counted failed or rejected queries");
}

}  // namespace perfbench
