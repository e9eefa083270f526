// The analytics workloads: the paper's Table III sweep, 8 algorithms x
// {Ligra, Polymer, GraphGrind} x {Original, VEBO} = 48 cells, warm, on
// one generated graph. VEBO uses P=4 for Polymer and P=384 for the other
// two models, and its partitioning is handed to the engine as
// explicit_partitioning (bench/table3_runtime.cpp does the same).
//
// Set-up (timed, repeated kSetupRepeats times): generate the graph, order
// it twice, permute twice, construct the six engines, force their lazy
// builds (Engine::prewarm) and run one untimed warm-up query on each.
// The measured window then repeats whole passes; every answer of every
// pass is checked against algo::ref on the executing graph. After the
// window, kFreshProbes more "new ordering goes live" probes give
// fresh_answer_ms enough samples for a steady median.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "algorithms/pagerank.hpp"
#include "algorithms/registry.hpp"
#include "check.hpp"
#include "common.hpp"
#include "framework/engine.hpp"
#include "gen/datasets.hpp"
#include "graph/permute.hpp"
#include "metrics/balance.hpp"
#include "order/partition.hpp"
#include "order/vebo.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using namespace vebo;

namespace {

constexpr VertexId kPaperPartitions = 384;
/// Set-ups per run (setup_s is their median); one takes ~5 s.
constexpr int kSetupRepeats = 3;
/// Extra fresh-answer probes after the window, on top of one per set-up.
/// A probe is memory-bound (a 4.4M-edge relabel and the partitioned COO
/// build, ~1.3 s); with only the set-ups' three samples its median spread
/// 0.21-0.26 over ten seeds.
constexpr int kFreshProbes = 6;
constexpr VertexId kPolymerPartitions = 4;
constexpr SystemModel kModels[] = {SystemModel::Ligra, SystemModel::Polymer,
                                   SystemModel::GraphGrind};

const char* model_key(SystemModel m) {
  switch (m) {
    case SystemModel::Ligra: return "ligra";
    case SystemModel::Polymer: return "polymer";
    default: return "graphgrind";
  }
}

struct Workload {
  std::string dataset;
  double scale;
  /// Source vertex in original ids: the highest out-degree vertex
  /// (power-law: a hub inside the giant component) or vertex 0 (road: a
  /// grid corner, the longest-reaching source of the high-diameter case).
  bool source_is_hub;
};

Workload workload_for(const Options& opts) {
  if (opts.workload == "analytics-powerlaw")
    return {"twitter", opts.smoke ? 0.1 : 1.0, true};
  return {"usaroad", opts.smoke ? 0.25 : 4.0, false};
}

VertexId pick_source(const Graph& g, bool hub) {
  if (!hub) return 0;
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  return best;
}

/// One executing graph: Original, VEBO P=384, or VEBO P=4.
struct Ordering {
  const Graph* graph = nullptr;
  VertexId source = 0;  ///< the workload source in this graph's ids
  Reference ref;
};

struct Cell {
  SystemModel model;
  bool vebo;
  Ordering* ord;
  std::unique_ptr<Engine> eng;
};

/// Everything one set-up builds. Engines point into the graphs, so a
/// Setup is created in place and never moved.
struct Setup {
  Graph g, g384, g4;
  order::VeboResult v384, v4;
  Ordering orig, ord384, ord4;
  std::vector<Cell> cells;  ///< kModels order, Original before VEBO

  double seconds = 0;    ///< the whole set-up
  double fresh_ms = 0;   ///< permute + engine + lazy builds + first answer
};

/// Engine for one cell; `pool` overrides the global pool.
std::unique_ptr<Engine> make_engine(const Setup& s, SystemModel model,
                                    bool vebo, ThreadPool* pool) {
  EngineOptions o;
  o.pool = pool;
  const Graph* g = &s.g;
  if (vebo) {
    const bool polymer = model == SystemModel::Polymer;
    g = polymer ? &s.g4 : &s.g384;
    o.explicit_partitioning =
        polymer ? &s.v4.partitioning : &s.v384.partitioning;
  }
  return std::make_unique<Engine>(*g, model, o);
}

algo::QueryParams params_for(const algo::AlgorithmSpec& spec, VertexId src) {
  algo::QueryParams p;
  if (spec.params.find("source") != nullptr) p.set("source", src);
  return p;
}

/// Lazy builds plus one untimed answer, so no first-touch cost lands in
/// the measured window.
void warm_up(const Engine& eng, VertexId source, LayerClock& clock) {
  timed(clock, "framework.prewarm", [&] { eng.prewarm(); });
  algo::spec("PR").invoke(eng);
  algo::spec("BFS").invoke(eng, params_for(algo::spec("BFS"), source));
}

std::unique_ptr<Setup> build_setup(const Workload& w, std::uint64_t seed,
                                   LayerClock& clock) {
  Timer total;
  auto s = std::make_unique<Setup>();
  s->g = timed(clock, "gen.graph",
               [&] { return gen::make_dataset(w.dataset, w.scale, seed); });
  const VertexId src = pick_source(s->g, w.source_is_hub);
  timed(clock, "order.vebo", [&] {
    s->v384 = order::vebo(s->g, kPaperPartitions);
    s->v4 = order::vebo(s->g, kPolymerPartitions);
  });

  // A new ordering going live (see fresh_probe); its graph and engine
  // become the GraphGrind/VEBO cell.
  Timer fresh;
  s->g384 = timed(clock, "graph.permute",
                  [&] { return permute(s->g, s->v384.perm); });
  auto gg_vebo = make_engine(*s, SystemModel::GraphGrind, true, nullptr);
  timed(clock, "framework.prewarm", [&] { gg_vebo->prewarm(); });
  algo::spec("PR").invoke(*gg_vebo);
  s->fresh_ms = fresh.elapsed_ms();
  algo::spec("BFS").invoke(*gg_vebo,
                           params_for(algo::spec("BFS"), s->v384.perm[src]));

  s->g4 = timed(clock, "graph.permute",
                [&] { return permute(s->g, s->v4.perm); });

  s->orig = {&s->g, src, {}};
  s->ord384 = {&s->g384, s->v384.perm[src], {}};
  s->ord4 = {&s->g4, s->v4.perm[src], {}};
  for (SystemModel m : kModels) {
    for (bool vebo : {false, true}) {
      Ordering* ord = !vebo ? &s->orig
                      : m == SystemModel::Polymer ? &s->ord4
                                                  : &s->ord384;
      Cell c{m, vebo, ord, nullptr};
      if (vebo && m == SystemModel::GraphGrind) {
        c.eng = std::move(gg_vebo);
      } else {
        c.eng = make_engine(*s, m, vebo, nullptr);
        warm_up(*c.eng, ord->source, clock);
      }
      s->cells.push_back(std::move(c));
    }
  }
  s->seconds = total.elapsed();
  return s;
}

/// A new ordering going live, as a user would wait for it: relabel the
/// graph by the P=384 VEBO order, build a GraphGrind engine with VEBO's
/// partitioning, force its lazy builds, and compute the first PR answer.
/// Returns the time in ms; the answer is checked against algo::ref on the
/// relabelled graph.
double fresh_probe(const Setup& s, Report& report, bool corrupt) {
  Timer fresh;
  const Graph g = permute(s.g, s.v384.perm);
  EngineOptions o;
  o.explicit_partitioning = &s.v384.partitioning;
  const Engine eng(g, SystemModel::GraphGrind, o);
  eng.prewarm();
  algo::QueryPayload out = algo::spec("PR").invoke(eng);
  const double ms = fresh.elapsed_ms();
  if (corrupt) out = perturbed(out);
  const std::string why =
      compare_payloads("PR", out, reference_payload("PR", s.ord384.ref),
                       g.num_vertices());
  report.attempt(why.empty(), "fresh-answer probe " + why);
  return ms;
}

/// Checks PRD/BP, which have no reference: identical checksum on every
/// pass of a cell, agreement across the models sharing a graph.
class ChecksumLedger {
 public:
  std::string observe(const std::string& code, const Cell& c, double sum) {
    const auto cell_key = std::make_tuple(code, c.model, c.vebo);
    const auto [it, first] = per_cell_.emplace(cell_key, sum);
    if (!first && it->second != sum)
      return code + " checksum changed between passes on " +
             to_string(c.model);
    const auto graph_key = std::make_pair(code, c.ord->graph);
    const auto [g, gfirst] = per_graph_.emplace(graph_key, sum);
    if (!gfirst && !checksums_agree(code, g->second, sum))
      return code + " checksum disagrees across models on one graph (" +
             to_string(c.model) + ")";
    return "";
  }

 private:
  std::map<std::tuple<std::string, SystemModel, bool>, double> per_cell_;
  std::map<std::pair<std::string, const Graph*>, double> per_graph_;
};

/// Per-cell timings of one pass: seconds[cell index][algorithm index].
using PassTimes = std::vector<std::vector<double>>;

/// Runs one pass over `cells`, checking every answer.
PassTimes run_pass(std::vector<Cell>& cells, ChecksumLedger& ledger,
                   Report& report, bool corrupt_first) {
  const auto& specs = algo::specs();
  PassTimes t(cells.size(), std::vector<double>(specs.size()));
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    Cell& c = cells[ci];
    for (std::size_t ai = 0; ai < specs.size(); ++ai) {
      const auto& spec = specs[ai];
      const algo::QueryParams p = params_for(spec, c.ord->source);
      Timer timer;
      algo::QueryPayload out = spec.invoke(*c.eng, p);
      t[ci][ai] = timer.elapsed();
      if (corrupt_first && ci == 0 && spec.code == "PR") out = perturbed(out);

      std::string why;
      if (has_reference(spec.code)) {
        why = compare_payloads(spec.code, out,
                               reference_payload(spec.code, c.ord->ref),
                               c.ord->graph->num_vertices());
      } else {
        why = ledger.observe(spec.code, c, spec.checksum(out));
      }
      report.attempt(why.empty(), to_string(c.model) +
                                      (c.vebo ? "/VEBO " : "/Original ") +
                                      why);
    }
  }
  return t;
}

double pass_total(const PassTimes& t) {
  double s = 0;
  for (const auto& row : t) s += sum(row);
  return s;
}

/// Runs whole passes until `seconds` of timed work accumulated (one pass
/// at least: a road pass alone takes longer than the window).
std::vector<PassTimes> run_window(std::vector<Cell>& cells,
                                  ChecksumLedger& ledger, Report& report,
                                  double seconds, bool corrupt) {
  std::vector<PassTimes> passes;
  double busy = 0;
  while (passes.empty() || busy < seconds) {
    passes.push_back(run_pass(cells, ledger, report,
                              corrupt && passes.empty()));
    busy += pass_total(passes.back());
  }
  return passes;
}

/// Each cell's median time over the passes, in ms: latency percentiles
/// are taken over these 48 values, so one disturbed pass does not move
/// the tail.
std::vector<double> cell_medians_ms(const std::vector<PassTimes>& passes) {
  std::vector<double> cell_ms;
  for (std::size_t ci = 0; ci < passes[0].size(); ++ci)
    for (std::size_t ai = 0; ai < passes[0][ci].size(); ++ai) {
      std::vector<double> runs;
      for (const auto& p : passes) runs.push_back(p[ci][ai] * 1e3);
      cell_ms.push_back(median(runs));
    }
  return cell_ms;
}

double max_over_mean(const std::vector<double>& v) {
  const double m = mean(v);
  return m > 0 ? *std::max_element(v.begin(), v.end()) / m : 0;
}

void report_layers(Report& report, Setup& s, const LayerClock& setup_clock,
                   const std::vector<PassTimes>& passes,
                   double untraced_qps, double traced_qps) {
  const auto& specs = algo::specs();
  report.layer("gen.graph_s", setup_clock.median_of("gen.graph"), "s");
  report.layer("order.vebo_s", setup_clock.median_of("order.vebo"), "s");
  report.layer("graph.permute_s", setup_clock.median_of("graph.permute"),
               "s");
  // Summed over the engines of one set-up, mean over set-ups.
  const auto& pw = setup_clock.samples("framework.prewarm");
  report.layer("framework.prewarm_s", sum(pw) / kSetupRepeats, "s");

  // The paper's Δ/δ under the 384-partition split.
  const auto orig_profile = metrics::profile_partitions(
      s.g, order::partition_by_destination(s.g, kPaperPartitions));
  const auto vebo_profile =
      metrics::profile_partitions(s.g384, s.v384.partitioning);
  report.layer("order.edge_imbalance.orig",
               static_cast<double>(orig_profile.edge_imbalance()), "count");
  report.layer("order.edge_imbalance.vebo",
               static_cast<double>(vebo_profile.edge_imbalance()), "count");
  report.layer("order.vertex_imbalance.orig",
               static_cast<double>(orig_profile.vertex_imbalance()), "count");
  report.layer("order.vertex_imbalance.vebo",
               static_cast<double>(vebo_profile.vertex_imbalance()), "count");

  // algo.X_s: per-pass sum over the 6 cells; run.M.O_s: per-pass sum
  // over the 8 algorithms. Medians over passes.
  for (std::size_t ai = 0; ai < specs.size(); ++ai) {
    std::vector<double> per_pass;
    for (const auto& p : passes) {
      double t = 0;
      for (const auto& row : p) t += row[ai];
      per_pass.push_back(t);
    }
    report.layer("algo." + specs[ai].code + "_s", median(per_pass), "s");
  }
  for (std::size_t ci = 0; ci < s.cells.size(); ++ci) {
    std::vector<double> per_pass;
    for (const auto& p : passes) per_pass.push_back(sum(p[ci]));
    const Cell& c = s.cells[ci];
    report.layer(std::string("run.") + model_key(c.model) +
                     (c.vebo ? ".vebo_s" : ".orig_s"),
                 median(per_pass), "s");
  }
  // Geomean over algorithms of Original/VEBO cell medians (Table III).
  for (std::size_t ci = 0; ci + 1 < s.cells.size(); ci += 2) {
    double log_sum = 0;
    for (std::size_t ai = 0; ai < specs.size(); ++ai) {
      std::vector<double> o, v;
      for (const auto& p : passes) {
        o.push_back(p[ci][ai]);
        v.push_back(p[ci + 1][ai]);
      }
      log_sum += std::log(median(o) / std::max(median(v), 1e-12));
    }
    report.layer(std::string("paper.vebo_speedup.") +
                     model_key(s.cells[ci].model),
                 std::exp(log_sum / static_cast<double>(specs.size())),
                 "ratio");
  }
  // Measured per-partition balance of one PR iteration.
  for (const Cell& c : s.cells) {
    if (c.model == SystemModel::Ligra) continue;
    const auto times = algo::pagerank_partition_times(*c.eng, 3);
    report.layer(std::string("balance.") + model_key(c.model) +
                     (c.vebo ? ".vebo" : ".orig"),
                 max_over_mean(times), "ratio");
  }
  report.layer("obs.trace_overhead",
               untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0,
               "ratio");
}

/// One pass on engines driven by a 1-thread pool: the single-thread
/// baseline for parallel.speedup_vs_1t. Answers are checked too.
double single_thread_pass(Setup& s, ChecksumLedger& ledger, Report& report) {
  ThreadPool one(1);
  LayerClock scratch;
  std::vector<Cell> cells;
  for (const Cell& c : s.cells) {
    Cell c1{c.model, c.vebo, c.ord, make_engine(s, c.model, c.vebo, &one)};
    warm_up(*c1.eng, c.ord->source, scratch);
    cells.push_back(std::move(c1));
  }
  return pass_total(run_pass(cells, ledger, report, false));
}

}  // namespace

void run_analytics(const Options& opts, Report& report) {
  const Workload w = workload_for(opts);
  LayerClock setup_clock;
  std::vector<double> setup_s, fresh_ms;
  std::unique_ptr<Setup> s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s.reset();  // one set-up alive at a time keeps peak RSS honest
    s = build_setup(w, opts.seed, setup_clock);
    setup_s.push_back(s->seconds);
    fresh_ms.push_back(s->fresh_ms);
  }
  report.condition("dataset", w.dataset);
  report.condition("scale", w.scale);
  report.condition("n", static_cast<double>(s->g.num_vertices()));
  report.condition("m", static_cast<double>(s->g.num_edges()));
  report.condition("source", static_cast<double>(s->orig.source));
  std::cerr << s->g.describe(w.dataset) << "\nset-up " << median(setup_s)
            << " s (median of " << kSetupRepeats << ")\n";

  // References on each executing graph (outside every timed region).
  for (Ordering* o : {&s->orig, &s->ord384, &s->ord4})
    o->ref = make_reference(*o->graph, o->source);

  ChecksumLedger ledger;
  if (!opts.trace) {
    const auto passes =
        run_window(s->cells, ledger, report, opts.seconds, opts.corrupt);
    std::vector<double> pass_s;
    for (const auto& p : passes) pass_s.push_back(pass_total(p));
    const std::vector<double> cell_ms = cell_medians_ms(passes);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("qps", static_cast<double>(cell_ms.size()) / median(pass_s),
                  "1/s");
    report.metric("query_p99_ms", quantile(cell_ms, 0.99), "ms");
    // The probes build a fourth graph; the peak is the set-up's and the
    // window's.
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    for (int i = 0; i < kFreshProbes; ++i)
      fresh_ms.push_back(fresh_probe(*s, report, opts.corrupt && i == 0));
    report.metric("fresh_answer_ms", median(fresh_ms), "ms");
    report.condition("fresh_probes", static_cast<double>(fresh_ms.size()));
    report.condition("passes", static_cast<double>(passes.size()));
    report.condition("query_samples",
                     static_cast<double>(cell_ms.size() * passes.size()));
    std::cerr << passes.size() << " passes (s):";
    for (double t : pass_s) std::cerr << " " << t;
    std::cerr << "\n";
  } else {
    // The traced run: the window is split, untraced then traced, so the
    // per-layer accounting's own cost is measured in the same process.
    const double half = opts.seconds / 2;
    const auto plain = run_window(s->cells, ledger, report, half, opts.corrupt);
    const auto traced = run_window(s->cells, ledger, report, half, false);
    const auto runs = [](const std::vector<PassTimes>& ps) {
      double n = 0;
      for (const auto& p : ps) n += static_cast<double>(p.size() * p[0].size());
      return n;
    };
    const auto qps = [&](const std::vector<PassTimes>& ps) {
      double t = 0;
      for (const auto& p : ps) t += pass_total(p);
      return runs(ps) / t;
    };
    std::vector<double> pass_s;
    for (const auto& p : traced) pass_s.push_back(pass_total(p));
    report_layers(report, *s, setup_clock, traced, qps(plain), qps(traced));
    report.layer("query.p50_ms", quantile(cell_medians_ms(plain), 0.5), "ms");
    std::vector<double> plain_s;
    for (const auto& p : plain) plain_s.push_back(pass_total(p));
    report.layer("sweep.pass_s", median(plain_s), "s");
    const double one = single_thread_pass(*s, ledger, report);
    report.layer("parallel.speedup_vs_1t", one / median(pass_s), "ratio");
    report.layer("query.samples", runs(plain) + runs(traced), "count");
  }
}

}  // namespace perfbench
