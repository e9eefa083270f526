// Shared plumbing for the end-to-end benchmark: command-line options,
// sample statistics, the metric report, and the per-layer clock that
// times calls into the library's public functions from the outside.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "support/timer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny graphs, short windows, every output check on: exercises the
  /// checker, not the system's speed.
  bool smoke = false;
  /// Deliberately perturbs one computed answer before it is checked, so
  /// a test can prove the checker rejects a wrong output.
  bool corrupt = false;
  std::string git_sha = "unknown";
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mb();
/// Current resident set size in MiB (/proc/self/statm).
double current_rss_mb();

// ----------------------------------------------------------------- report

/// Everything one run prints: metrics by name with their unit, the
/// correctness ledger, and the run conditions.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric; print() shows these instead of the end-to-end
  /// metrics on traced runs.
  void layer(const std::string& name, double value, const std::string& unit);
  void condition(const std::string& key, const std::string& value);
  void condition(const std::string& key, double value);

  /// One checked operation (an algorithm run, a served query, a ledger
  /// identity). A failure is printed to stderr with its reason.
  void attempt(bool ok, const std::string& what_if_failed = "");
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  bool traced = false;  ///< print per-layer instead of end-to-end metrics

  /// The conditions line and the result line, both JSON objects; the
  /// result line is the last line of standard output.
  void print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_, layers_;
  std::map<std::string, std::string> conditions_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t failures_printed_ = 0;
};

// ---------------------------------------------------------- layer clock

/// Accumulates wall-time samples per layer name. The benchmark wraps the
/// calls into each layer's public entry points with it; nothing inside
/// the library is instrumented.
class LayerClock {
 public:
  void add(const std::string& layer, double seconds) {
    samples_[layer].push_back(seconds);
  }
  const std::vector<double>& samples(const std::string& layer) const;
  double median_of(const std::string& layer) const {
    return median(samples(layer));
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Times fn() and records the sample under `layer`; returns fn()'s value.
template <typename Fn>
auto timed(LayerClock& clock, const std::string& layer, Fn&& fn) {
  vebo::Timer t;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    clock.add(layer, t.elapsed());
  } else {
    auto out = fn();
    clock.add(layer, t.elapsed());
    return out;
  }
}

/// The workload families; each records its metrics and checks in `report`.
void run_analytics(const Options& opts, Report& report);
void run_serve(const Options& opts, Report& report);

}  // namespace perfbench
