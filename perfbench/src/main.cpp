// vebo_perfbench: the repository's end-to-end benchmark program. One
// process generates all load for one workload, checks every answer, and
// prints the run conditions and then one JSON result line.
//
//   vebo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--corrupt] [--git-sha <sha>]
//
// Exit status: 0 when every output check passed, 1 when any failed, 2 on
// a usage error. perfbench/README.md describes workloads and metrics.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"

#ifndef VEBO_PERFBENCH_COMPILER
#define VEBO_PERFBENCH_COMPILER "unknown"
#endif

namespace {

bool is_analytics(const std::string& w) {
  return w == "analytics-powerlaw" || w == "analytics-road";
}

bool is_serve(const std::string& w) {
  return w == "serve-churn" || w == "refresh-churn";
}

int usage(const std::string& why) {
  std::cerr << "vebo_perfbench: " << why
            << "\nusage: vebo_perfbench --workload "
               "<analytics-powerlaw|analytics-road|serve-churn|refresh-churn>"
               " --seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--corrupt] [--git-sha <sha>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opts.workload = value();
      else if (a == "--seed") opts.seed = std::stoull(value());
      else if (a == "--seconds") opts.seconds = std::stod(value());
      else if (a == "--trace") opts.trace = value() != "0";
      else if (a == "--git-sha") opts.git_sha = value();
      else if (a == "--smoke") opts.smoke = true;
      else if (a == "--corrupt") opts.corrupt = true;
      else return usage("unknown argument " + a);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!is_analytics(opts.workload) && !is_serve(opts.workload))
    return usage("unknown workload '" + opts.workload + "'");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  report.traced = opts.trace;
  report.condition("workload", opts.workload);
  report.condition("seed", static_cast<double>(opts.seed));
  report.condition("seconds", opts.seconds);
  report.condition("trace", opts.trace ? 1.0 : 0.0);
  report.condition("smoke", opts.smoke ? 1.0 : 0.0);
  report.condition("threads",
                   static_cast<double>(vebo::ThreadPool::global_threads()));
  report.condition("nproc",
                   static_cast<double>(std::thread::hardware_concurrency()));
  report.condition("compiler", std::string(VEBO_PERFBENCH_COMPILER));
  report.condition("git_sha", opts.git_sha);
  try {
    if (is_analytics(opts.workload))
      perfbench::run_analytics(opts, report);
    else
      perfbench::run_serve(opts, report);
  } catch (const std::exception& e) {
    report.attempt(false, std::string("uncaught exception: ") + e.what());
  }
  report.layer("check.failed_frac",
               static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, report.attempted())),
               "ratio");
  report.print();
  return report.failed() == 0 ? 0 : 1;
}
