#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

const std::vector<double>& LayerClock::samples(const std::string& layer) const {
  static const std::vector<double> none;
  const auto it = samples_.find(layer);
  return it == samples_.end() ? none : it->second;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

void Report::condition(const std::string& key, const std::string& value) {
  conditions_[key] = "\"" + value + "\"";
}

void Report::condition(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  conditions_[key] = buf;
}

void Report::attempt(bool ok, const std::string& what_if_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // The first few failures name themselves; the count says the rest.
  if (failures_printed_++ < 20)
    std::cerr << "CHECK FAILED: " << what_if_failed << "\n";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::ostringstream cond;
  cond << "{";
  const char* sep = "";
  for (const auto& [k, v] : conditions_) {
    cond << sep << "\"" << k << "\": " << v;
    sep = ", ";
  }
  cond << "}";
  std::cout << "conditions " << cond.str() << "\n";

  const auto& chosen = traced ? layers_ : metrics_;
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  sep = "";
  for (const auto& [k, v] : chosen) {
    out << sep << "\"" << k << "\": {\"value\": " << number(v.value)
        << ", \"unit\": \"" << v.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
