// Measurement helpers for the archive benchmark: sample statistics,
// process CPU and memory, deltas of the library's metrics registry over
// timed regions, the scratch directory the workloads build their
// archives in, and the result line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Linear-interpolated q-quantile (q in [0,1]) of the samples; 0 if empty.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// User and system CPU seconds of the whole process so far.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};
CpuTimes cpu_now();
double peak_rss_mib();

/// Sums the change of every counter and histogram of the global metrics
/// registry over a series of begin()/end() regions. Quantiles of a
/// histogram are taken over the accumulated bucket deltas.
class RegistryDelta {
 public:
  void begin();
  void end();
  std::uint64_t counter(const std::string& name) const;
  double hist_quantile(const std::string& name, double q) const;
  /// Exact mean of a histogram's samples (sum / count); 0 when empty.
  double hist_mean(const std::string& name) const;
  /// Adds the deltas `other` accumulated.
  void merge(const RegistryDelta& other);

 private:
  aec::obs::MetricsSnapshot start_;
  std::map<std::string, aec::obs::MetricRow> sum_;
};

/// Benchmark-owned scratch directory (`<cwd>/.bench_build/tmp/run-<pid>`).
/// Every archive root of a run lives under it until the run ends; the
/// destructor removes it, also when the run fails.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// A fresh root path for repetition `rep` (not yet created; the
  /// scratch directory itself is new for every run).
  std::filesystem::path fresh_root(const std::string& tag, int rep) const;
  const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
