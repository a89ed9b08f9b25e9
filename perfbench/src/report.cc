#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <system_error>


namespace perfbench {

namespace fs = std::filesystem;
namespace obs = aec::obs;

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

CpuTimes cpu_now() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RegistryDelta::begin() { start_ = obs::MetricsRegistry::global().snapshot(); }

void RegistryDelta::end() {
  const obs::MetricsSnapshot now = obs::MetricsRegistry::global().snapshot();
  std::map<std::string, const obs::MetricRow*> before;
  for (const obs::MetricRow& row : start_.rows) before[row.name] = &row;
  for (const obs::MetricRow& row : now.rows) {
    if (row.type == obs::MetricRow::Type::kGauge) continue;
    const auto it = before.find(row.name);
    const obs::MetricRow* prev = it == before.end() ? nullptr : it->second;
    auto [acc_it, inserted] = sum_.try_emplace(row.name);
    obs::MetricRow& acc = acc_it->second;
    if (inserted) {
      acc.name = row.name;
      acc.type = row.type;
      acc.buckets = row.buckets;
      for (auto& bucket : acc.buckets) bucket.second = 0;
    }
    acc.value += row.value - (prev ? prev->value : 0);
    acc.count += row.count - (prev ? prev->count : 0);
    acc.sum += row.sum - (prev ? prev->sum : 0);
    for (std::size_t b = 0; b < acc.buckets.size() && b < row.buckets.size();
         ++b) {
      const std::uint64_t was =
          prev && b < prev->buckets.size() ? prev->buckets[b].second : 0;
      acc.buckets[b].second += row.buckets[b].second - was;
    }
  }
}

std::uint64_t RegistryDelta::counter(const std::string& name) const {
  const auto it = sum_.find(name);
  return it == sum_.end() ? 0 : it->second.value;
}

double RegistryDelta::hist_quantile(const std::string& name, double q) const {
  const auto it = sum_.find(name);
  return it == sum_.end() ? 0.0 : it->second.quantile(q);
}

double RegistryDelta::hist_mean(const std::string& name) const {
  const auto it = sum_.find(name);
  if (it == sum_.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.sum) /
         static_cast<double>(it->second.count);
}

void RegistryDelta::merge(const RegistryDelta& other) {
  for (const auto& [name, row] : other.sum_) {
    auto [it, inserted] = sum_.try_emplace(name, row);
    if (inserted) continue;
    obs::MetricRow& acc = it->second;
    acc.value += row.value;
    acc.count += row.count;
    acc.sum += row.sum;
    for (std::size_t b = 0; b < acc.buckets.size() && b < row.buckets.size();
         ++b)
      acc.buckets[b].second += row.buckets[b].second;
  }
}

ScratchDir::ScratchDir()
    : dir_(fs::current_path() / ".bench_build" / "tmp" /
           ("run-" + std::to_string(::getpid()))) {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

fs::path ScratchDir::fresh_root(const std::string& tag, int rep) const {
  return dir_ / (tag + "-" + std::to_string(rep));
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
