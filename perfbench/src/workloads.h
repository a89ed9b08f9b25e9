// The archive benchmark's workloads. Every workload drives the library
// through its public entry points (Archive, FileWriter, FileReader,
// net::Server/Client, the cluster fault-injection calls) with an Engine
// of 2 workers, AE(3,2,5) and 4 KiB blocks, on inputs generated from the
// seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Flip one byte of one payload the store returns during the timed
  /// reads, to show the correctness gate catches it.
  bool inject_corruption = false;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome run_workload(const Options& options);

/// Ingests one seeded file into a plain and a timed(…) archive and checks
/// that both leave the same block set and, after identical damage, the
/// same missing_blocks(). Returns 0 when they agree.
int run_wrapper_selftest(std::uint64_t seed);

}  // namespace perfbench
