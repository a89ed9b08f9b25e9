// aec_perfbench — the archive benchmark (see ../README.md).
//
//   aec_perfbench --workload ingest|serve|node_loss --seed N --seconds S
//                 --trace 0|1 [--inject-corruption]
//   aec_perfbench --selftest [--seed N]
//
// Prints one JSON result line last on stdout and exits 0 only when every
// operation's output was byte-correct.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: aec_perfbench --workload ingest|serve|node_loss "
               "--seed N --seconds S --trace 0|1 [--inject-corruption]\n"
               "       aec_perfbench --selftest [--seed N]\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && out >= 0.0;
}

bool parse_seed(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--inject-corruption") {
      options.inject_corruption = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value &&
               parse_seed(argv[++i], options.seed)) {
    } else if (arg == "--seconds" && has_value &&
               parse_number(argv[++i], number) && number > 0.0) {
      options.seconds = number;
    } else if (arg == "--trace" && has_value &&
               parse_number(argv[++i], number) && number <= 1.0) {
      options.trace = number == 1.0;
    } else {
      return usage();
    }
  }
  try {
    if (selftest) return perfbench::run_wrapper_selftest(options.seed);
    const perfbench::Outcome outcome = perfbench::run_workload(options);
    perfbench::print_result(outcome.correct, outcome.attempted, outcome.failed,
                            outcome.metrics);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aec_perfbench: %s\n", e.what());
    return 1;
  }
}
