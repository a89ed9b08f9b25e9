// Parallel entanglement pipeline throughput: serial Encoder vs the
// strand-pipelined ParallelEncoder at 1/2/4/8 threads (paper §V-B
// partial writes made executable — each of the s + (α−1)·p strand
// instances is an independent XOR chain, walked by one worker task).
//
// Prints MB/s of ingested data and the speedup over the serial baseline,
// and cross-checks that the parallel store is byte-identical to the
// serial one before reporting (a wrong fast encoder is worthless; a
// mismatch exits 1). Scaling is bounded by min(strands, threads, cores):
// on a single-core machine every configuration collapses to ~1×.
//
//   bench_pipeline_throughput [blocks] [block_size]   (default 20000 4096)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.h"
#include "core/codec/encoder.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/thread_pool.h"

namespace {

using namespace aec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Bytes> make_blocks(std::size_t count, std::size_t block_size) {
  Rng rng(2024);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(block_size));
  return blocks;
}

bool stores_match(const InMemoryBlockStore& expected,
                  const pipeline::ConcurrentBlockStore& actual) {
  if (expected.size() != actual.size()) return false;
  bool ok = true;
  expected.for_each([&](const BlockKey& key, const Bytes& value) {
    const auto copy = actual.get_copy(key);
    if (!copy || *copy != value) ok = false;
  });
  return ok;
}

void run(const CodeParams& params, const std::vector<Bytes>& blocks,
         std::size_t block_size) {
  const double mb = static_cast<double>(blocks.size() * block_size) /
                    (1024.0 * 1024.0);
  std::printf("\n%s — %zu blocks × %zu B (%.1f MiB)\n", params.name().c_str(),
              blocks.size(), block_size, mb);

  InMemoryBlockStore serial_store;
  Encoder serial(params, block_size, &serial_store);
  const auto serial_start = Clock::now();
  serial.append_all(blocks);
  const double serial_time = seconds_since(serial_start);
  std::printf("  %-22s %8.1f MB/s\n", "serial Encoder", mb / serial_time);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    pipeline::ThreadPool pool(threads);
    pipeline::ConcurrentBlockStore store;
    pipeline::ParallelEncoder parallel(params, block_size, &store, &pool);
    const auto start = Clock::now();
    parallel.append_all(blocks);
    const double time = seconds_since(start);
    const bool identical = stores_match(serial_store, store);
    std::printf("  strands  × %zu thread%s %8.1f MB/s   %5.2fx  %s\n",
                threads, threads == 1 ? " " : "s", mb / time,
                serial_time / time,
                identical ? "byte-identical" : "MISMATCH!");
    if (!identical) std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t count =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 20000;
  const std::size_t block_size =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 4096;
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  const auto blocks = make_blocks(count, block_size);
  // The strand count s + (α−1)·p bounds the parallelism: 12 strand
  // tasks for AE(3,2,5), 15 for AE(3,5,5).
  run(CodeParams(3, 2, 5), blocks, block_size);
  run(CodeParams(3, 5, 5), blocks, block_size);
  return 0;
}
