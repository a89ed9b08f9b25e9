// Parallel entanglement pipeline: ThreadPool, ConcurrentBlockStore and
// ParallelEncoder. The load-bearing property is byte-identity — the
// strand-pipelined encoder must produce exactly the blocks the serial
// Encoder produces (paper §V-B: partial writes reorder work, never
// results).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "common/check.h"
#include "common/rng.h"
#include "core/codec/encoder.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/thread_pool.h"
#include "core/codec/file_block_store.h"
#include "tools/archive.h"

namespace aec {
namespace {

using pipeline::ConcurrentBlockStore;
using pipeline::LockedBlockStore;
using pipeline::ParallelEncoder;
using pipeline::ThreadPool;

constexpr std::size_t kBlockSize = 64;

std::vector<Bytes> random_blocks(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(kBlockSize));
  return blocks;
}

/// Serial reference encoding of `blocks`; returns the resulting store.
InMemoryBlockStore serial_reference(const CodeParams& params,
                                    const std::vector<Bytes>& blocks) {
  InMemoryBlockStore store;
  Encoder enc(params, kBlockSize, &store);
  enc.append_all(blocks);
  return store;
}

/// Every block of `expected` present and byte-identical in `actual`, and
/// no extras.
void expect_stores_identical(const InMemoryBlockStore& expected,
                             const ConcurrentBlockStore& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  expected.for_each([&](const BlockKey& key, const Bytes& value) {
    const auto copy = actual.get_copy(key);
    ASSERT_TRUE(copy.has_value()) << to_string(key);
    ASSERT_EQ(*copy, value) << to_string(key);
  });
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, BackpressureBoundsTheQueueWithoutLosingTasks) {
  // Capacity 2 with 1 worker: submit() must block rather than overflow or
  // drop; all tasks still complete.
  ThreadPool pool(1, 2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskError) {
  ThreadPool pool(2);
  pool.submit([] { throw CheckError("task failed"); });
  EXPECT_THROW(pool.wait_idle(), CheckError);
  // The pool survives the error and keeps working.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
}

// --- ConcurrentBlockStore ---------------------------------------------------

TEST(ConcurrentBlockStore, BasicStoreContract) {
  ConcurrentBlockStore store;
  const BlockKey key = BlockKey::data(7);
  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.find(key), nullptr);
  store.put(key, Bytes{1, 2, 3});
  EXPECT_TRUE(store.contains(key));
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(*store.find(key), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.size(), 1u);
  store.put(key, Bytes{4});  // overwrite
  EXPECT_EQ(*store.find(key), Bytes{4});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ConcurrentBlockStore, GetCopyAndForEach) {
  ConcurrentBlockStore store(4);
  for (NodeIndex i = 1; i <= 100; ++i)
    store.put(BlockKey::data(i), Bytes(8, static_cast<std::uint8_t>(i)));
  EXPECT_FALSE(store.get_copy(BlockKey::data(999)).has_value());
  const auto copy = store.get_copy(BlockKey::data(42));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, Bytes(8, 42));
  std::size_t visited = 0;
  store.for_each([&](const BlockKey& key, const Bytes& value) {
    ++visited;
    EXPECT_EQ(value, Bytes(8, static_cast<std::uint8_t>(key.index)));
  });
  EXPECT_EQ(visited, 100u);
}

TEST(ConcurrentBlockStore, ConcurrentPutsFromManyThreadsAllLand) {
  ConcurrentBlockStore store;
  ThreadPool pool(8);
  constexpr int kPerThreadKeys = 500;
  for (int t = 0; t < 8; ++t) {
    pool.submit([&store, t] {
      for (int i = 0; i < kPerThreadKeys; ++i) {
        const auto index =
            static_cast<NodeIndex>(t * kPerThreadKeys + i + 1);
        store.put(BlockKey::data(index),
                  Bytes(16, static_cast<std::uint8_t>(index % 251)));
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(store.size(), 8u * kPerThreadKeys);
  for (NodeIndex i = 1; i <= 8 * kPerThreadKeys; ++i) {
    const auto copy = store.get_copy(BlockKey::data(i));
    ASSERT_TRUE(copy.has_value()) << i;
    EXPECT_EQ(*copy, Bytes(16, static_cast<std::uint8_t>(i % 251)));
  }
}

TEST(LockedBlockStore, DelegatesToWrappedStore) {
  InMemoryBlockStore inner;
  LockedBlockStore locked(&inner);
  locked.put(BlockKey::data(1), Bytes{9});
  EXPECT_TRUE(locked.contains(BlockKey::data(1)));
  EXPECT_TRUE(inner.contains(BlockKey::data(1)));
  EXPECT_EQ(locked.size(), 1u);
  ASSERT_NE(locked.find(BlockKey::data(1)), nullptr);
  EXPECT_TRUE(locked.erase(BlockKey::data(1)));
  EXPECT_EQ(inner.size(), 0u);
}

// --- ParallelEncoder: serial equivalence ------------------------------------

struct EquivalenceCase {
  CodeParams params;
  std::size_t threads;
  std::size_t blocks;
};

class ParallelEncoderEquivalence
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ParallelEncoderEquivalence, ByteIdenticalToSerialEncoder) {
  const auto& [params, threads, count] = GetParam();
  const auto blocks = random_blocks(count, 101);
  const InMemoryBlockStore expected = serial_reference(params, blocks);

  ConcurrentBlockStore store;
  ThreadPool pool(threads);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  const auto results = enc.append_all(blocks);

  ASSERT_EQ(results.size(), blocks.size());
  EXPECT_EQ(enc.size(), count);
  expect_stores_identical(expected, store);
}

std::string case_name(
    const ::testing::TestParamInfo<EquivalenceCase>& info) {
  return "AE_" + std::to_string(info.param.params.alpha()) + "_" +
         std::to_string(info.param.params.s()) + "_" +
         std::to_string(info.param.params.p()) + "_t" +
         std::to_string(info.param.threads) + "_n" +
         std::to_string(info.param.blocks);
}

INSTANTIATE_TEST_SUITE_P(
    StrandScheduling, ParallelEncoderEquivalence,
    ::testing::Values(
        // The acceptance grid: AE(3,2,5) and AE(3,5,5) across ≥ 10k
        // blocks at 1, 2 and 8 threads. Counts are offset from multiples
        // of s so the last batch ends mid-column.
        EquivalenceCase{CodeParams(3, 2, 5), 1, 10001},
        EquivalenceCase{CodeParams(3, 2, 5), 2, 10001},
        EquivalenceCase{CodeParams(3, 2, 5), 8, 10001},
        EquivalenceCase{CodeParams(3, 5, 5), 1, 10003},
        EquivalenceCase{CodeParams(3, 5, 5), 2, 10003},
        EquivalenceCase{CodeParams(3, 5, 5), 8, 10003},
        // Degenerate and small shapes.
        EquivalenceCase{CodeParams::single(), 4, 257},
        EquivalenceCase{CodeParams(2, 2, 2), 4, 333},
        EquivalenceCase{CodeParams(3, 5, 7), 3, 1234}),
    case_name);

TEST(ParallelEncoder, ResultsMatchSerialAppendResults) {
  const CodeParams params(3, 2, 5);
  const auto blocks = random_blocks(37, 7);

  InMemoryBlockStore serial_store;
  Encoder serial(params, kBlockSize, &serial_store);
  const auto expected = serial.append_all(blocks);

  ConcurrentBlockStore store;
  ThreadPool pool(4);
  ParallelEncoder parallel(params, kBlockSize, &store, &pool);
  const auto actual = parallel.append_all(blocks);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index);
    EXPECT_EQ(actual[i].parities, expected[i].parities);
  }
}

TEST(ParallelEncoder, SingleBlockBatchesInterleaveWithBatches) {
  const CodeParams params(3, 2, 5);
  const auto blocks = random_blocks(100, 23);
  const InMemoryBlockStore expected = serial_reference(params, blocks);

  ConcurrentBlockStore store;
  ThreadPool pool(2);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  enc.append_all({blocks[0]});
  enc.append_all({blocks.begin() + 1, blocks.begin() + 60});
  for (std::size_t i = 60; i < blocks.size(); ++i) enc.append_all({blocks[i]});
  expect_stores_identical(expected, store);
}

TEST(ParallelEncoder, HeadCacheBoundedByStrandCount) {
  const CodeParams params(3, 5, 7);
  ConcurrentBlockStore store;
  ThreadPool pool(4);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  enc.append_all(random_blocks(300, 31));
  EXPECT_EQ(enc.cached_heads(), params.total_strands());
}

TEST(ParallelEncoder, CrashResumeThroughDropHeadCache) {
  // Dropping the head cache mid-stream (broker crash, paper §IV-A) must
  // not change a single byte: heads are re-fetched from the store at the
  // next batch.
  const CodeParams params(3, 2, 5);
  const auto blocks = random_blocks(500, 57);
  const InMemoryBlockStore expected = serial_reference(params, blocks);

  ConcurrentBlockStore store;
  ThreadPool pool(4);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  std::size_t done = 0;
  const std::size_t chunks[] = {1, 99, 3, 250, 147};  // ragged splits
  for (const std::size_t chunk : chunks) {
    enc.append_all(
        {blocks.begin() + static_cast<std::ptrdiff_t>(done),
         blocks.begin() + static_cast<std::ptrdiff_t>(done + chunk)});
    done += chunk;
    enc.drop_head_cache();
    EXPECT_EQ(enc.cached_heads(), 0u);
  }
  ASSERT_EQ(done, blocks.size());
  expect_stores_identical(expected, store);
}

TEST(ParallelEncoder, ResumeCountContinuesAnExistingLattice) {
  const CodeParams params(3, 5, 5);
  const auto blocks = random_blocks(612, 71);
  const InMemoryBlockStore expected = serial_reference(params, blocks);

  ConcurrentBlockStore store;
  ThreadPool pool(4);
  {
    ParallelEncoder first(params, kBlockSize, &store, &pool);
    first.append_all({blocks.begin(), blocks.begin() + 203});
  }
  // A brand-new encoder (fresh process) resumes at block 203 — not a
  // multiple of s = 5, so it restarts mid-column.
  ParallelEncoder second(params, kBlockSize, &store, &pool, 203);
  second.append_all({blocks.begin() + 203, blocks.end()});
  EXPECT_EQ(second.size(), blocks.size());
  expect_stores_identical(expected, store);
}

TEST(ParallelEncoder, RejectsWrongBlockSize) {
  ConcurrentBlockStore store;
  ThreadPool pool(2);
  ParallelEncoder enc(CodeParams(3, 2, 5), kBlockSize, &store, &pool);
  EXPECT_THROW(enc.append_all({Bytes(kBlockSize + 1, 0)}), CheckError);
  EXPECT_THROW(enc.append_all({Bytes(kBlockSize, 0), Bytes(1, 0)}),
               CheckError);
}

// --- Archive integration ----------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              (std::string("aec_pipeline_") + tag + "_" +
               std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ArchiveParallelIngest, MatchesSerialArchiveByteForByte) {
  Rng rng(91);
  const Bytes content = rng.random_block(64 * 257 + 13);
  const CodeParams params(3, 2, 5);

  TempDir serial_dir("serial");
  TempDir parallel_dir("parallel");
  auto serial = tools::Archive::create(serial_dir.path(), params, 64,
                                       /*threads=*/1);
  auto parallel = tools::Archive::create(parallel_dir.path(), params, 64,
                                         /*threads=*/4);
  serial->add_file("big.bin", content);
  parallel->add_file("big.bin", content);
  ASSERT_EQ(serial->blocks(), parallel->blocks());

  // Same logical blocks ⇒ same files on disk, bit for bit.
  FileBlockStore serial_store(serial_dir.path());
  FileBlockStore parallel_store(parallel_dir.path());
  ASSERT_EQ(serial_store.size(), parallel_store.size());
  const Lattice lattice(params, serial->blocks(), Lattice::Boundary::kOpen);
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(serial->blocks()); ++i) {
    const Bytes* a = serial_store.find(BlockKey::data(i));
    const Bytes* b = parallel_store.find(BlockKey::data(i));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(*a, *b) << "d" << i;
    for (StrandClass cls : params.classes()) {
      const BlockKey key = BlockKey::parity(lattice.output_edge(i, cls));
      const Bytes* pa = serial_store.find(key);
      const Bytes* pb = parallel_store.find(key);
      ASSERT_NE(pa, nullptr);
      ASSERT_NE(pb, nullptr);
      ASSERT_EQ(*pa, *pb) << to_string(key);
    }
  }
}

TEST(ArchiveParallelIngest, ReadBackAndRepairAfterDamage) {
  Rng rng(93);
  const Bytes content = rng.random_block(64 * 120 + 5);

  TempDir dir("damage");
  {
    auto archive =
        tools::Archive::create(dir.path(), CodeParams(3, 2, 5), 64, 4);
    archive->add_file("data.bin", content);
  }
  // Reopen (parallel again), damage, and read through lattice repair.
  auto archive = tools::Archive::open(dir.path(), 4);
  EXPECT_GT(archive->inject_damage(0.10, 5), 0u);
  const auto restored = archive->read_file("data.bin");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, content);
}

}  // namespace
}  // namespace aec
