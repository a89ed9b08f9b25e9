// RepairPlanner + ParallelRepairer properties.
//
// Three claims are verified against randomized erasures:
//   1. the planner's waves reproduce the historical synchronous-round
//      semantics exactly (an independent reference fixpoint is
//      re-implemented here, predicate by predicate);
//   2. the wave-parallel executor is byte-identical to the serial
//      Decoder::repair_all — same repaired bytes, same round structure,
//      same unrecoverable residue — at 1, 2 and 8 threads, including
//      erasure rates heavy enough to leave residue;
//   3. the user-facing Archive honours its thread count on the repair
//      path without changing any stored byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>
#include <unordered_set>

#include "common/rng.h"
#include "core/codec/decoder.h"
#include "core/codec/encoder.h"
#include "core/codec/repair_planner.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_repairer.h"
#include "pipeline/thread_pool.h"
#include "tools/archive.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 24;

// --- shared helpers ---------------------------------------------------------

std::vector<Bytes> encode_random(const CodeParams& params, std::uint64_t n,
                                 std::uint64_t seed,
                                 InMemoryBlockStore& store) {
  Encoder enc(params, kBlockSize, &store);
  Rng rng(seed);
  std::vector<Bytes> truth;
  for (std::uint64_t i = 0; i < n; ++i) {
    truth.push_back(rng.random_block(kBlockSize));
    enc.append(truth.back());
  }
  return truth;
}

/// Erases a `rate` fraction of all blocks; deterministic for a seed.
void erase_random(const Lattice& lat, double rate, std::uint64_t seed,
                  BlockStore& store) {
  Rng rng(seed);
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    if (rng.bernoulli(rate)) store.erase(BlockKey::data(i));
    for (StrandClass cls : lat.params().classes())
      if (rng.bernoulli(rate))
        store.erase(BlockKey::parity(lat.output_edge(i, cls)));
  }
}

void copy_store(const InMemoryBlockStore& from, BlockStore& to) {
  from.for_each([&](const BlockKey& key, const Bytes& value) {
    to.put(key, value);
  });
}

bool block_key_less(const BlockKey& a, const BlockKey& b) {
  return std::tuple(a.kind, a.cls, a.index) <
         std::tuple(b.kind, b.cls, b.index);
}

std::vector<BlockKey> sorted(std::vector<BlockKey> keys) {
  std::sort(keys.begin(), keys.end(), block_key_less);
  return keys;
}

// --- independent reference: the historical synchronous-round fixpoint -------
// Deliberately re-implemented from the paper's repair rules (one XOR of
// two available blocks, rounds decided against round-start availability)
// rather than calling the planner, so planner bugs cannot self-certify.

struct ReferenceRounds {
  std::vector<std::vector<BlockKey>> rounds;
  std::vector<BlockKey> residue;
};

ReferenceRounds reference_rounds(const Lattice& lat,
                                 const BlockStore& store) {
  std::unordered_set<BlockKey, BlockKeyHash> missing;
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    if (!store.contains(BlockKey::data(i)))
      missing.insert(BlockKey::data(i));
    for (StrandClass cls : lat.params().classes()) {
      const BlockKey pk = BlockKey::parity(lat.output_edge(i, cls));
      if (!store.contains(pk)) missing.insert(pk);
    }
  }
  const auto ok = [&](const BlockKey& key) { return !missing.contains(key); };
  const auto node_ok = [&](NodeIndex i) {
    for (StrandClass cls : lat.params().classes()) {
      const auto in = lat.input_edge(i, cls);
      const bool in_ok = !in || ok(BlockKey::parity(*in));
      if (in_ok && ok(BlockKey::parity(lat.output_edge(i, cls))))
        return true;
    }
    return false;
  };
  const auto edge_ok = [&](Edge e) {
    const auto in = lat.input_edge(e.tail, e.cls);
    if ((!in || ok(BlockKey::parity(*in))) && ok(BlockKey::data(e.tail)))
      return true;
    const NodeIndex j = lat.edge_head(e);
    return lat.is_valid_node(j) && ok(BlockKey::data(j)) &&
           ok(BlockKey::parity(lat.output_edge(j, e.cls)));
  };

  ReferenceRounds ref;
  while (!missing.empty()) {
    std::vector<BlockKey> round;
    for (const BlockKey& key : missing) {
      const bool repairable =
          key.is_data() ? node_ok(key.index) : edge_ok(key.edge());
      if (repairable) round.push_back(key);
    }
    if (round.empty()) break;
    for (const BlockKey& key : round) missing.erase(key);
    ref.rounds.push_back(std::move(round));
  }
  ref.residue.assign(missing.begin(), missing.end());
  return ref;
}

// --- 1. planner waves == reference serial round structure -------------------

using SweepParam = std::tuple<int, int, int, int>;  // alpha, s, p, loss %

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [a, s, p, r] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p) + "_loss" + std::to_string(r);
}

class RepairPlannerProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RepairPlannerProperty, WavesMatchReferenceRoundStructure) {
  const auto [a, s, p, loss] = GetParam();
  const CodeParams params(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(p));
  const std::uint64_t n = 400;
  InMemoryBlockStore store;
  encode_random(params, n, 11, store);
  const Lattice lat(params, n, Lattice::Boundary::kOpen);
  erase_random(lat, loss / 100.0, 77 + static_cast<std::uint64_t>(loss),
               store);

  const RepairPlanner planner(&lat);
  AvailabilityMap avail = planner.snapshot(store);
  const RepairPlan plan = planner.plan(avail);
  const ReferenceRounds ref = reference_rounds(lat, store);

  ASSERT_EQ(plan.waves.size(), ref.rounds.size());
  for (std::size_t w = 0; w < plan.waves.size(); ++w) {
    std::vector<BlockKey> wave_keys;
    for (const RepairStep& step : plan.waves[w])
      wave_keys.push_back(step.key);
    EXPECT_EQ(sorted(std::move(wave_keys)), sorted(ref.rounds[w]))
        << "wave " << w;
  }
  EXPECT_EQ(sorted(plan.residue), sorted(ref.residue));

  // The serial executor's report is a projection of the same plan.
  Decoder dec(params, n, kBlockSize, &store);
  const RepairReport report = dec.repair_all();
  EXPECT_EQ(report.rounds, plan.rounds());
  EXPECT_EQ(report.nodes_repaired_total, plan.nodes_planned);
  EXPECT_EQ(report.edges_repaired_total, plan.edges_planned);
  EXPECT_EQ(report.nodes_unrecovered + report.edges_unrecovered,
            plan.residue.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairPlannerProperty,
    ::testing::Values(SweepParam{1, 1, 0, 20}, SweepParam{2, 2, 5, 15},
                      SweepParam{3, 2, 5, 10}, SweepParam{3, 2, 5, 30},
                      SweepParam{3, 2, 5, 55}, SweepParam{3, 5, 5, 10},
                      SweepParam{3, 5, 5, 35}, SweepParam{3, 5, 5, 55}),
    sweep_name);

TEST(RepairPlanner, MaxRoundsCapMatchesSerialExecutor) {
  // A contiguous AE(1) parity run needs ~6 rounds; capping at 2 must
  // leave the inner blocks as (repairable) residue, identically in the
  // plan and in the executed report.
  const CodeParams params = CodeParams::single();
  InMemoryBlockStore store;
  encode_random(params, 60, 3, store);
  const Lattice lat(params, 60, Lattice::Boundary::kOpen);
  for (NodeIndex i = 20; i <= 30; ++i)
    store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, i}));

  const RepairPlanner planner(&lat);
  AvailabilityMap avail = planner.snapshot(store);
  const RepairPlan plan = planner.plan(avail, RepairPolicy::kFull, 2);
  EXPECT_EQ(plan.rounds(), 2u);
  EXPECT_EQ(plan.edges_planned, 4u);  // two per side per round
  EXPECT_EQ(plan.residue.size(), 7u);

  Decoder dec(params, 60, kBlockSize, &store);
  const RepairReport report = dec.repair_all(2);
  EXPECT_EQ(report.rounds, 2u);
  EXPECT_EQ(report.edges_repaired_total, 4u);
  EXPECT_EQ(report.edges_unrecovered, 7u);
}

TEST(RepairPlanner, MinimalPolicySkipsParitiesAwayFromMissingData) {
  // Data intact, one parity missing: full maintenance repairs it,
  // minimal maintenance leaves it alone (paper §V-C-2).
  const CodeParams params(3, 2, 5);
  InMemoryBlockStore store;
  encode_random(params, 100, 5, store);
  const Lattice lat(params, 100, Lattice::Boundary::kOpen);
  store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 40}));

  const RepairPlanner planner(&lat);
  AvailabilityMap full = planner.snapshot(store);
  AvailabilityMap minimal = full;
  EXPECT_EQ(planner.plan(full, RepairPolicy::kFull).edges_planned, 1u);
  const RepairPlan plan = planner.plan(minimal, RepairPolicy::kMinimal);
  EXPECT_EQ(plan.edges_planned, 0u);
  EXPECT_EQ(plan.residue.size(), 1u);
}

// --- 2. parallel executor byte-identity -------------------------------------

using ThreadParam = std::tuple<int, int, int, int, int>;  // a,s,p,loss,threads

std::string thread_name(const ::testing::TestParamInfo<ThreadParam>& info) {
  const auto [a, s, p, r, t] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p) + "_loss" + std::to_string(r) + "_t" +
         std::to_string(t);
}

class ParallelRepairerEquivalence
    : public ::testing::TestWithParam<ThreadParam> {};

TEST_P(ParallelRepairerEquivalence, ByteIdenticalToSerialRepairAll) {
  const auto [a, s, p, loss, threads] = GetParam();
  const CodeParams params(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(p));
  const std::uint64_t n = 600;
  InMemoryBlockStore pristine;
  const std::vector<Bytes> truth = encode_random(params, n, 42, pristine);
  const Lattice lat(params, n, Lattice::Boundary::kOpen);

  // Same erasure pattern on both stores.
  InMemoryBlockStore serial_store;
  pipeline::ConcurrentBlockStore parallel_store;
  copy_store(pristine, serial_store);
  copy_store(pristine, parallel_store);
  erase_random(lat, loss / 100.0, 1000 + static_cast<std::uint64_t>(loss),
               serial_store);
  erase_random(lat, loss / 100.0, 1000 + static_cast<std::uint64_t>(loss),
               parallel_store);
  ASSERT_EQ(serial_store.size(), parallel_store.size());

  Decoder dec(params, n, kBlockSize, &serial_store);
  const RepairReport serial = dec.repair_all();
  pipeline::ThreadPool pool(static_cast<std::size_t>(threads));
  pipeline::ParallelRepairer repairer(params, n, kBlockSize,
                                      &parallel_store, &pool);
  const RepairReport parallel = repairer.repair_all();

  // Identical round structure and residue accounting.
  EXPECT_EQ(parallel.rounds, serial.rounds);
  EXPECT_EQ(parallel.nodes_repaired_per_round,
            serial.nodes_repaired_per_round);
  EXPECT_EQ(parallel.edges_repaired_per_round,
            serial.edges_repaired_per_round);
  EXPECT_EQ(parallel.nodes_repaired_total, serial.nodes_repaired_total);
  EXPECT_EQ(parallel.edges_repaired_total, serial.edges_repaired_total);
  EXPECT_EQ(parallel.nodes_unrecovered, serial.nodes_unrecovered);
  EXPECT_EQ(parallel.edges_unrecovered, serial.edges_unrecovered);

  // Identical stores, byte for byte.
  ASSERT_EQ(parallel_store.size(), serial_store.size());
  serial_store.for_each([&](const BlockKey& key, const Bytes& value) {
    const auto copy = parallel_store.get_copy(key);
    ASSERT_TRUE(copy.has_value()) << to_string(key);
    ASSERT_EQ(*copy, value) << to_string(key);
  });

  // Whatever was repaired matches ground truth.
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(n); ++i) {
    if (const auto value = parallel_store.get_copy(BlockKey::data(i))) {
      ASSERT_EQ(*value, truth[static_cast<std::size_t>(i - 1)])
          << "node " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelRepairerEquivalence,
    ::testing::Values(
        // AE(3,2,5) and AE(3,5,5) at benign, heavy (residue-producing)
        // and extreme loss, each at 1/2/8 threads.
        ThreadParam{3, 2, 5, 10, 1}, ThreadParam{3, 2, 5, 10, 2},
        ThreadParam{3, 2, 5, 10, 8}, ThreadParam{3, 2, 5, 45, 1},
        ThreadParam{3, 2, 5, 45, 2}, ThreadParam{3, 2, 5, 45, 8},
        ThreadParam{3, 5, 5, 30, 1}, ThreadParam{3, 5, 5, 30, 2},
        ThreadParam{3, 5, 5, 30, 8}, ThreadParam{3, 5, 5, 60, 2},
        ThreadParam{3, 5, 5, 60, 8}, ThreadParam{1, 1, 0, 25, 8}),
    thread_name);

TEST(ParallelRepairer, ReadNodeRepairsThroughDamagedNeighbourhood) {
  const CodeParams params(3, 2, 5);
  const std::uint64_t n = 200;
  InMemoryBlockStore pristine;
  const std::vector<Bytes> truth = encode_random(params, n, 9, pristine);
  const Lattice lat(params, n, Lattice::Boundary::kOpen);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pipeline::ConcurrentBlockStore store;
    copy_store(pristine, store);
    store.erase(BlockKey::data(100));
    for (const Edge& e : lat.incident_edges(100))
      store.erase(BlockKey::parity(e));

    pipeline::ThreadPool pool(threads);
    pipeline::ParallelRepairer repairer(params, n, kBlockSize, &store,
                                        &pool);
    const auto value = repairer.read_node(100);
    ASSERT_TRUE(value.has_value()) << threads << " threads";
    EXPECT_EQ(*value, truth[99]);
  }
}

TEST(ParallelRepairer, ReadNodeIrrecoverableReturnsNullopt) {
  const CodeParams params = CodeParams::single();
  InMemoryBlockStore pristine;
  encode_random(params, 60, 2, pristine);
  pipeline::ConcurrentBlockStore store;
  copy_store(pristine, store);
  store.erase(BlockKey::data(30));
  store.erase(BlockKey::data(31));
  store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 30}));

  pipeline::ThreadPool pool(4);
  pipeline::ParallelRepairer repairer(params, 60, kBlockSize, &store, &pool);
  EXPECT_FALSE(repairer.read_node(30).has_value());
  EXPECT_FALSE(repairer.read_node(31).has_value());
}

TEST(ParallelRepairer, ReportCarriesThroughput) {
  const CodeParams params(3, 2, 5);
  InMemoryBlockStore pristine;
  encode_random(params, 300, 8, pristine);
  pipeline::ConcurrentBlockStore store;
  copy_store(pristine, store);
  const Lattice lat(params, 300, Lattice::Boundary::kOpen);
  erase_random(lat, 0.2, 5, store);

  pipeline::ThreadPool pool(2);
  pipeline::ParallelRepairer repairer(params, 300, kBlockSize, &store, &pool);
  const RepairReport report = repairer.repair_all();
  EXPECT_GT(report.blocks_repaired_total(), 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.blocks_per_second(), 0.0);
}

// --- 3. archive-level parallel scrub/get ------------------------------------

namespace fs = std::filesystem;

class ArchiveParallelRepair : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aec_parallel_repair_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ArchiveParallelRepair, ScrubAndGetHonourThreadCount) {
  const fs::path serial_root = root_ / "serial";
  const fs::path parallel_root = root_ / "parallel";
  Rng rng(31);
  const Bytes payload = rng.random_block(16000);

  for (const fs::path& r : {serial_root, parallel_root}) {
    auto archive =
        tools::Archive::create(r, CodeParams(3, 2, 5), 128);
    archive->add_file("payload", payload);
  }

  auto serial = tools::Archive::open(serial_root, 1);
  auto parallel = tools::Archive::open(parallel_root, 4);
  EXPECT_EQ(serial->inject_damage(0.25, 7), parallel->inject_damage(0.25, 7));

  const tools::ScrubReport a = serial->scrub();
  const tools::ScrubReport b = parallel->scrub();
  EXPECT_EQ(b.repair.rounds, a.repair.rounds);
  EXPECT_EQ(b.repair.nodes_repaired_total, a.repair.nodes_repaired_total);
  EXPECT_EQ(b.repair.edges_repaired_total, a.repair.edges_repaired_total);
  EXPECT_EQ(b.repair.nodes_unrecovered, a.repair.nodes_unrecovered);
  EXPECT_EQ(serial->missing_blocks(), parallel->missing_blocks());

  EXPECT_EQ(serial->read_file("payload"), payload);
  EXPECT_EQ(parallel->read_file("payload"), payload);
}

TEST_F(ArchiveParallelRepair, ParallelGetRepairsLazilyWithoutScrub) {
  Rng rng(13);
  const Bytes payload = rng.random_block(8000);
  {
    auto archive = tools::Archive::create(root_, CodeParams(3, 2, 5), 128);
    archive->add_file("payload", payload);
  }
  auto archive = tools::Archive::open(root_, 4);
  archive->inject_damage(0.15, 3);
  EXPECT_EQ(archive->read_file("payload"), payload);
}

}  // namespace
}  // namespace aec
