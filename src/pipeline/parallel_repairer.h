// Wave-parallel repair executor (paper §V, Table VI, Figs 11–13).
//
// The RepairPlanner's waves are the repair-side analogue of the write
// planner's full-write waves: wave w contains exactly the blocks whose
// planned inputs are intact or repaired in waves < w, so the steps of a
// wave are mutually independent single XORs. This executor dispatches
// each wave across a ThreadPool with a barrier between waves, and is
// byte-identical to the serial Decoder::repair_all, including the
// RepairReport round structure (both are projections of the same plan).
//
// Safety discipline (no locking on the hot path beyond the store's own):
//   · every step's inputs were chosen by the planner against wave-start
//     availability, so a worker never reads a block another wave-w worker
//     is writing;
//   · workers read through BlockStore::get_copy() and write through
//     put(), both of which thread-safe stores (ConcurrentBlockStore,
//     LockedBlockStore) synchronize internally. With more than one
//     worker the store must be one of those; a single-threaded repairer
//     works on any store.
//
// Error model: an exception in any step (e.g. a store write failure) is
// rethrown on the coordinator at the wave barrier; already-repaired
// blocks remain in the store and the pass aborts.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "core/codec/repair_planner.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"

namespace aec::pipeline {

class ParallelRepairer {
 public:
  /// Views the first n_nodes positions of an open lattice stored in
  /// `store` and runs on `pool`. Both must outlive the repairer; the
  /// store must be thread-safe when the pool has more than one worker.
  ParallelRepairer(CodeParams params, std::uint64_t n_nodes,
                   std::size_t block_size, BlockStore* store,
                   ThreadPool* pool);

  /// Plans with the shared RepairPlanner, then executes each wave across
  /// the worker pool. Same repaired bytes, same round counts and same
  /// residue as the serial Decoder::repair_all.
  RepairReport repair_all(std::uint32_t max_rounds = 0 /* unlimited */);

  /// Attaches an incrementally maintained availability index (nullptr
  /// detaches): repair_all then plans from the index's missing set —
  /// O(damage) — instead of scanning the store. The caller owns keeping
  /// the index in sync with every store mutation (Archive wires it as the
  /// store's observer); the planned waves are identical either way.
  void set_availability_index(const AvailabilityIndex* index) noexcept {
    avail_index_ = index;
  }

  /// Parallel counterpart of Decoder::read_node: radius-scoped plan for
  /// the target, the plan's pre-existing inputs prefetched into the
  /// store's cache in a few large batches, then the waves executed
  /// across the pool. Returns nullopt when the block is irrecoverable.
  std::optional<Bytes> read_node(NodeIndex i);

  const Lattice& lattice() const noexcept { return lattice_; }
  std::size_t block_size() const noexcept { return block_size_; }

 private:
  /// Dispatches one wave in contiguous chunks and waits at the barrier.
  void execute_wave(const std::vector<RepairStep>& wave);
  /// Worker body: steps [begin, end) of a wave, batched through the
  /// store's get_batch/put_batch.
  void execute_steps(const std::vector<RepairStep>& wave, std::size_t begin,
                     std::size_t end);
  void execute_plan(const RepairPlan& plan);
  /// Warms the store cache with every plan input that pre-exists the
  /// plan (inputs produced by earlier waves are cached by their own
  /// put()). Batched so repair-on-read issues a few large reads instead
  /// of execute_wave discovering inputs one sub-batch at a time.
  void prefetch_plan_inputs(const RepairPlan& plan);

  Lattice lattice_;  // owns the CodeParams copy (lattice_.params())
  std::size_t block_size_;
  BlockStore* store_;
  const AvailabilityIndex* avail_index_ = nullptr;
  ThreadPool* pool_;
  /// Global-registry metrics, resolved once at construction; observed
  /// at wave granularity (one clock pair + a few fetch_adds per wave).
  obs::Counter* waves_metric_;
  obs::Counter* steps_metric_;
  obs::Histogram* wave_us_metric_;
  obs::Histogram* wave_width_metric_;
};

}  // namespace aec::pipeline
