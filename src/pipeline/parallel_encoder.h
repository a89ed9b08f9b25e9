// Strand-pipelined multi-threaded entanglement (paper §V-B, Fig 10).
//
// The paper's write model lets helical parities of later columns be
// computed early (partial writes): with a whole batch in hand, each of
// the s + (α−1)·p strand instances is an independent XOR chain over
// read-only data blocks. append_all therefore runs one worker task per
// strand instance across the entire batch, plus a few tasks that store
// the data blocks, and the only barrier is at the end of the batch. The
// operations and their per-strand order are exactly the serial
// Encoder's, so the output is byte-identical to it.
//
// Ownership discipline that makes that hold without any locking on the
// hot path:
//   · every strand instance has one fixed head slot (s + (α−1)·p total,
//     the paper's §IV-A memory floor), and the task walking a strand
//     exclusively owns that strand's slot for the batch;
//   · cache misses (fresh strands, crash recovery via drop_head_cache())
//     are resolved by the coordinator *before* workers run, so workers
//     never read the store — they only put().
// The store must therefore have a thread-safe put(): use
// ConcurrentBlockStore or wrap any serial store in LockedBlockStore.
//
// Error model: an exception in any task (e.g. a store write failure) is
// rethrown on the coordinator at the batch barrier; the encoder is then
// poisoned — already-sealed buckets remain in the store, and the head
// cache must be dropped (or the encoder rebuilt) before further appends.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "core/codec/encoder.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"

namespace aec::pipeline {

class ParallelEncoder {
 public:
  /// Runs on `pool`, which must outlive the encoder and must not be
  /// waited on concurrently by another coordinator during append_all
  /// (wait_idle is pool-global). `store` needs a thread-safe put() and
  /// must outlive the encoder. `resume_count` > 0 resumes an existing
  /// lattice (heads re-fetched from the store between batches, on
  /// demand).
  ParallelEncoder(CodeParams params, std::size_t block_size,
                  BlockStore* store, ThreadPool* pool,
                  std::uint64_t resume_count = 0);

  /// Entangles `blocks` in order. Results come back in input order,
  /// parities in class order — exactly what Encoder::append_all returns,
  /// and every stored block is byte-identical to the serial encoding.
  std::vector<EncodeResult> append_all(const std::vector<Bytes>& blocks);

  const CodeParams& params() const noexcept { return params_; }
  std::size_t block_size() const noexcept { return block_size_; }

  /// Number of data blocks entangled so far.
  std::uint64_t size() const noexcept { return count_; }

  /// Open lattice over the blocks appended so far.
  Lattice lattice() const;

  /// Strand-head slots currently cached (≤ s + (α−1)·p).
  std::size_t cached_heads() const noexcept;

  /// Drops the in-memory strand heads (models a broker crash). The next
  /// batch re-fetches them from the store (paper §IV-A).
  void drop_head_cache();

 private:
  /// Head slot of a strand instance; empty Bytes ⇔ not cached
  /// (block_size is always positive, so empty is unambiguous).
  Bytes& head_slot(StrandClass cls, std::uint32_t strand_id) noexcept {
    return heads_[static_cast<std::size_t>(cls)][strand_id];
  }

  /// Coordinator-side cache fill for node i's strand on `cls`: store
  /// fetch on crash recovery, zero block on strand bootstrap. Runs
  /// while no worker is in flight.
  void resolve_head(const Lattice& lat, NodeIndex i, StrandClass cls);

  CodeParams params_;
  std::size_t block_size_;
  BlockStore* store_;
  std::uint64_t count_ = 0;
  /// heads_[class][strand_id]; sized s / p / p (unused classes empty).
  std::vector<Bytes> heads_[3];
  ThreadPool* pool_;
  /// Global-registry metrics, resolved once at construction; observed
  /// at batch granularity (append_all), never per block.
  obs::Counter* blocks_metric_;
  obs::Counter* batches_metric_;
  obs::Histogram* batch_us_metric_;
  obs::Histogram* batch_blocks_metric_;
};

}  // namespace aec::pipeline
