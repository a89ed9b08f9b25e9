// LockedBlockStore wraps a store that is not itself thread-safe (e.g.
// FileBlockStore) behind one mutex, making put()/contains()/erase()/size()
// safe to call from pipeline workers without touching the wrapped
// implementation. find() still returns a pointer into the delegate, so
// reads must happen while no writer runs (the ParallelEncoder's
// coordinator-only read discipline guarantees exactly that). Thread-safe
// stores (InMemoryBlockStore, ShardedFileBlockStore) need no wrapper.
#pragma once

#include <mutex>
#include <optional>

#include "core/codec/block_store.h"

namespace aec::pipeline {

class LockedBlockStore final : public BlockStore {
 public:
  /// The delegate must outlive this wrapper.
  explicit LockedBlockStore(BlockStore* delegate);

  void put(const BlockKey& key, Bytes value) override;
  /// Safe only while no concurrent writer runs (see file comment).
  const Bytes* find(const BlockKey& key) const override;
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;
  /// Copies under the wrapper mutex — safe against concurrent put():
  /// this is the read pipeline workers must use.
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  /// One lock acquisition for the whole batch (instead of one per key),
  /// forwarded to the delegate's own batched read so streaming-read
  /// semantics (no cache insert on miss) survive the wrapper.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override;
  /// Forwards the whole batch, so the delegate's own grouping (e.g.
  /// ClusterStore's per-node split) survives the wrapper.
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override;
  void prefetch(const std::vector<BlockKey>& keys) const override;
  bool thread_safe() const noexcept override { return true; }
  void drop_payload_cache() const override;
  void flush() const override;
  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override;
  void rescan() override;
  /// Observation happens at the delegate (where the mutation lands), so
  /// each put/erase notifies exactly once; observer() reads back from
  /// the delegate accordingly.
  void set_observer(Observer* observer) override;
  Observer* observer() const override;

  BlockStore* delegate() const noexcept { return delegate_; }

 private:
  mutable std::mutex mu_;
  BlockStore* delegate_;
};

}  // namespace aec::pipeline
