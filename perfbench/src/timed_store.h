// Outside-in tracing for the archive benchmark.
//
// SpanLog keeps spans (name, start, end, parent op, own op id, blocks) in
// memory while recording is on; the benchmark writes them out when the
// run ends. The benchmark opens one span around every call it makes into
// the archive layer (the "op"), and TimedBlockStore opens a child span
// around every store call. Store calls made on pool threads take their
// parent from current_op(): the id of the archive call in flight, which
// the benchmark publishes before each call.
//
// TimedBlockStore is registered as the store family "timed(<child>)".
// It forwards every BlockStore virtual to the child, so an Archive over
// "timed(sharded(8))" takes the same path as over "sharded(8)": the same
// thread_safe() answer (no extra LockedBlockStore), the same observer
// notifications, the same cache and flush behaviour. Inside a cluster
// the wrapper goes on the children ("cluster(4,strand,timed(sharded(8)))")
// so the Archive's ClusterStore downcast still works.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/codec/block_store.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t parent = 0;  // op id of the enclosing archive call, 0 = none
  std::uint64_t op = 0;      // own op id (archive spans), 0 for store spans
  std::uint64_t blocks = 0;
};

class SpanLog {
 public:
  static SpanLog& global();

  /// Nanoseconds on the steady clock since the log was created.
  std::int64_t now_ns() const;

  void set_recording(bool on) noexcept { recording_.store(on); }
  bool recording() const noexcept { return recording_.load(); }

  std::uint64_t new_op() noexcept { return next_op_.fetch_add(1); }
  /// Allocates an op id and publishes it as the op in flight.
  std::uint64_t begin_op() noexcept;
  void end_op() noexcept { current_op_.store(0); }
  std::uint64_t current_op() const noexcept { return current_op_.load(); }

  void record(const Span& span);
  std::vector<Span> take();

 private:
  SpanLog();

  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_op_{1};
  std::atomic<std::uint64_t> current_op_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Span around one call the benchmark makes into the library. With
/// `publish` it also publishes its op id as the op in flight, so store
/// spans on any thread become its children; concurrent callers (the
/// serve workload's client threads) do not publish. Records nothing
/// unless the log is recording.
class OpSpan {
 public:
  explicit OpSpan(const char* name, bool publish = true);
  ~OpSpan();
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  const char* name_;
  bool publish_;
  std::uint64_t op_;
  std::int64_t start_ns_;
};

class TimedBlockStore final : public aec::BlockStore {
 public:
  explicit TimedBlockStore(std::unique_ptr<aec::BlockStore> child);

  void put(const aec::BlockKey& key, aec::Bytes value) override;
  const aec::Bytes* find(const aec::BlockKey& key) const override;
  bool contains(const aec::BlockKey& key) const override;
  bool erase(const aec::BlockKey& key) override;
  std::uint64_t size() const override;
  std::optional<aec::Bytes> get_copy(const aec::BlockKey& key) const override;
  std::vector<std::optional<aec::Bytes>> get_batch(
      const std::vector<aec::BlockKey>& keys) const override;
  void put_batch(
      std::vector<std::pair<aec::BlockKey, aec::Bytes>> items) override;
  void prefetch(const std::vector<aec::BlockKey>& keys) const override;
  bool thread_safe() const noexcept override { return child_->thread_safe(); }
  void drop_payload_cache() const override;
  void flush() const override;
  bool for_each_key(
      const std::function<void(const aec::BlockKey&)>& fn) const override;
  void rescan() override;
  void set_observer(Observer* observer) override;
  Observer* observer() const override { return child_->observer(); }

 private:
  std::unique_ptr<aec::BlockStore> child_;
};

/// Registers "timed(<child spec>)" with the StoreRegistry (idempotent).
void register_timed_family();

/// Makes the next get_batch through any TimedBlockStore flip one byte of
/// the first payload it returns. Used only by the benchmark's own test of
/// its correctness gate.
void arm_payload_corruption();

}  // namespace perfbench
