#include "timed_store.h"

#include <utility>

#include "common/check.h"
#include "core/codec/store_registry.h"

namespace perfbench {

namespace {

std::atomic<bool> g_corrupt_next{false};

/// Span around one store call; parented to the archive op in flight.
class StoreSpan {
 public:
  StoreSpan(const char* name, std::uint64_t blocks)
      : log_(SpanLog::global()), name_(name), blocks_(blocks) {
    if (!log_.recording()) return;
    parent_ = log_.current_op();
    start_ns_ = log_.now_ns();
  }
  ~StoreSpan() {
    if (start_ns_ < 0) return;
    Span span;
    span.name = name_;
    span.start_ns = start_ns_;
    span.end_ns = log_.now_ns();
    span.parent = parent_;
    span.blocks = blocks_;
    log_.record(span);
  }
  StoreSpan(const StoreSpan&) = delete;
  StoreSpan& operator=(const StoreSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t blocks_;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = -1;
};

}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1u << 16);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t SpanLog::begin_op() noexcept {
  const std::uint64_t op = new_op();
  current_op_.store(op);
  return op;
}

void SpanLog::record(const Span& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::take() {
  std::lock_guard lock(mu_);
  return std::exchange(spans_, {});
}

OpSpan::OpSpan(const char* name, bool publish)
    : name_(name),
      publish_(publish),
      op_(publish ? SpanLog::global().begin_op() : SpanLog::global().new_op()),
      start_ns_(SpanLog::global().now_ns()) {}

OpSpan::~OpSpan() {
  SpanLog& log = SpanLog::global();
  if (publish_) log.end_op();
  if (!log.recording()) return;
  Span span;
  span.name = name_;
  span.start_ns = start_ns_;
  span.end_ns = log.now_ns();
  span.op = op_;
  log.record(span);
}

TimedBlockStore::TimedBlockStore(std::unique_ptr<aec::BlockStore> child)
    : child_(std::move(child)) {
  AEC_CHECK(child_ != nullptr);
}

void TimedBlockStore::put(const aec::BlockKey& key, aec::Bytes value) {
  StoreSpan span("store.put", 1);
  child_->put(key, std::move(value));
}

const aec::Bytes* TimedBlockStore::find(const aec::BlockKey& key) const {
  return child_->find(key);
}

bool TimedBlockStore::contains(const aec::BlockKey& key) const {
  return child_->contains(key);
}

bool TimedBlockStore::erase(const aec::BlockKey& key) {
  return child_->erase(key);
}

std::uint64_t TimedBlockStore::size() const { return child_->size(); }

std::optional<aec::Bytes> TimedBlockStore::get_copy(
    const aec::BlockKey& key) const {
  StoreSpan span("store.get_copy", 1);
  return child_->get_copy(key);
}

std::vector<std::optional<aec::Bytes>> TimedBlockStore::get_batch(
    const std::vector<aec::BlockKey>& keys) const {
  std::vector<std::optional<aec::Bytes>> out;
  {
    StoreSpan span("store.get_batch", keys.size());
    out = child_->get_batch(keys);
  }
  if (g_corrupt_next.load()) {
    for (std::optional<aec::Bytes>& payload : out) {
      if (payload && !payload->empty() && g_corrupt_next.exchange(false)) {
        (*payload)[0] ^= 0x5a;
        break;
      }
    }
  }
  return out;
}

void TimedBlockStore::put_batch(
    std::vector<std::pair<aec::BlockKey, aec::Bytes>> items) {
  StoreSpan span("store.put_batch", items.size());
  child_->put_batch(std::move(items));
}

void TimedBlockStore::prefetch(const std::vector<aec::BlockKey>& keys) const {
  StoreSpan span("store.prefetch", keys.size());
  child_->prefetch(keys);
}

void TimedBlockStore::drop_payload_cache() const {
  StoreSpan span("store.drop_cache", 0);
  child_->drop_payload_cache();
}

void TimedBlockStore::flush() const {
  StoreSpan span("store.flush", 0);
  child_->flush();
}

bool TimedBlockStore::for_each_key(
    const std::function<void(const aec::BlockKey&)>& fn) const {
  return child_->for_each_key(fn);
}

void TimedBlockStore::rescan() { child_->rescan(); }

void TimedBlockStore::set_observer(Observer* observer) {
  child_->set_observer(observer);
}

void register_timed_family() {
  aec::StoreRegistry::instance().register_family(
      "timed",
      [](const aec::StoreSpec& spec, const std::filesystem::path& root)
          -> std::unique_ptr<aec::BlockStore> {
        AEC_CHECK_MSG(spec.args.size() == 1, "timed store wants timed(child)");
        return std::make_unique<TimedBlockStore>(
            aec::make_store(spec.args[0], root));
      });
}

void arm_payload_corruption() { g_corrupt_next.store(true); }

}  // namespace perfbench
