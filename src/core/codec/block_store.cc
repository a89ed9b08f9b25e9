#include "core/codec/block_store.h"

#include <array>
#include <mutex>
#include <unordered_map>

namespace aec {

std::optional<Bytes> BlockStore::get_copy(const BlockKey& key) const {
  const Bytes* value = find(key);
  if (value == nullptr) return std::nullopt;
  return *value;
}

std::vector<std::optional<Bytes>> BlockStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  std::vector<std::optional<Bytes>> payloads;
  payloads.reserve(keys.size());
  for (const BlockKey& key : keys) payloads.push_back(get_copy(key));
  return payloads;
}

void BlockStore::put_batch(std::vector<std::pair<BlockKey, Bytes>> items) {
  for (auto& [key, value] : items) put(key, std::move(value));
}

// --- InMemoryBlockStore -----------------------------------------------------

struct alignas(64) InMemoryBlockStore::Stripe {
  std::mutex mu;
  std::unordered_map<BlockKey, Bytes, BlockKeyHash> blocks;
};

namespace {

constexpr std::size_t kStripes = InMemoryBlockStore::kStripes;
static_assert((kStripes & (kStripes - 1)) == 0, "mask-based stripe pick");

/// Batch positions grouped by stripe with a stable counting sort:
/// positions[starts[s] .. starts[s + 1]) are stripe s's items in batch
/// order, so duplicate keys keep their relative order.
struct StripeGroups {
  std::array<std::uint32_t, kStripes + 1> starts{};
  std::vector<std::uint32_t> positions;

  explicit StripeGroups(const std::vector<std::uint8_t>& stripe_of_item)
      : positions(stripe_of_item.size()) {
    for (const std::uint8_t s : stripe_of_item) ++starts[s + 1];
    for (std::size_t s = 0; s < kStripes; ++s) starts[s + 1] += starts[s];
    std::array<std::uint32_t, kStripes + 1> next = starts;
    for (std::uint32_t i = 0; i < stripe_of_item.size(); ++i)
      positions[next[stripe_of_item[i]]++] = i;
  }

  /// Calls fn(stripe, position) for every item, taking each touched
  /// stripe's lock once.
  template <typename Stripes, typename Fn>
  void visit(Stripes& stripes, Fn fn) const {
    for (std::size_t s = 0; s < kStripes; ++s) {
      if (starts[s] == starts[s + 1]) continue;
      std::lock_guard lock(stripes[s].mu);
      for (std::uint32_t j = starts[s]; j < starts[s + 1]; ++j)
        fn(stripes[s], positions[j]);
    }
  }
};

}  // namespace

InMemoryBlockStore::InMemoryBlockStore()
    : stripes_(std::make_unique<Stripe[]>(kStripes)) {}

InMemoryBlockStore::~InMemoryBlockStore() = default;
InMemoryBlockStore::InMemoryBlockStore(InMemoryBlockStore&&) noexcept =
    default;
InMemoryBlockStore& InMemoryBlockStore::operator=(
    InMemoryBlockStore&&) noexcept = default;

InMemoryBlockStore::Stripe& InMemoryBlockStore::stripe_of(
    const BlockKey& key) const noexcept {
  return stripes_[stripe_index(key)];
}

void InMemoryBlockStore::put(const BlockKey& key, Bytes value) {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  stripe.blocks[key] = std::move(value);
  notify(key, true);
}

const Bytes* InMemoryBlockStore::find(const BlockKey& key) const {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  const auto it = stripe.blocks.find(key);
  return it == stripe.blocks.end() ? nullptr : &it->second;
}

bool InMemoryBlockStore::contains(const BlockKey& key) const {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  return stripe.blocks.contains(key);
}

bool InMemoryBlockStore::erase(const BlockKey& key) {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  if (stripe.blocks.erase(key) == 0) return false;
  notify(key, false);
  return true;
}

std::uint64_t InMemoryBlockStore::size() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kStripes; ++s) {
    std::lock_guard lock(stripes_[s].mu);
    total += stripes_[s].blocks.size();
  }
  return total;
}

std::optional<Bytes> InMemoryBlockStore::get_copy(const BlockKey& key) const {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  const auto it = stripe.blocks.find(key);
  if (it == stripe.blocks.end()) return std::nullopt;
  return it->second;
}

std::vector<std::optional<Bytes>> InMemoryBlockStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  std::vector<std::uint8_t> stripe_ids(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    stripe_ids[i] = static_cast<std::uint8_t>(stripe_index(keys[i]));
  std::vector<std::optional<Bytes>> payloads(keys.size());
  StripeGroups(stripe_ids).visit(stripes_, [&](Stripe& stripe,
                                               std::uint32_t i) {
    const auto it = stripe.blocks.find(keys[i]);
    if (it != stripe.blocks.end()) payloads[i] = it->second;
  });
  return payloads;
}

void InMemoryBlockStore::put_batch(
    std::vector<std::pair<BlockKey, Bytes>> items) {
  std::vector<std::uint8_t> stripe_ids(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    stripe_ids[i] = static_cast<std::uint8_t>(stripe_index(items[i].first));
  StripeGroups(stripe_ids).visit(stripes_, [&](Stripe& stripe,
                                               std::uint32_t i) {
    auto& [key, value] = items[i];
    stripe.blocks[key] = std::move(value);
    notify(key, true);
  });
}

void InMemoryBlockStore::for_each(
    const std::function<void(const BlockKey&, const Bytes&)>& fn) const {
  for (std::size_t s = 0; s < kStripes; ++s) {
    std::lock_guard lock(stripes_[s].mu);
    for (const auto& [key, value] : stripes_[s].blocks) fn(key, value);
  }
}

bool InMemoryBlockStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  for (std::size_t s = 0; s < kStripes; ++s) {
    std::lock_guard lock(stripes_[s].mu);
    for (const auto& [key, value] : stripes_[s].blocks) fn(key);
  }
  return true;
}

}  // namespace aec
