#include "pipeline/locked_block_store.h"

#include "common/check.h"

namespace aec::pipeline {

LockedBlockStore::LockedBlockStore(BlockStore* delegate)
    : delegate_(delegate) {
  AEC_CHECK_MSG(delegate_ != nullptr, "LockedBlockStore needs a delegate");
}

void LockedBlockStore::put(const BlockKey& key, Bytes value) {
  std::lock_guard lock(mu_);
  delegate_->put(key, std::move(value));
}

const Bytes* LockedBlockStore::find(const BlockKey& key) const {
  std::lock_guard lock(mu_);
  return delegate_->find(key);
}

bool LockedBlockStore::contains(const BlockKey& key) const {
  std::lock_guard lock(mu_);
  return delegate_->contains(key);
}

bool LockedBlockStore::erase(const BlockKey& key) {
  std::lock_guard lock(mu_);
  return delegate_->erase(key);
}

std::uint64_t LockedBlockStore::size() const {
  std::lock_guard lock(mu_);
  return delegate_->size();
}

std::optional<Bytes> LockedBlockStore::get_copy(const BlockKey& key) const {
  std::lock_guard lock(mu_);
  const Bytes* value = delegate_->find(key);
  if (value == nullptr) return std::nullopt;
  return *value;
}

std::vector<std::optional<Bytes>> LockedBlockStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  std::lock_guard lock(mu_);
  return delegate_->get_batch(keys);
}

void LockedBlockStore::prefetch(const std::vector<BlockKey>& keys) const {
  std::lock_guard lock(mu_);
  delegate_->prefetch(keys);
}

void LockedBlockStore::put_batch(
    std::vector<std::pair<BlockKey, Bytes>> items) {
  std::lock_guard lock(mu_);
  delegate_->put_batch(std::move(items));
}

void LockedBlockStore::drop_payload_cache() const {
  std::lock_guard lock(mu_);
  delegate_->drop_payload_cache();
}

void LockedBlockStore::flush() const {
  std::lock_guard lock(mu_);
  delegate_->flush();
}

bool LockedBlockStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  std::lock_guard lock(mu_);
  return delegate_->for_each_key(fn);
}

void LockedBlockStore::rescan() {
  std::lock_guard lock(mu_);
  delegate_->rescan();
}

void LockedBlockStore::set_observer(Observer* observer) {
  std::lock_guard lock(mu_);
  delegate_->set_observer(observer);
}

BlockStore::Observer* LockedBlockStore::observer() const {
  std::lock_guard lock(mu_);
  return delegate_->observer();
}

}  // namespace aec::pipeline
