#include "core/codec/file_block_store.h"

#include <fstream>

#include "common/check.h"
#include "core/codec/file_io.h"

namespace aec {

namespace fs = std::filesystem;

FileBlockStore::FileBlockStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_ / "d");
  for (const char* cls : {"H", "RH", "LH"})
    fs::create_directories(root_ / "p" / cls);
  rescan();
}

fs::path FileBlockStore::path_of(const BlockKey& key) const {
  if (key.is_data()) return root_ / "d" / std::to_string(key.index);
  return root_ / "p" / to_string(key.cls) / std::to_string(key.index);
}

void FileBlockStore::rescan() {
  index_.clear();
  cache_.clear();
  const auto scan_dir = [&](const fs::path& dir, BlockKey::Kind kind,
                            StrandClass cls) {
    if (!fs::exists(dir)) return;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      // `end` points into the name, so the name must outlive the check.
      const fs::path name = entry.path().filename();
      char* end = nullptr;
      const long long idx = std::strtoll(name.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || idx <= 0) continue;  // foreign
      index_[BlockKey{kind, cls, idx}] = true;
    }
  };
  scan_dir(root_ / "d", BlockKey::Kind::kData, StrandClass::kHorizontal);
  scan_dir(root_ / "p" / "H", BlockKey::Kind::kParity,
           StrandClass::kHorizontal);
  scan_dir(root_ / "p" / "RH", BlockKey::Kind::kParity,
           StrandClass::kRightHanded);
  scan_dir(root_ / "p" / "LH", BlockKey::Kind::kParity,
           StrandClass::kLeftHanded);
}

void FileBlockStore::put(const BlockKey& key, Bytes value) {
  const fs::path path = path_of(key);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AEC_CHECK_MSG(out.good(), "cannot write " << path.string());
  out.write(reinterpret_cast<const char*>(value.data()),
            static_cast<std::streamsize>(value.size()));
  out.close();
  AEC_CHECK_MSG(out.good(), "short write to " << path.string());
  index_[key] = true;
  cache_[key] = std::move(value);
  notify(key, true);
}

const Bytes* FileBlockStore::find(const BlockKey& key) const {
  if (!index_.contains(key)) return nullptr;
  if (const auto it = cache_.find(key); it != cache_.end())
    return &it->second;
  std::ifstream in(path_of(key), std::ios::binary | std::ios::ate);
  if (!in.good()) return nullptr;  // deleted externally
  const std::streamsize bytes = in.tellg();
  in.seekg(0);
  Bytes payload(static_cast<std::size_t>(bytes));
  in.read(reinterpret_cast<char*>(payload.data()), bytes);
  if (!in.good()) return nullptr;
  const auto [it, inserted] = cache_.emplace(key, std::move(payload));
  return &it->second;
}

bool FileBlockStore::contains(const BlockKey& key) const {
  return index_.contains(key);
}

bool FileBlockStore::erase(const BlockKey& key) {
  cache_.erase(key);
  if (index_.erase(key) == 0) return false;
  std::error_code ec;
  fs::remove(path_of(key), ec);
  notify(key, false);
  return true;
}

std::uint64_t FileBlockStore::size() const { return index_.size(); }

std::vector<std::optional<Bytes>> FileBlockStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  std::vector<std::optional<Bytes>> out;
  out.reserve(keys.size());
  for (const BlockKey& key : keys) {
    if (!index_.contains(key)) {
      out.emplace_back(std::nullopt);
      continue;
    }
    if (const auto it = cache_.find(key); it != cache_.end()) {
      out.emplace_back(it->second);
      continue;
    }
    out.push_back(read_block_file(path_of(key)));
  }
  return out;
}

void FileBlockStore::prefetch(const std::vector<BlockKey>& keys) const {
  for (const BlockKey& key : keys) {
    if (!index_.contains(key) || cache_.contains(key)) continue;
    if (auto payload = read_block_file(path_of(key)))
      cache_.emplace(key, std::move(*payload));
  }
}

bool FileBlockStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  for (const auto& [key, present] : index_) fn(key);
  return true;
}

void FileBlockStore::drop_cache() const { cache_.clear(); }

}  // namespace aec
