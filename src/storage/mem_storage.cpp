#include "storage/mem_storage.hpp"

#include <algorithm>
#include <cstring>

namespace amoeba::storage {

namespace {

class MemFile final : public StorageFile {
 public:
  explicit MemFile(std::shared_ptr<MemStorage::FileData> d) : d_(std::move(d)) {}

  Status write_at(std::uint64_t off,
                  std::span<const std::uint8_t> data) override {
    if (data.empty()) return Status::ok;
    const std::uint64_t end = off + data.size();
    if (end > d_->data.size()) d_->data.resize(end);
    std::memcpy(d_->data.data() + off, data.data(), data.size());
    return Status::ok;
  }

  Status read_at(std::uint64_t off, std::span<std::uint8_t> out) override {
    if (off + out.size() > d_->data.size()) return Status::io_error;
    if (!out.empty()) std::memcpy(out.data(), d_->data.data() + off, out.size());
    return Status::ok;
  }

  std::uint64_t size() const override { return d_->data.size(); }

  Status sync() override {
    d_->synced_size = d_->data.size();
    return Status::ok;
  }

  Status truncate(std::uint64_t new_size) override {
    if (new_size > d_->data.size()) return Status::invalid_argument;
    d_->data.resize(new_size);
    d_->synced_size = std::min<std::uint64_t>(d_->synced_size, new_size);
    return Status::ok;
  }

 private:
  std::shared_ptr<MemStorage::FileData> d_;
};

}  // namespace

void MemStorage::crash_unsynced(const CrashOptions& opts) {
  for (auto& [name, d] : files_) {
    d->data.resize(d->synced_size);
  }
  if (opts.tear_tail_bytes > 0 && !files_.empty()) {
    auto& d = files_.rbegin()->second;
    const std::uint64_t cut =
        std::min<std::uint64_t>(opts.tear_tail_bytes, d->data.size());
    d->data.resize(d->data.size() - cut);
    d->synced_size = std::min<std::uint64_t>(d->synced_size, d->data.size());
  }
}

Result<std::unique_ptr<StorageFile>> MemStorage::open(const std::string& name) {
  auto& slot = files_[name];
  if (slot == nullptr) slot = std::make_shared<FileData>();
  return std::unique_ptr<StorageFile>(new MemFile(slot));
}

std::vector<std::string> MemStorage::list() {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, d] : files_) out.push_back(name);
  return out;
}

bool MemStorage::exists(const std::string& name) {
  return files_.count(name) > 0;
}

Status MemStorage::remove(const std::string& name) {
  files_.erase(name);
  return Status::ok;
}

Status MemStorage::rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) return Status::io_error;
  files_[to] = it->second;
  files_.erase(from);
  return Status::ok;
}

}  // namespace amoeba::storage
