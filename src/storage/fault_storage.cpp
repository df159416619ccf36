#include "storage/fault_storage.hpp"

namespace amoeba::storage {

Result<std::unique_ptr<StorageFile>> FaultStorage::open(
    const std::string& name) {
  auto f = inner_.open(name);
  if (!f.ok()) return f.status();
  return std::unique_ptr<StorageFile>(
      new FaultFile(*this, std::move(*f)));
}

Status FaultStorage::rename(const std::string& from, const std::string& to) {
  if (drop_rename_) {
    drop_rename_ = false;
    ++stats_.dropped_renames;
    // Reported ok, but the replacement never happened: `from` vanishes (the
    // temp file was "lost" with the crash), `to` keeps its old contents.
    inner_.remove(from);
    return Status::ok;
  }
  return inner_.rename(from, to);
}

Status FaultFile::write_at(std::uint64_t off,
                           std::span<const std::uint8_t> data) {
  ++owner_.stats_.writes;
  if (owner_.plan_.short_write > 0.0 && data.size() > 1 &&
      owner_.rng_.uniform() < owner_.plan_.short_write) {
    ++owner_.stats_.short_writes;
    const std::size_t prefix =
        1 + static_cast<std::size_t>(owner_.rng_.below(data.size() - 1));
    (void)inner_->write_at(off, data.subspan(0, prefix));
    return Status::io_error;
  }
  return inner_->write_at(off, data);
}

Status FaultFile::sync() {
  ++owner_.stats_.syncs;
  if (owner_.plan_.sync_fail > 0.0 &&
      owner_.rng_.uniform() < owner_.plan_.sync_fail) {
    ++owner_.stats_.sync_fails;
    return Status::io_error;
  }
  return inner_->sync();
}

}  // namespace amoeba::storage
