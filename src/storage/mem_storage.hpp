// In-memory Storage with crash semantics, for the simulator.
//
// Each file keeps its bytes plus a `synced` watermark: `sync()` advances
// the watermark to the current size, and `crash_unsynced()` truncates every
// file back to its watermark — exactly the data a kernel page cache would
// lose when the machine dies between fsyncs. An optional `tear_tail_bytes`
// additionally chops bytes off the end of the *synced* data, modeling a
// sector-level torn write of the final record (the durable log must detect
// this by CRC and truncate on open).
//
// The storage object is owned by the test harness (SimProcess), not by the
// member, so it survives member destruction — that is what makes
// crash-with-disk restarts expressible in the simulator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/storage.hpp"

namespace amoeba::storage {

class MemStorage final : public Storage {
 public:
  struct CrashOptions {
    /// Bytes chopped off the end of the last-synced data of the file with
    /// the largest name ("the active segment"), modeling a torn sector.
    std::uint64_t tear_tail_bytes{0};
  };

  /// Revert every file to its last-synced contents, as a crash would.
  void crash_unsynced(const CrashOptions& opts);
  void crash_unsynced() { crash_unsynced(CrashOptions{}); }

  std::size_t file_count() const { return files_.size(); }

  // --- Storage --------------------------------------------------------------
  Result<std::unique_ptr<StorageFile>> open(const std::string& name) override;
  std::vector<std::string> list() override;
  bool exists(const std::string& name) override;
  Status remove(const std::string& name) override;
  Status rename(const std::string& from, const std::string& to) override;

  /// One file's contents (public: the .cpp's handle class shares it).
  struct FileData {
    std::vector<std::uint8_t> data;
    std::uint64_t synced_size{0};
  };

 private:
  // shared_ptr: an open handle keeps the bytes alive across remove/rename,
  // like a POSIX fd after unlink.
  std::map<std::string, std::shared_ptr<FileData>> files_;
};

}  // namespace amoeba::storage
