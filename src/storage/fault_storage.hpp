// Fault injection at the storage seam, mirroring `transport::FaultDevice`.
//
// `FaultStorage` wraps any `Storage` and hands out `FaultFile` handles that
// draw from one explicitly seeded RNG, so every run replays from its seed:
//
//   - short write : `write_at` lands only a random prefix of the record and
//     reports io_error — the caller sees the failure, but a crash before
//     the re-write leaves a torn record on disk;
//   - sync failure: `fsync` reports io_error without establishing the
//     barrier, exercising the caller's retry path;
//   - stale rename: scripted `drop_next_rename()` makes the next rename
//     report ok but not happen — the checkpoint publication that a crash
//     un-did.
//
// Stats are relaxed atomics (same idiom as FaultStats): tests read them
// live to assert that a sweep actually injected faults.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/relaxed_counter.hpp"
#include "common/rng.hpp"
#include "storage/storage.hpp"

namespace amoeba::storage {

/// Stochastic per-call fault probabilities.
struct FilePlan {
  double short_write{0.0};  // write_at lands a prefix, reports io_error
  double sync_fail{0.0};    // sync reports io_error, no barrier
  bool any() const { return short_write > 0.0 || sync_fail > 0.0; }
};

struct FileFaultStats {
  RelaxedCounter writes;
  RelaxedCounter syncs;
  RelaxedCounter short_writes;
  RelaxedCounter sync_fails;
  RelaxedCounter dropped_renames;

  std::uint64_t injected() const {
    return short_writes + sync_fails + dropped_renames;
  }
};

class FaultStorage final : public Storage {
 public:
  explicit FaultStorage(Storage& inner, std::uint64_t seed = 1)
      : inner_(inner), rng_(seed) {}

  void set_plan(const FilePlan& plan) { plan_ = plan; }
  const FilePlan& plan() const { return plan_; }

  /// Script: silently lose the next rename (reported ok).
  void drop_next_rename() { drop_rename_ = true; }

  const FileFaultStats& fault_stats() const { return stats_; }

  // --- Storage --------------------------------------------------------------
  Result<std::unique_ptr<StorageFile>> open(const std::string& name) override;
  std::vector<std::string> list() override { return inner_.list(); }
  bool exists(const std::string& name) override { return inner_.exists(name); }
  Status remove(const std::string& name) override {
    return inner_.remove(name);
  }
  Status rename(const std::string& from, const std::string& to) override;

 private:
  friend class FaultFile;
  Storage& inner_;
  Rng rng_;
  FilePlan plan_;
  FileFaultStats stats_;
  bool drop_rename_{false};
};

/// Per-file interposer handed out by FaultStorage::open. Shares the
/// storage's RNG and plan so the fault stream is one seeded sequence.
class FaultFile final : public StorageFile {
 public:
  FaultFile(FaultStorage& owner, std::unique_ptr<StorageFile> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  Status write_at(std::uint64_t off,
                  std::span<const std::uint8_t> data) override;
  Status read_at(std::uint64_t off, std::span<std::uint8_t> out) override {
    return inner_->read_at(off, out);
  }
  std::uint64_t size() const override { return inner_->size(); }
  Status sync() override;
  Status truncate(std::uint64_t new_size) override {
    return inner_->truncate(new_size);
  }

 private:
  FaultStorage& owner_;
  std::unique_ptr<StorageFile> inner_;
};

}  // namespace amoeba::storage
