// DurableLog unit tests: CRC framing, torn-tail truncation, crash
// semantics over MemStorage, fault-injected writes/syncs/renames via
// FaultStorage, checkpoint + compaction, and a real-disk round trip over
// PosixStorage. Group-level: the compaction-horizon ack map forgets
// departed members (regression for the leak where a member that left
// pinned the horizon forever).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "group/durable_log.hpp"
#include "group/sim_harness.hpp"
#include "storage/fault_storage.hpp"
#include "storage/mem_storage.hpp"
#include "storage/posix_storage.hpp"

namespace amoeba::group {
namespace {

Buffer payload(std::uint32_t tag, std::size_t len = 12) {
  Buffer b(len);
  for (std::size_t i = 0; i < len; ++i) {
    b[i] = static_cast<std::uint8_t>(tag + i);
  }
  return b;
}

LogViewRecord view_at(SeqNum next_deliver) {
  LogViewRecord v;
  v.group = flip::group_address(0x77);
  v.inc = 1;
  v.my_id = 2;
  v.sequencer = 0;
  v.next_deliver = next_deliver;
  v.members = {MemberInfo{0, flip::process_address(10)},
               MemberInfo{2, flip::process_address(12)}};
  return v;
}

Status append_n(DurableLog& log, SeqNum from, int n) {
  for (int i = 0; i < n; ++i) {
    const SeqNum s = from + static_cast<SeqNum>(i);
    const Buffer p = payload(s);
    if (Status st = log.append_message(s, 1, s % 3, MessageKind::app,
                                       s * 7 + 1, p);
        st != Status::ok) {
      return st;
    }
  }
  return Status::ok;
}

TEST(DurableLog, RoundTripAcrossReopen) {
  storage::MemStorage disk;
  {
    DurableLog log(disk);
    ASSERT_EQ(log.open(), Status::ok);
    EXPECT_TRUE(log.empty());
    ASSERT_EQ(log.append_view(view_at(100)), Status::ok);
    ASSERT_EQ(append_n(log, 100, 20), Status::ok);
    ASSERT_EQ(log.sync(), Status::ok);
    EXPECT_EQ(log.durable_hi(), 120u);
  }
  DurableLog log(disk);
  ASSERT_EQ(log.open(), Status::ok);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.lo(), 100u);
  EXPECT_EQ(log.hi(), 120u);
  EXPECT_EQ(log.durable_hi(), 120u);  // everything that survived a scan is durable
  ASSERT_TRUE(log.recovered_view().has_value());
  EXPECT_EQ(log.recovered_view()->my_id, 2u);
  EXPECT_EQ(log.recovered_view()->next_deliver, 100u);
  for (SeqNum s = 100; s < 120; ++s) {
    auto rec = log.read_message(s);
    ASSERT_TRUE(rec.has_value()) << "seq " << s;
    EXPECT_EQ(rec->seq, s);
    EXPECT_EQ(rec->msg_id, s * 7 + 1);
    const Buffer want = payload(s);
    ASSERT_EQ(rec->data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(rec->data.data(), want.data(), want.size()));
  }
  EXPECT_FALSE(log.read_message(99).has_value());
  EXPECT_FALSE(log.read_message(120).has_value());
}

TEST(DurableLog, CrashLosesUnsyncedTail) {
  storage::MemStorage disk;
  {
    DurableLog log(disk);
    ASSERT_EQ(log.open(), Status::ok);
    ASSERT_EQ(append_n(log, 0, 10), Status::ok);
    ASSERT_EQ(log.sync(), Status::ok);
    ASSERT_EQ(append_n(log, 10, 5), Status::ok);  // never synced
    EXPECT_TRUE(log.dirty());
  }
  disk.crash_unsynced();
  DurableLog log(disk);
  ASSERT_EQ(log.open(), Status::ok);
  EXPECT_EQ(log.lo(), 0u);
  EXPECT_EQ(log.hi(), 10u) << "the un-fsynced tail must be gone";
  EXPECT_TRUE(log.read_message(9).has_value());
  EXPECT_FALSE(log.read_message(10).has_value());
}

TEST(DurableLog, TornTailIsTruncatedOnOpen) {
  storage::MemStorage disk;
  {
    DurableLog log(disk);
    ASSERT_EQ(log.open(), Status::ok);
    ASSERT_EQ(append_n(log, 0, 10), Status::ok);
    ASSERT_EQ(log.sync(), Status::ok);
  }
  // A crash mid-sector chops bytes off the *synced* end of the active
  // segment: the CRC of the last frame no longer matches.
  disk.crash_unsynced({.tear_tail_bytes = 3});
  DurableLog log(disk);
  ASSERT_EQ(log.open(), Status::ok);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.hi(), 9u) << "the torn final record must be dropped";
  for (SeqNum s = 0; s < 9; ++s) {
    EXPECT_TRUE(log.read_message(s).has_value()) << "seq " << s;
  }
  // The log keeps appending where the truncation left it.
  const Buffer p = payload(9);
  EXPECT_EQ(log.append_message(9, 1, 0, MessageKind::app, 64, p), Status::ok);
  EXPECT_EQ(log.sync(), Status::ok);
  EXPECT_EQ(log.hi(), 10u);
}

TEST(DurableLog, GapAppendResetsRange) {
  storage::MemStorage disk;
  DurableLog log(disk);
  ASSERT_EQ(log.open(), Status::ok);
  ASSERT_EQ(append_n(log, 5, 5), Status::ok);
  ASSERT_EQ(log.sync(), Status::ok);
  // Rejoin under a fresh position: the old suffix has been consumed.
  ASSERT_EQ(append_n(log, 100, 2), Status::ok);
  EXPECT_EQ(log.lo(), 100u);
  EXPECT_EQ(log.hi(), 102u);
  EXPECT_EQ(log.resets(), 1u);
  EXPECT_FALSE(log.read_message(5).has_value());
}

TEST(DurableLog, CheckpointRoundTripAndStaleRename) {
  storage::MemStorage disk;
  storage::FaultStorage faulty(disk, 7);
  DurableLog log(faulty);
  ASSERT_EQ(log.open(), Status::ok);
  ASSERT_EQ(append_n(log, 0, 8), Status::ok);
  ASSERT_EQ(log.sync(), Status::ok);

  const Buffer snap1 = payload(0xA0, 32);
  ASSERT_EQ(log.write_checkpoint(4, snap1), Status::ok);
  auto ck = log.read_checkpoint();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->as_of, 4u);
  EXPECT_EQ(ck->snapshot, snap1);

  // A crash can un-do the rename that publishes a checkpoint: the write
  // reports ok, but the old checkpoint is what the disk still holds.
  faulty.drop_next_rename();
  const Buffer snap2 = payload(0xB0, 32);
  (void)log.write_checkpoint(7, snap2);
  EXPECT_EQ(faulty.fault_stats().dropped_renames.load(), 1u);

  DurableLog reopened(faulty);
  ASSERT_EQ(reopened.open(), Status::ok);
  auto ck2 = reopened.read_checkpoint();
  ASSERT_TRUE(ck2.has_value()) << "the previous checkpoint must survive";
  EXPECT_EQ(ck2->as_of, 4u);
  EXPECT_EQ(ck2->snapshot, snap1);
}

TEST(DurableLog, FaultSweepNeverCorruptsSurvivingPrefix) {
  // Stochastic short writes and sync failures over many seeds: whatever
  // the log reports durable must read back intact after a crash, every
  // time. The sweep also proves faults were actually injected.
  std::uint64_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    storage::MemStorage disk;
    SeqNum reported_durable = 0;
    {
      storage::FaultStorage faulty(disk, seed);
      faulty.set_plan({.short_write = 0.1, .sync_fail = 0.2});
      DurableLog log(faulty, {.segment_bytes = 512});
      ASSERT_EQ(log.open(), Status::ok);
      ASSERT_EQ(log.append_view(view_at(0)), Status::ok);
      for (SeqNum s = 0; s < 60; ++s) {
        const Buffer p = payload(s);
        // A failed append may or may not stick; the log's own range is
        // authoritative. Re-try the same seq until it lands.
        for (int tries = 0; tries < 50; ++tries) {
          if (log.append_message(s, 1, 0, MessageKind::app, s + 1, p) ==
              Status::ok) {
            break;
          }
        }
        if (log.empty() || log.hi() != s + 1) break;  // wedged: judge what we have
        if (s % 8 == 7) {
          (void)log.sync();  // may fail; durable_hi only advances on ok
        }
      }
      (void)log.sync();
      reported_durable = log.empty() ? 0 : log.durable_hi();
      injected += faulty.fault_stats().injected();
    }
    disk.crash_unsynced();
    DurableLog after(disk, {.segment_bytes = 512});
    ASSERT_EQ(after.open(), Status::ok) << "seed " << seed;
    if (reported_durable == 0) continue;
    ASSERT_FALSE(after.empty()) << "seed " << seed;
    ASSERT_GE(after.hi(), reported_durable)
        << "seed " << seed << ": durable_hi promised " << reported_durable;
    for (SeqNum s = after.lo(); s < reported_durable; ++s) {
      auto rec = after.read_message(s);
      ASSERT_TRUE(rec.has_value()) << "seed " << seed << " seq " << s;
      const Buffer want = payload(s);
      ASSERT_EQ(rec->data.size(), want.size()) << "seed " << seed;
      EXPECT_EQ(0, std::memcmp(rec->data.data(), want.data(), want.size()))
          << "seed " << seed << " seq " << s;
    }
  }
  EXPECT_GT(injected, 0u) << "the sweep never injected a fault";
}

TEST(DurableLog, CompactionDropsWholeSegmentsAndBoundsDisk) {
  storage::MemStorage disk;
  DurableLog log(disk, {.segment_bytes = 4096});
  ASSERT_EQ(log.open(), Status::ok);
  ASSERT_EQ(log.append_view(view_at(0)), Status::ok);

  // Long churn: append + checkpoint + compact in waves; the on-disk size
  // must stay bounded by a few segments, not grow with history.
  std::uint64_t max_bytes = 0;
  SeqNum s = 0;
  for (int wave = 0; wave < 40; ++wave) {
    for (int k = 0; k < 50; ++k, ++s) {
      const Buffer p = payload(s, 64);
      ASSERT_EQ(log.append_message(s, 1, 0, MessageKind::app, s + 1, p),
                Status::ok);
    }
    ASSERT_EQ(log.sync(), Status::ok);
    const Buffer snap = payload(0xC0, 16);
    ASSERT_EQ(log.write_checkpoint(s, snap), Status::ok);
    ASSERT_EQ(log.compact(s), Status::ok);
    max_bytes = std::max(max_bytes, log.log_bytes());
  }
  EXPECT_GT(log.segments_dropped(), 0u);
  // 2000 x ~80-byte frames is ~160 KiB of history; compaction must keep
  // the live set to the active segment plus a handful of stragglers.
  EXPECT_LT(max_bytes, 5u * 4096u + 4096u)
      << "disk grew with history despite checkpoints";
  // The suffix past the last compaction still reads back.
  ASSERT_FALSE(log.empty());
  for (SeqNum q = log.lo(); q < log.hi(); ++q) {
    EXPECT_TRUE(log.read_message(q).has_value());
  }
}

TEST(DurableLog, PosixRoundTrip) {
  char tmpl[] = "/tmp/amoeba_log_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir(tmpl);
  {
    storage::PosixStorage disk(dir);
    DurableLog log(disk, {.segment_bytes = 2048});
    ASSERT_EQ(log.open(), Status::ok);
    ASSERT_EQ(log.append_view(view_at(0)), Status::ok);
    ASSERT_EQ(append_n(log, 0, 100), Status::ok);
    ASSERT_EQ(log.sync(), Status::ok);
    ASSERT_EQ(log.write_checkpoint(50, payload(0xD0, 24)), Status::ok);
  }
  storage::PosixStorage disk(dir);
  DurableLog log(disk, {.segment_bytes = 2048});
  ASSERT_EQ(log.open(), Status::ok);
  EXPECT_EQ(log.lo(), 0u);
  EXPECT_EQ(log.hi(), 100u);
  ASSERT_TRUE(log.recovered_view().has_value());
  auto ck = log.read_checkpoint();
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->as_of, 50u);
  for (SeqNum s = 0; s < 100; ++s) {
    auto rec = log.read_message(s);
    ASSERT_TRUE(rec.has_value()) << "seq " << s;
    const Buffer want = payload(s);
    EXPECT_EQ(0, std::memcmp(rec->data.data(), want.data(), want.size()));
  }
  // Cleanup.
  for (const std::string& f : disk.list()) (void)disk.remove(f);
  ::rmdir(dir.c_str());
}

// --- Config validation (typed bad_config for the new knobs) ----------------

TEST(DurableConfig, RejectsNonsenseKnobs) {
  GroupConfig c;
  c.durability = Durability::group_commit;
  c.log_segment_bytes = 0;
  EXPECT_EQ(c.normalize(), Status::bad_config);

  GroupConfig c2;
  c2.durability = Durability::async;
  c2.fsync_interval = Duration::millis(0);
  EXPECT_EQ(c2.normalize(), Status::bad_config);

  GroupConfig c3;
  c3.durability = Durability::group_commit;
  c3.log_segment_bytes = 16;  // absurdly small: clamped, not rejected
  EXPECT_EQ(c3.normalize(), Status::ok);
  EXPECT_GE(c3.log_segment_bytes, 4096u);

  GroupConfig c4;  // durability off: the knobs are inert, zero is fine
  c4.log_segment_bytes = 0;
  EXPECT_EQ(c4.normalize(), Status::ok);
}

// Group commit: an `ok` completion waits for the fsync that covers the
// message. While every barrier fails the send stays pending, retried on
// the flush timer; the first barrier that succeeds completes it.
TEST(DurableGroup, FailedBarriersHoldTheSendUntilOneSucceeds) {
  storage::MemStorage disk;
  storage::FaultStorage faulty(disk, 3);
  faulty.set_plan({.sync_fail = 1.0});
  GroupConfig cfg;
  cfg.durability = Durability::group_commit;
  DurableLog log(faulty, DurableLogOptions{.segment_bytes = cfg.log_segment_bytes});
  ASSERT_EQ(log.open(), Status::ok);
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());
  h.process(1).member().set_durable_log(&log);

  bool done = false;
  Status status = Status::failure;
  h.process(1).user_send(payload(1), [&](Status s) {
    status = s;
    done = true;
  });
  h.run_until([] { return false; }, Duration::millis(50));
  EXPECT_FALSE(done) << "completed before any barrier succeeded";
  EXPECT_GT(faulty.fault_stats().sync_fails.load(), 1u);
  EXPECT_GE(h.process(1).delivered_count(), 1u);

  faulty.set_plan({});
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));
  EXPECT_EQ(status, Status::ok);
}

// --- Compaction ack-map hygiene (regression) -------------------------------

// A member that leaves must be erased from the sequencer's ack map, or its
// last (stale, low) checkpoint ack pins min-over-members and the group
// never compacts past it.
TEST(DurableGroup, DepartedMemberDoesNotPinCompaction) {
  GroupConfig cfg;
  cfg.durability = Durability::group_commit;
  cfg.status_interval = Duration::millis(50);
  SimGroupHarness h(3, cfg);
  for (std::size_t i = 0; i < 3; ++i) h.process(i).enable_durability();
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  for (int k = 0; k < 10; ++k) {
    h.process(0).user_send(payload(static_cast<std::uint32_t>(k)),
                           [&](Status s) {
      ASSERT_EQ(s, Status::ok);
      ++sent;
    });
  }
  ASSERT_TRUE(h.run_until([&] { return sent == 10; }, Duration::seconds(30)));

  // Member 2 acks a low horizon, then leaves. Members 0 and 1 ack high.
  h.process(2).member().note_checkpoint(2);
  bool left = false;
  h.process(2).member().leave_group([&](Status s) { left = s == Status::ok; });
  ASSERT_TRUE(h.run_until([&] { return left; }, Duration::seconds(30)));

  const SeqNum high = h.process(0).member().info().next_seq;
  h.process(0).member().note_checkpoint(high);
  h.process(1).member().note_checkpoint(high);

  // With the departed member erased, min-over-members is `high` and the
  // compaction notice reaches everyone still in the group.
  ASSERT_TRUE(h.run_until(
      [&] {
        return h.process(0).member().stats().compaction_horizon.load() ==
                   high &&
               h.process(1).member().stats().compaction_horizon.load() == high;
      },
      Duration::seconds(30)))
      << "compaction pinned at the departed member's stale ack";
}

}  // namespace
}  // namespace amoeba::group
