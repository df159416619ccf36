// Sequencer-transfer extension tests (the Section 5 "migrating sequencer"
// retrospective): explicit hand-off of the ordering role without
// departure.
#include <gtest/gtest.h>

#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

TEST(GroupHandoff, TransferMovesRoleAndKeepsMembership) {
  SimGroupHarness h(4, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  ASSERT_TRUE(h.process(0).member().i_am_sequencer());

  std::optional<Status> result;
  h.process(0).member().transfer_sequencer(2, [&](Status s) { result = s; });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!result.has_value()) return false;
        for (std::size_t p = 0; p < 4; ++p) {
          if (h.process(p).member().info().sequencer != 2u) return false;
        }
        return true;
      },
      Duration::seconds(10)));
  EXPECT_EQ(*result, Status::ok);

  // Everyone still a member; everyone agrees on the new sequencer.
  for (std::size_t p = 0; p < 4; ++p) {
    const GroupInfo info = h.process(p).member().info();
    EXPECT_EQ(info.size(), 4u) << "member " << p;
    EXPECT_EQ(info.sequencer, 2u) << "member " << p;
  }
  EXPECT_FALSE(h.process(0).member().i_am_sequencer());
}

TEST(GroupHandoff, TrafficContinuesAfterTransfer) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  std::optional<Status> transferred;
  h.process(0).member().transfer_sequencer(1,
                                           [&](Status s) { transferred = s; });
  ASSERT_TRUE(h.run_until([&] { return transferred.has_value(); },
                          Duration::seconds(10)));

  int done = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    h.process(p).user_send(make_pattern_buffer(32), [&](Status s) {
      EXPECT_EQ(s, Status::ok);
      ++done;
    });
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        if (done < 3) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          std::size_t apps = 0;
          for (const auto& m : h.process(p).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < 3) return false;
        }
        return true;
      },
      Duration::seconds(10)));

  // Total order preserved across the hand-off boundary.
  const auto& ref = h.process(0).delivered();
  const auto& got = h.process(2).delivered();
  std::size_t ri = 0, gi = 0;
  while (ri < ref.size() && gi < got.size()) {
    if (seq_lt(ref[ri].seq, got[gi].seq)) {
      ++ri;
    } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
      ++gi;
    } else {
      EXPECT_EQ(ref[ri].sender, got[gi].sender);
      ++ri;
      ++gi;
    }
  }
}

TEST(GroupHandoff, TransferDuringTrafficDrainsFirst) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  // Keep a sender busy while the transfer is requested.
  int sent = 0;
  std::function<void(int)> next = [&](int k) {
    if (k >= 30) return;
    h.process(2).user_send(make_pattern_buffer(16), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      next(k + 1);
    });
  };
  next(0);

  std::optional<Status> transferred;
  h.engine().schedule(Duration::millis(10), [&] {
    h.process(0).member().transfer_sequencer(1,
                                             [&](Status s) { transferred = s; });
  });

  ASSERT_TRUE(h.run_until(
      [&] {
        if (!transferred.has_value() || sent < 30) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          std::size_t apps = 0;
          for (const auto& m : h.process(p).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < 30) return false;
        }
        return true;
      },
      Duration::seconds(60)));
  EXPECT_EQ(*transferred, Status::ok);
  EXPECT_TRUE(h.process(1).member().i_am_sequencer());
  // Every message was delivered exactly once at every member despite the
  // mid-stream role change.
  for (std::size_t p = 0; p < 3; ++p) {
    std::size_t apps = 0;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind == MessageKind::app) ++apps;
    }
    EXPECT_EQ(apps, 30u) << "member " << p;
  }
}

TEST(GroupHandoff, InvalidTransfersRejected) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  std::optional<Status> r1;
  h.process(1).member().transfer_sequencer(2, [&](Status s) { r1 = s; });
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, Status::invalid_argument) << "only the sequencer may transfer";

  std::optional<Status> r2;
  h.process(0).member().transfer_sequencer(99, [&](Status s) { r2 = s; });
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, Status::not_member);

  std::optional<Status> r3;
  h.process(0).member().transfer_sequencer(0, [&](Status s) { r3 = s; });
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(*r3, Status::ok) << "self-transfer is a no-op";
  EXPECT_TRUE(h.process(0).member().i_am_sequencer());
}

TEST(GroupHandoff, ChainedTransfersRotateTheRole) {
  SimGroupHarness h(4, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  MemberId holder = 0;
  for (const MemberId next_holder : {1u, 2u, 3u, 0u}) {
    std::optional<Status> r;
    // Find the process currently holding the role (ids == indices here).
    h.process(holder).member().transfer_sequencer(next_holder,
                                                  [&](Status s) { r = s; });
    ASSERT_TRUE(h.run_until(
        [&] {
          return r.has_value() &&
                 h.process(next_holder).member().i_am_sequencer();
        },
        Duration::seconds(10)))
        << "transfer " << holder << " -> " << next_holder;
    EXPECT_EQ(*r, Status::ok);
    holder = next_holder;
  }
}

/// Member 2 hears nothing from 0 or 1 while the role moves 0 -> 1; then
/// `coordinator` runs a ResetGroup. Member 2 delivers the hand-off it
/// missed only from the rebuilt stream, after the reset's result has named
/// the rebuilt group's sequencer. Every survivor must agree on that one
/// sequencer, and every member's send must then complete.
void reset_after_a_missed_handoff(std::size_t coordinator) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  const auto station = [&](std::size_t p) {
    return h.process(p).faults().station();
  };
  transport::NemesisEvent cut;
  cut.kind = transport::NemesisEvent::Kind::partition;
  cut.cuts = {{station(0), station(2)}, {station(1), station(2)}};
  transport::NemesisEvent heal;
  heal.at = Duration::millis(20);
  heal.kind = transport::NemesisEvent::Kind::heal;
  for (std::size_t i = 0; i < h.size(); ++i) {
    h.process(i).faults().set_schedule({cut, heal});
    h.process(i).faults().start_nemesis();
  }
  const Time start = h.engine().now();

  std::optional<Status> transferred;
  h.process(0).member().transfer_sequencer(1,
                                           [&](Status s) { transferred = s; });
  ASSERT_TRUE(h.run_until([&] { return transferred.has_value(); },
                          Duration::millis(15)));
  EXPECT_EQ(*transferred, Status::ok);
  ASSERT_EQ(h.process(2).member().info().sequencer, 0u)
      << "member 2 must have missed the hand-off";

  // Reset just after the cut heals.
  std::optional<Status> reset;
  h.engine().schedule(heal.at - (h.engine().now() - start) + Duration::millis(1),
                      [&] {
                        h.process(coordinator).member().reset_group(
                            2, [&](Status s, std::uint32_t) { reset = s; });
                      });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!reset.has_value()) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          if (h.process(p).member().state() != GroupMember::State::running) {
            return false;
          }
        }
        return true;
      },
      Duration::seconds(10)));
  EXPECT_EQ(*reset, Status::ok);
  const MemberId seq = h.process(coordinator).member().info().sequencer;
  EXPECT_EQ(seq, coordinator) << "a ResetGroup's coordinator sequences";
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.process(p).member().info().sequencer, seq) << "member " << p;
  }
  EXPECT_TRUE(h.process(seq).member().i_am_sequencer());

  int ok = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    h.process(p).user_send(make_pattern_buffer(32), [&, p](Status s) {
      EXPECT_EQ(s, Status::ok) << "send from member " << p;
      if (s == Status::ok) ++ok;
    });
  }
  // Every member delivers all three, member 2 past the hand-off it missed.
  ASSERT_TRUE(h.run_until(
      [&] {
        if (ok < 3) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          std::size_t apps = 0;
          for (const auto& m : h.process(p).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < 3) return false;
        }
        return true;
      },
      Duration::seconds(10)));
}

TEST(GroupHandoff, ResetByAMemberThatMissedTheHandoffNamesOneSequencer) {
  reset_after_a_missed_handoff(/*coordinator=*/2);
}

TEST(GroupHandoff, ResetOverAVoterThatMissedTheHandoffNamesOneSequencer) {
  reset_after_a_missed_handoff(/*coordinator=*/0);
}

}  // namespace
}  // namespace amoeba::group
