// Membership machinery under stress: joins and leaves interleaved with
// traffic and faults, snapshot loss, join retries, churn.
#include <gtest/gtest.h>

#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

TEST(GroupMembership, JoinDuringHeavyTraffic) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  std::function<void(int)> next = [&](int k) {
    if (k >= 60) return;
    h.process(1).user_send(make_pattern_buffer(64), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      next(k + 1);
    });
  };
  next(0);

  // Joiner arrives mid-stream.
  SimProcess& late = h.add_process();
  bool joined = false;
  h.engine().schedule(Duration::millis(30), [&] {
    late.member().join_group(h.group_addr(), [&](Status s) {
      ASSERT_EQ(s, Status::ok);
      joined = true;
    });
  });

  ASSERT_TRUE(h.run_until([&] { return sent == 60 && joined; },
                          Duration::seconds(120)));

  // The joiner's stream must be a contiguous suffix of the sequencer's:
  // every message after its join event, no gaps, same order.
  ASSERT_TRUE(h.run_until(
      [&] {
        return !late.delivered().empty() &&
               late.delivered().back().seq ==
                   h.process(0).delivered().back().seq;
      },
      Duration::seconds(30)));
  const auto& mine = late.delivered();
  for (std::size_t i = 1; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].seq, mine[i - 1].seq + 1) << "gap in joiner's stream";
  }
  // And those messages match the sequencer's verbatim.
  const auto& ref = h.process(0).delivered();
  std::size_t ri = 0;
  while (ri < ref.size() && ref[ri].seq != mine.front().seq) ++ri;
  ASSERT_LT(ri, ref.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ASSERT_EQ(ref[ri + i].sender, mine[i].sender);
    ASSERT_EQ(ref[ri + i].data, mine[i].data);
  }
}

TEST(GroupMembership, LeaveRetriesPastAOneWayCut) {
  // A one-way cut from the leaver to the sequencer eats the first
  // leave_req; the leave timer re-sends it after the cut heals.
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  transport::NemesisEvent cut;
  cut.kind = transport::NemesisEvent::Kind::partition;
  cut.cuts = {{h.process(2).faults().station(),
               h.process(0).faults().station()}};
  transport::NemesisEvent heal;
  heal.at = Duration::millis(60);
  heal.kind = transport::NemesisEvent::Kind::heal;
  for (std::size_t i = 0; i < h.size(); ++i) {
    h.process(i).faults().set_schedule({cut, heal});
    h.process(i).faults().start_nemesis();
  }

  const Time start = h.engine().now();
  Time end{};
  Status status = Status::failure;
  bool done = false;
  h.process(2).member().leave_group([&](Status s) {
    status = s;
    end = h.engine().now();
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));
  EXPECT_EQ(status, Status::ok);
  EXPECT_GE(end - start, Duration::millis(60));
  std::uint64_t drops = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    drops += h.process(i).faults().fault_stats().partition_drops;
  }
  EXPECT_EQ(drops, 1u) << "only the first leave_req meets the cut";
  EXPECT_EQ(h.process(0).member().info().members.size(), 2u);
}

TEST(GroupMembership, JoinSurvivesSnapshotLoss) {
  GroupConfig cfg;
  cfg.join_retry = Duration::millis(30);
  SimGroupHarness h(2, cfg);
  ASSERT_TRUE(h.form_group());
  // Heavy loss while joining: join_req or the snapshot may vanish; the
  // retry machinery must get the member in anyway.
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.4});
  SimProcess& late = h.add_process();
  bool joined = false;
  late.member().join_group(h.group_addr(), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    joined = true;
  });
  ASSERT_TRUE(h.run_until([&] { return joined; }, Duration::seconds(60)));
  h.world().segment().set_fault_plan(sim::FaultPlan{});
  ASSERT_TRUE(h.run_until(
      [&] { return h.process(0).member().info().size() == 3; },
      Duration::seconds(30)));
}

TEST(GroupMembership, JoinTimesOutWithNoGroup) {
  GroupConfig cfg;
  cfg.join_retry = Duration::millis(10);
  cfg.join_retries = 3;
  sim::World world(1);
  SimProcess p(world.node(0), flip::process_address(99), cfg);
  std::optional<Status> result;
  p.member().join_group(flip::group_address(0xDEAD),
                        [&](Status s) { result = s; });
  world.engine().run_until(world.now() + Duration::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Status::timeout);
  EXPECT_EQ(p.member().state(), GroupMember::State::idle)
      << "a failed join leaves the member reusable";
}

TEST(GroupMembership, ChurnManyJoinsAndLeaves) {
  SimGroupHarness h(2, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  // Three extra processes join, two leave again, interleaved with sends.
  std::vector<SimProcess*> extras;
  for (int i = 0; i < 3; ++i) extras.push_back(&h.add_process());

  int joined = 0;
  for (auto* p : extras) {
    p->member().join_group(h.group_addr(), [&](Status s) {
      ASSERT_EQ(s, Status::ok);
      ++joined;
    });
  }
  ASSERT_TRUE(h.run_until([&] { return joined == 3; }, Duration::seconds(30)));
  EXPECT_EQ(h.process(0).member().info().size(), 5u);

  int sent = 0;
  h.process(1).user_send(make_pattern_buffer(10),
                         [&](Status) { ++sent; });

  int left = 0;
  extras[0]->member().leave_group([&](Status s) {
    EXPECT_EQ(s, Status::ok);
    ++left;
  });
  extras[1]->member().leave_group([&](Status s) {
    EXPECT_EQ(s, Status::ok);
    ++left;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return left == 2 && sent == 1 &&
               h.process(0).member().info().size() == 3;
      },
      Duration::seconds(60)));

  // All remaining members agree on the view.
  const auto ref = h.process(0).member().info();
  EXPECT_EQ(h.process(1).member().info().size(), ref.size());
  EXPECT_EQ(extras[2]->member().info().size(), ref.size());
}

TEST(GroupMembership, ViewChangeCallbacksCarryRecoveryFlag) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  for (const auto& v : h.process(0).views()) {
    EXPECT_FALSE(v.from_recovery);
  }
  h.world().node(0).crash();
  std::optional<std::uint32_t> size;
  GroupConfig fast;
  h.process(1).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until([&] { return size.has_value(); },
                          Duration::seconds(60)));
  ASSERT_FALSE(h.process(1).views().empty());
  EXPECT_TRUE(h.process(1).views().back().from_recovery);
  EXPECT_GT(h.process(1).views().back().incarnation, 0u);
}

TEST(GroupMembership, RejoinAfterExpulsion) {
  GroupConfig cfg;
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 2;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  // Freeze member 2 long enough to be expelled, then let it rejoin as a
  // fresh member.
  h.world().node(2).charge(Duration::seconds(2));
  int sent = 0;
  std::function<void(int)> next = [&](int k) {
    if (k >= 40) return;
    h.process(1).user_send(make_pattern_buffer(8), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      next(k + 1);
    });
  };
  next(0);

  ASSERT_TRUE(h.run_until(
      [&] { return h.process(2).fault().has_value(); }, Duration::seconds(60)));

  // The expelled member rejoins: it gets a NEW member id.
  const MemberId old_id = 2;
  bool rejoined = false;
  // A fresh process object models the restart (the old instance is dead).
  SimProcess& fresh = h.add_process();
  fresh.member().join_group(h.group_addr(), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    rejoined = true;
  });
  ASSERT_TRUE(h.run_until([&] { return rejoined && sent == 40; },
                          Duration::seconds(60)));
  EXPECT_GT(fresh.member().info().my_id, old_id);
  EXPECT_EQ(h.process(0).member().info().size(), 3u);
}

TEST(GroupMembership, GetInfoGroupReportsAccurately) {
  GroupConfig cfg;
  cfg.resilience = 1;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());
  const GroupInfo info = h.process(2).member().info();
  EXPECT_EQ(info.group, h.group_addr());
  EXPECT_EQ(info.incarnation, 0u);
  EXPECT_EQ(info.my_id, 2u);
  EXPECT_EQ(info.sequencer, 0u);
  EXPECT_EQ(info.resilience, 1u);
  EXPECT_EQ(info.size(), 3u);
  EXPECT_FALSE(info.i_am_sequencer());
  EXPECT_TRUE(h.process(0).member().info().i_am_sequencer());
  // member_address is what RPC ForwardRequest uses.
  EXPECT_TRUE(h.process(0).member().member_address(2).has_value());
  EXPECT_FALSE(h.process(0).member().member_address(77).has_value());
}

}  // namespace
}  // namespace amoeba::group
