// End-to-end smoke tests of the group protocol on the simulator.
#include <gtest/gtest.h>

#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig default_cfg() {
  GroupConfig cfg;
  return cfg;
}

/// Every test ends by running the ConformanceOracle over the full event
/// trace; `durable` lists the members that must hold every message by the
/// time the test's own wait predicates were satisfied.
void expect_conformant(SimGroupHarness& h,
                       std::vector<std::string> durable = {}) {
  check::OracleOptions opts;
  opts.durable_rings = std::move(durable);
  const auto v = h.check_conformance(opts);
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(200);
}

TEST(GroupBasic, FormGroupOfTwo) {
  SimGroupHarness h(2, default_cfg());
  ASSERT_TRUE(h.form_group());
  EXPECT_TRUE(h.process(0).member().i_am_sequencer());
  EXPECT_FALSE(h.process(1).member().i_am_sequencer());
  const GroupInfo info = h.process(1).member().info();
  EXPECT_EQ(info.size(), 2u);
  EXPECT_EQ(info.sequencer, 0u);
  EXPECT_EQ(info.my_id, 1u);
  expect_conformant(h);
}

TEST(GroupBasic, SingleBroadcastReachesEveryone) {
  SimGroupHarness h(3, default_cfg());
  ASSERT_TRUE(h.form_group());

  bool sent = false;
  h.process(1).user_send(make_pattern_buffer(100), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    sent = true;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!sent) return false;
        for (std::size_t i = 0; i < h.size(); ++i) {
          if (h.process(i).delivered().empty()) return false;
        }
        return true;
      },
      Duration::seconds(5)));

  for (std::size_t i = 0; i < h.size(); ++i) {
    // Skip membership events; find the app message.
    const GroupMessage* app = nullptr;
    for (const auto& m : h.process(i).delivered()) {
      if (m.kind == MessageKind::app) app = &m;
    }
    ASSERT_NE(app, nullptr) << "process " << i;
    EXPECT_EQ(app->sender, 1u);
    EXPECT_TRUE(check_pattern_buffer(app->data));
  }
  expect_conformant(h, {"m0", "m1", "m2"});
}

TEST(GroupBasic, TotalOrderWithConcurrentSenders) {
  SimGroupHarness h(4, default_cfg());
  ASSERT_TRUE(h.form_group());

  constexpr int kPerSender = 20;
  int completed = 0;
  // Chain sends: each process sends its next message when the previous
  // completes (the blocking-primitive pattern).
  std::function<void(std::size_t, int)> send_next = [&](std::size_t p,
                                                        int k) {
    if (k >= kPerSender) return;
    Buffer b(8);
    b[0] = static_cast<std::uint8_t>(p);
    b[1] = static_cast<std::uint8_t>(k);
    h.process(p).user_send(std::move(b), [&, p, k](Status s) {
      ASSERT_EQ(s, Status::ok);
      ++completed;
      send_next(p, k + 1);
    });
  };
  for (std::size_t p = 0; p < h.size(); ++p) send_next(p, 0);

  const auto total = static_cast<int>(h.size()) * kPerSender;
  ASSERT_TRUE(h.run_until(
      [&] {
        if (completed < total) return false;
        for (std::size_t i = 0; i < h.size(); ++i) {
          std::size_t apps = 0;
          for (const auto& m : h.process(i).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < static_cast<std::size_t>(total)) return false;
        }
        return true;
      },
      Duration::seconds(60)));

  // Total order: every process saw the identical sequence.
  const auto& ref = h.process(0).delivered();
  for (std::size_t i = 1; i < h.size(); ++i) {
    const auto& got = h.process(i).delivered();
    // Different processes join at different times, so their streams start
    // at different seqs; compare the common suffix by seq alignment.
    std::size_t ri = 0, gi = 0;
    while (ri < ref.size() && gi < got.size()) {
      if (seq_lt(ref[ri].seq, got[gi].seq)) {
        ++ri;
      } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
        ++gi;
      } else {
        EXPECT_EQ(ref[ri].sender, got[gi].sender);
        EXPECT_EQ(ref[ri].sender_msg_id, got[gi].sender_msg_id);
        EXPECT_EQ(ref[ri].data, got[gi].data);
        ++ri;
        ++gi;
      }
    }
  }
  expect_conformant(h, {"m0", "m1", "m2", "m3"});
}

TEST(GroupBasic, BbMethodDeliversLargeMessage) {
  GroupConfig cfg;
  cfg.method = Method::bb;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  bool sent = false;
  h.process(2).user_send(make_pattern_buffer(4096), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    sent = true;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!sent) return false;
        for (std::size_t i = 0; i < h.size(); ++i) {
          bool has_app = false;
          for (const auto& m : h.process(i).delivered()) {
            has_app |= m.kind == MessageKind::app;
          }
          if (!has_app) return false;
        }
        return true;
      },
      Duration::seconds(5)));

  for (std::size_t i = 0; i < h.size(); ++i) {
    for (const auto& m : h.process(i).delivered()) {
      if (m.kind == MessageKind::app) {
        EXPECT_EQ(m.data.size(), 4096u);
        EXPECT_TRUE(check_pattern_buffer(m.data));
      }
    }
  }
  EXPECT_GE(h.process(2).member().stats().sends_bb, 1u);
  expect_conformant(h, {"m0", "m1", "m2"});
}

TEST(GroupBasic, LeaveIsOrderedAndShrinksGroup) {
  SimGroupHarness h(3, default_cfg());
  ASSERT_TRUE(h.form_group());

  bool left = false;
  h.process(1).member().leave_group([&](Status s) {
    EXPECT_EQ(s, Status::ok);
    left = true;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return left && h.process(0).member().info().size() == 2 &&
               h.process(2).member().info().size() == 2;
      },
      Duration::seconds(5)));
  EXPECT_EQ(h.process(1).member().state(), GroupMember::State::left);
  expect_conformant(h);
}

TEST(GroupBasic, SequencerLeaveHandsOff) {
  SimGroupHarness h(3, default_cfg());
  ASSERT_TRUE(h.form_group());

  bool left = false;
  h.process(0).member().leave_group([&](Status s) {
    EXPECT_EQ(s, Status::ok);
    left = true;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return left && h.process(1).member().i_am_sequencer() &&
               h.process(2).member().info().sequencer == 1u;
      },
      Duration::seconds(5)));

  // The rebuilt pair still works.
  bool delivered = false;
  h.process(2).user_send(make_pattern_buffer(32), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    delivered = true;
  });
  EXPECT_TRUE(h.run_until([&] { return delivered; }, Duration::seconds(5)));
  expect_conformant(h);
}

TEST(GroupBasic, LateJoinerSeesSubsequentTraffic) {
  SimGroupHarness h(2, default_cfg());
  ASSERT_TRUE(h.form_group());

  SimProcess& late = h.add_process();
  bool joined = false;
  late.member().join_group(h.group_addr(), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    joined = true;
  });
  ASSERT_TRUE(h.run_until([&] { return joined; }, Duration::seconds(5)));
  EXPECT_EQ(late.member().info().size(), 3u);

  bool done = false;
  h.process(0).user_send(make_pattern_buffer(64), [&](Status) { done = true; });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!done) return false;
        for (const auto& m : late.delivered()) {
          if (m.kind == MessageKind::app) return true;
        }
        return false;
      },
      Duration::seconds(5)));
  expect_conformant(h);
}

}  // namespace
}  // namespace amoeba::group
