// Sequence-number wraparound: the protocol uses RFC-1982 serial
// arithmetic, so a long-lived group crossing the 2^32 boundary must keep
// delivering in order, recovering losses, and rebuilding after crashes.
#include <gtest/gtest.h>

#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig wrap_cfg() {
  GroupConfig cfg;
  // Start 20 messages before the wrap: the run crosses 0xFFFFFFFF -> 0.
  cfg.first_seq = 0xFFFFFFFFu - 20;
  cfg.send_retry = Duration::millis(20);
  cfg.send_retries = 4;
  return cfg;
}

std::vector<GroupMessage> apps(const SimProcess& p) {
  std::vector<GroupMessage> out;
  for (const auto& m : p.delivered()) {
    if (m.kind == MessageKind::app) out.push_back(m);
  }
  return out;
}

TEST(GroupWraparound, TotalOrderAcrossTheBoundary) {
  SimGroupHarness h(3, wrap_cfg());
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  std::function<void(std::size_t, int)> pump = [&](std::size_t p, int k) {
    if (k >= 20) return;
    Buffer b(2);
    b[0] = static_cast<std::uint8_t>(p);
    b[1] = static_cast<std::uint8_t>(k);
    h.process(p).user_send(std::move(b), [&, p, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(p, k + 1);
    });
  };
  for (std::size_t p = 0; p < 3; ++p) pump(p, 0);
  ASSERT_TRUE(h.run_until(
      [&] {
        if (sent < 60) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          if (apps(h.process(p)).size() < 60) return false;
        }
        return true;
      },
      Duration::seconds(120)));

  // Deliveries crossed the wrap (some seqs are huge, some tiny) yet stay
  // serially monotonic and identical at every member.
  const auto ref = apps(h.process(0));
  bool wrapped = false;
  for (std::size_t i = 1; i < ref.size(); ++i) {
    EXPECT_TRUE(seq_lt(ref[i - 1].seq, ref[i].seq));
    if (ref[i].seq < ref[i - 1].seq) wrapped = true;  // numeric wrap seen
  }
  EXPECT_TRUE(wrapped) << "test must actually cross the boundary";
  for (std::size_t p = 1; p < 3; ++p) {
    const auto got = apps(h.process(p));
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].seq, ref[i].seq);
      EXPECT_EQ(got[i].sender, ref[i].sender);
      EXPECT_EQ(got[i].data, ref[i].data);
    }
  }
}

TEST(GroupWraparound, NackRecoveryAcrossTheBoundary) {
  SimGroupHarness h(3, wrap_cfg());
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.12});

  int sent = 0;
  std::function<void(int)> pump = [&](int k) {
    if (k >= 50) return;
    h.process(1).user_send(make_pattern_buffer(16), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(k + 1);
    });
  };
  pump(0);
  ASSERT_TRUE(h.run_until(
      [&] {
        if (sent < 50) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          if (apps(h.process(p)).size() < 50) return false;
        }
        return true;
      },
      Duration::seconds(300)));
  for (std::size_t p = 0; p < 3; ++p) {
    for (const auto& m : apps(h.process(p))) {
      EXPECT_TRUE(check_pattern_buffer(m.data));
    }
  }
}

TEST(GroupWraparound, RecoveryAcrossTheBoundary) {
  GroupConfig cfg = wrap_cfg();
  cfg.invite_interval = Duration::millis(20);
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  std::function<void(int)> pump = [&](int k) {
    if (k >= 30) return;
    h.process(1).user_send(make_pattern_buffer(8), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(k + 1);
    });
  };
  pump(0);
  ASSERT_TRUE(h.run_until([&] { return sent == 30; }, Duration::seconds(60)));

  // The crash lands after the wrap; the rebuilt stream must preserve all
  // 30 sends with serial-consistent numbering.
  h.world().node(0).crash();
  std::optional<std::uint32_t> size;
  h.process(1).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return size.has_value() &&
               h.process(2).member().state() == GroupMember::State::running &&
               h.process(3).member().state() == GroupMember::State::running;
      },
      Duration::seconds(60)));
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(apps(h.process(p)).size(), 30u) << "member " << p;
  }
  int more = 0;
  h.process(2).user_send(make_pattern_buffer(8), [&](Status s) {
    if (s == Status::ok) ++more;
  });
  EXPECT_TRUE(h.run_until([&] { return more == 1; }, Duration::seconds(30)));
}

}  // namespace
}  // namespace amoeba::group
