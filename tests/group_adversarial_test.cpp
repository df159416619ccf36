// Adversarial scenarios: stale incarnations, method/resilience/recovery
// cross products, and cost-model sanity.
#include <gtest/gtest.h>

#include <type_traits>

#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig fast_cfg() {
  GroupConfig cfg;
  cfg.send_retry = Duration::millis(20);
  cfg.send_retries = 3;
  cfg.invite_interval = Duration::millis(20);
  return cfg;
}

std::size_t app_count(const SimProcess& p) {
  std::size_t n = 0;
  for (const auto& m : p.delivered()) {
    if (m.kind == MessageKind::app) ++n;
  }
  return n;
}

TEST(GroupAdversarial, LazarusSequencerCannotCorruptTheNewIncarnation) {
  // The old sequencer's machine freezes (not fail-stop-clean: it comes
  // BACK later, still believing it runs incarnation 0). Incarnation
  // fencing must isolate it completely.
  SimGroupHarness h(4, fast_cfg());
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  std::function<void(std::size_t, int, int)> pump = [&](std::size_t p, int k,
                                                        int limit) {
    if (k >= limit) return;
    h.process(p).user_send(make_pattern_buffer(16), [&, p, k, limit](Status s) {
      if (s == Status::ok) ++sent;
      pump(p, k + 1, limit);
    });
  };
  pump(1, 0, 10);
  ASSERT_TRUE(h.run_until([&] { return sent == 10; }, Duration::seconds(30)));

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

  // Lazarus: the old sequencer's hardware comes back; its protocol state
  // still says "I am the sequencer of incarnation 0".
  h.world().node(0).restart();
  EXPECT_TRUE(h.process(0).member().i_am_sequencer());

  // It even tries to send (which would assign seqs in incarnation 0).
  h.process(0).member().send_to_group(make_pattern_buffer(8), [](Status) {});

  // Meanwhile the live incarnation keeps working...
  pump(2, 0, 10);
  ASSERT_TRUE(h.run_until([&] { return sent == 20; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(200));

  // ...and none of the survivors ever accepted anything from the ghost.
  const Incarnation live_inc = h.process(1).member().info().incarnation;
  EXPECT_GT(live_inc, 0u);
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind == MessageKind::app) {
        EXPECT_TRUE(check_pattern_buffer(m.data));
      }
    }
    EXPECT_EQ(h.process(p).member().info().incarnation, live_inc);
    EXPECT_EQ(app_count(h.process(p)), 20u);
  }
}

// CTest names each case with gtest's raw byte dump of its parameter.
// `pad` takes the place of the padding after `method`, so those bytes
// are zero on every build instead of whatever the stack held.
struct MethodResilience {
  Method method;
  std::uint8_t pad[3];
  std::uint32_t r;
};
static_assert(std::has_unique_object_representations_v<MethodResilience>);

class RecoveryMatrix : public ::testing::TestWithParam<MethodResilience> {};

TEST_P(RecoveryMatrix, CrashAndRebuildUnderEveryMethod) {
  GroupConfig cfg = fast_cfg();
  cfg.method = GetParam().method;
  cfg.resilience = GetParam().r;
  SimGroupHarness h(5, cfg);
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  std::function<void(std::size_t, int)> pump = [&](std::size_t p, int k) {
    if (k >= 15) return;
    h.process(p).user_send(make_pattern_buffer(700), [&, p, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(p, k + 1);
    });
  };
  for (const std::size_t p : {std::size_t{2}, std::size_t{3}}) pump(p, 0);
  ASSERT_TRUE(h.run_until([&] { return sent == 30; }, Duration::seconds(60)));

  h.world().node(0).crash();
  std::optional<std::uint32_t> size;
  h.process(2).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!size.has_value()) return false;
        for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
          if (h.process(p).member().state() != GroupMember::State::running) {
            return false;
          }
        }
        return true;
      },
      Duration::seconds(60)));
  EXPECT_EQ(*size, 4u);

  // All completed pre-crash sends survive at every member; traffic
  // continues under the same method.
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    EXPECT_EQ(app_count(h.process(p)), 30u) << "member " << p;
  }
  int more = 0;
  h.process(4).user_send(make_pattern_buffer(700), [&](Status s) {
    if (s == Status::ok) ++more;
  });
  EXPECT_TRUE(h.run_until([&] { return more == 1; }, Duration::seconds(30)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryMatrix,
    ::testing::Values(MethodResilience{Method::pb, {}, 0},
                      MethodResilience{Method::bb, {}, 0},
                      MethodResilience{Method::dynamic, {}, 0},
                      MethodResilience{Method::pb, {}, 2},
                      MethodResilience{Method::bb, {}, 2},
                      MethodResilience{Method::dynamic, {}, 2}),
    [](const ::testing::TestParamInfo<MethodResilience>& param_info) {
      const char* name = param_info.param.method == Method::pb   ? "pb"
                         : param_info.param.method == Method::bb ? "bb"
                                                           : "dyn";
      return std::string(name) + "_r" + std::to_string(param_info.param.r);
    });

TEST(GroupAdversarial, ResetWhileHealthyIsHarmless) {
  // ResetGroup on a perfectly healthy group (paranoid application): must
  // succeed, keep everyone, and not lose or duplicate anything.
  SimGroupHarness h(3, fast_cfg());
  ASSERT_TRUE(h.form_group());
  int sent = 0;
  std::function<void(int)> pump = [&](int k) {
    if (k >= 20) return;
    h.process(1).user_send(make_pattern_buffer(8), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(k + 1);
    });
  };
  pump(0);

  std::optional<std::uint32_t> size;
  h.engine().schedule(Duration::millis(15), [&] {
    h.process(0).member().reset_group(3, [&](Status s, std::uint32_t n) {
      ASSERT_EQ(s, Status::ok);
      size = n;
    });
  });
  ASSERT_TRUE(h.run_until(
      [&] { return sent == 20 && size.has_value(); }, Duration::seconds(60)));
  EXPECT_EQ(*size, 3u);
  h.run_until([] { return false; }, Duration::millis(200));
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(app_count(h.process(p)), 20u);
    // No duplicates either.
    std::set<std::pair<MemberId, std::uint32_t>> seen;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind != MessageKind::app) continue;
      EXPECT_TRUE(seen.insert({m.sender, m.sender_msg_id}).second);
    }
  }
}

TEST(CostModel, WireTimeAndCopies) {
  const sim::CostModel m = sim::CostModel::mc68030_ether10();
  // 116-byte minimal group frame: 92.8 us on the wire + framing overhead.
  EXPECT_NEAR(m.wire_time(116).to_micros(), 108.8, 0.01);
  // Runt frames pad to 64 bytes.
  EXPECT_DOUBLE_EQ(m.wire_time(10).to_micros(), m.wire_time(64).to_micros());
  // Copies: 0.15 us/byte.
  EXPECT_NEAR(m.copy_time(8000).to_micros(), 1200.0, 0.01);
  EXPECT_EQ(m.copy_time(0).ns, 0);
  // The free model really is free.
  const sim::CostModel f = sim::CostModel::free();
  EXPECT_EQ(f.group_sequence().ns, 0);
  EXPECT_EQ(f.copy_time(100000).ns, 0);
  EXPECT_LT(f.wire_time(1514).to_micros(), 2.0);
}

}  // namespace
}  // namespace amoeba::group
