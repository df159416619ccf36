// Chaos testing: a randomized schedule of sends, joins, leaves, crashes,
// and resets, with frame-level faults underneath — swept over seeds. At
// the end, the safety invariants must hold on whatever group survived.
//
// This is deliberately unscripted: the point is to walk protocol-state
// corners no hand-written scenario reaches.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

// CTest names each case with gtest's raw byte dump of its parameter.
// `pad` takes the place of the compiler's padding after `allow_crashes`,
// so those bytes are zero on every build instead of whatever the stack
// held.
struct ChaosParams {
  std::uint64_t seed;
  double loss;
  bool allow_crashes;
  std::uint8_t pad[7]{};
};
// No implicit padding left: the members fill the whole object.
// (has_unique_object_representations_v is false for any struct holding a
// double, so the check is by size.)
static_assert(sizeof(ChaosParams) ==
              sizeof(std::uint64_t) + sizeof(double) + sizeof(bool) + 7);

class GroupChaos : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(GroupChaos, InvariantsSurviveRandomSchedules) {
  const ChaosParams param = GetParam();
  Rng rng(param.seed);

  GroupConfig cfg;
  cfg.send_retry = Duration::millis(30);
  cfg.send_retries = 4;
  cfg.invite_interval = Duration::millis(25);
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = param.loss});

  std::set<std::size_t> crashed;
  std::set<std::size_t> left;
  int resets_pending = 0;

  // The schedule: 80 random actions, spaced 1-15 ms apart.
  Time at = h.engine().now();
  for (int step = 0; step < 80; ++step) {
    at += Duration::millis(static_cast<std::int64_t>(1 + rng.below(15)));
    const std::uint64_t dice = rng.below(100);
    const std::size_t victim = rng.below(4);
    h.engine().schedule_at(at, [&, dice, victim] {
      auto& proc = h.process(victim);
      if (crashed.count(victim) > 0 || left.count(victim) > 0) return;
      if (dice < 70) {
        // Send (fire and forget; completion is checked via invariants).
        if (proc.member().state() == GroupMember::State::running) {
          Buffer b(6);
          b[0] = static_cast<std::uint8_t>(victim);
          proc.user_send(std::move(b), [](Status) {});
        }
      } else if (dice < 80) {
        // A member leaves (but keep at least 2 participants).
        if (4 - crashed.size() - left.size() > 2 &&
            proc.member().state() == GroupMember::State::running) {
          left.insert(victim);
          proc.member().leave_group([](Status) {});
        }
      } else if (dice < 90 && param.allow_crashes) {
        // Crash (keep at least 2 alive).
        if (4 - crashed.size() - left.size() > 2) {
          crashed.insert(victim);
          h.world().node(victim).crash();
        }
      } else {
        // Paranoid / recovering reset from any live member.
        if (proc.member().state() == GroupMember::State::running ||
            proc.member().state() == GroupMember::State::failed) {
          ++resets_pending;
          proc.member().reset_group(2, [&](Status, std::uint32_t) {
            --resets_pending;
          });
        }
      }
    });
  }

  // Run the schedule out, then give the survivors time to settle; fire a
  // final reset from a live member if anyone is stuck in failed state.
  h.run_until([] { return false; }, Duration::seconds(3));
  for (std::size_t p = 0; p < 4; ++p) {
    if (crashed.count(p) > 0 || left.count(p) > 0) continue;
    if (h.process(p).member().state() == GroupMember::State::failed) {
      h.process(p).member().reset_group(1, [](Status, std::uint32_t) {});
      break;
    }
  }
  h.run_until([&] { return resets_pending == 0; }, Duration::seconds(10));
  h.run_until([] { return false; }, Duration::seconds(2));

  // --- Invariants over the survivors ------------------------------------
  std::vector<std::size_t> alive;
  for (std::size_t p = 0; p < 4; ++p) {
    if (crashed.count(p) > 0 || left.count(p) > 0) continue;
    if (h.process(p).member().state() == GroupMember::State::running) {
      alive.push_back(p);
    }
  }
  ASSERT_GE(alive.size(), 1u) << "somebody must have survived the chaos";

  // Same incarnation & sequencer at every running survivor.
  const GroupInfo ref_info = h.process(alive[0]).member().info();
  for (const std::size_t p : alive) {
    const GroupInfo info = h.process(p).member().info();
    EXPECT_EQ(info.incarnation, ref_info.incarnation) << "member " << p;
    EXPECT_EQ(info.sequencer, ref_info.sequencer) << "member " << p;
  }

  // Pairwise agreement on overlapping delivery ranges; exactly-once per
  // member.
  for (const std::size_t p : alive) {
    std::set<std::pair<MemberId, std::uint32_t>> seen;
    SeqNum prev = 0;
    bool first = true;
    for (const auto& m : h.process(p).delivered()) {
      if (!first) {
        EXPECT_TRUE(seq_lt(prev, m.seq)) << "member " << p;
      }
      prev = m.seq;
      first = false;
      if (m.kind != MessageKind::app) continue;
      EXPECT_TRUE(seen.insert({m.sender, m.sender_msg_id}).second)
          << "duplicate at member " << p;
    }
  }
  const auto& ref = h.process(alive[0]).delivered();
  for (const std::size_t p : alive) {
    const auto& got = h.process(p).delivered();
    std::size_t ri = 0, gi = 0;
    while (ri < ref.size() && gi < got.size()) {
      if (seq_lt(ref[ri].seq, got[gi].seq)) {
        ++ri;
      } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
        ++gi;
      } else {
        EXPECT_EQ(ref[ri].sender, got[gi].sender)
            << "divergence at seq " << ref[ri].seq << " member " << p;
        EXPECT_EQ(ref[ri].sender_msg_id, got[gi].sender_msg_id);
        ++ri;
        ++gi;
      }
    }
  }

  // The surviving group still works: one more round-trip send.
  int final_ok = 0;
  h.process(alive[0]).user_send(Buffer{9, 9},
                                [&](Status s) {
                                  if (s == Status::ok) ++final_ok;
                                });
  EXPECT_TRUE(h.run_until([&] { return final_ok == 1; },
                          Duration::seconds(30)))
      << "survivors cannot make progress";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GroupChaos,
    ::testing::Values(ChaosParams{101, 0.00, false},
                      ChaosParams{102, 0.05, false},
                      ChaosParams{103, 0.10, false},
                      ChaosParams{104, 0.00, true},
                      ChaosParams{105, 0.03, true},
                      ChaosParams{106, 0.06, true},
                      ChaosParams{107, 0.10, true},
                      ChaosParams{108, 0.03, true},
                      ChaosParams{109, 0.06, true},
                      ChaosParams{110, 0.10, true}),
    [](const ::testing::TestParamInfo<ChaosParams>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_loss" +
             std::to_string(static_cast<int>(param_info.param.loss * 100)) +
             (param_info.param.allow_crashes ? "_crashes" : "_nocrash");
    });

}  // namespace
}  // namespace amoeba::group
