// Message-count tests: the frames each station puts on the wire, and the
// resilience acks each member sends, pin the paper's per-broadcast message
// costs — here, the headline "2 messages per broadcast" claim for the PB
// method and the r-ack exchange of a resilient send.
#include <gtest/gtest.h>

#include <vector>

#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

/// Frames each station has put on the wire so far.
std::vector<std::uint64_t> frames_sent(SimGroupHarness& h) {
  std::vector<std::uint64_t> out;
  for (std::size_t p = 0; p < h.size(); ++p) {
    out.push_back(h.process(p).sim_node().nic().tx_sent());
  }
  return out;
}

std::uint64_t acks_sent(SimGroupHarness& h) {
  std::uint64_t n = 0;
  for (std::size_t p = 0; p < h.size(); ++p) {
    n += h.process(p).member().stats().resil_acks_sent;
  }
  return n;
}

TEST(GroupTrace, PbBroadcastIsExactlyTwoProtocolMessages) {
  SimGroupHarness h(4, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  const std::vector<std::uint64_t> before = frames_sent(h);

  bool done = false;
  h.process(1).user_send(make_pattern_buffer(10), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));

  const std::vector<std::uint64_t> after = frames_sent(h);
  EXPECT_EQ(after[1] - before[1], 1u) << "PB method: one point-to-point request";
  EXPECT_EQ(after[0] - before[0], 1u) << "PB method: one sequenced broadcast";
  EXPECT_EQ(after[2] - before[2], 0u);
  EXPECT_EQ(after[3] - before[3], 0u);
}

TEST(GroupTrace, ResilienceAddsTentativeAckAcceptExchange) {
  GroupConfig cfg;
  cfg.resilience = 2;
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());
  const std::vector<std::uint64_t> before = frames_sent(h);
  const std::uint64_t acks_before = acks_sent(h);

  bool done = false;
  h.process(3).user_send(make_pattern_buffer(10), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));
  h.run_until([] { return false; }, Duration::millis(20));

  // r = 2, sender id 3, sequencer id 0: ackers are ids {0, 1}, of which
  // id 0 acks locally (counted, but no frame on the wire).
  const std::vector<std::uint64_t> after = frames_sent(h);
  EXPECT_EQ(acks_sent(h) - acks_before, 2u)
      << "r acks from the lowest-numbered members";
  EXPECT_EQ(after[0] - before[0], 2u)
      << "the sequencer sends one tentative broadcast and one final accept";
  EXPECT_EQ(after[1] - before[1], 1u) << "member 1's ack";
  EXPECT_EQ(after[3] - before[3], 1u) << "the PB request";
}

TEST(GroupTrace, SequencerOriginSendSubstitutesAckersBelowR) {
  // Regression: with r = 1 a send from member 0 (the sequencer's own
  // station) used to pick "the r lowest-numbered members minus the sender"
  // = nobody, finalizing immediately with zero remote copies — one crash
  // could then lose an ok-completed message. The next member up must
  // substitute: member 1 acks, and only then does the accept go out.
  GroupConfig cfg;
  cfg.resilience = 1;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());
  const std::vector<std::uint64_t> before = frames_sent(h);
  const std::uint64_t member1_acks =
      h.process(1).member().stats().resil_acks_sent;

  bool done = false;
  h.process(0).user_send(make_pattern_buffer(10), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));
  h.run_until([] { return false; }, Duration::millis(20));

  const std::vector<std::uint64_t> after = frames_sent(h);
  EXPECT_EQ(h.process(1).member().stats().resil_acks_sent - member1_acks, 1u)
      << "member 1 substitutes for the sender's own id 0";
  EXPECT_EQ(acks_sent(h), 1u) << "nobody else acks";
  // Finalized at once, the accept would ride the tentative entry's frame.
  EXPECT_EQ(after[0] - before[0], 2u)
      << "the final accept waits for the substitute ack";
}

}  // namespace
}  // namespace amoeba::group
