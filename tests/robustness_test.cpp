// Robustness: hostile and random bytes against every wire decoder, and
// protocol behaviour when garbage arrives on live endpoints. Decoders
// must reject cleanly — never crash, never over-read, never deliver
// nonsense upward.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "flip/packet.hpp"
#include "group/message.hpp"
#include "group/sim_harness.hpp"

namespace amoeba {
namespace {

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.below(300);
    Buffer bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    // Each decoder either rejects or produces a self-consistent value;
    // the assertions are "no crash / no UB", checked by running at all
    // (and under sanitizers when enabled).
    (void)flip::decode_packet(BufView::copy_of(bytes));
    (void)group::decode_wire(BufView::copy_of(bytes));
    (void)group::decode_snapshot(bytes);
    (void)group::decode_vote(bytes);
    (void)group::decode_membership_change(bytes);
    (void)group::decode_recovered(bytes);
  }
}

TEST_P(DecoderFuzz, TruncationsOfValidPacketsRejectOrRoundTrip) {
  Rng rng(GetParam());
  group::WireMsg m;
  m.type = group::WireType::seq_data;
  m.seq = 1234;
  m.sender = 3;
  m.payload = make_pattern_buffer(200);
  const BufView valid = group::encode_wire(m);
  // Every prefix must be handled gracefully.
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    Buffer prefix(valid.begin(), valid.begin() + static_cast<long>(len));
    const auto decoded = group::decode_wire(std::move(prefix));
    if (len == valid.size()) {
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->seq, 1234u);
    } else {
      EXPECT_FALSE(decoded.has_value()) << "accepted a truncation at " << len;
    }
  }
  // Random single-byte corruptions of a FLIP packet: the CRC must catch
  // every one of them.
  flip::PacketHeader h;
  h.type = flip::PacketType::unidata;
  h.dst = flip::process_address(1);
  h.total_len = 64;
  const BufView pkt = flip::encode_packet(h, make_pattern_buffer(64));
  for (int i = 0; i < 200; ++i) {
    Buffer corrupted(pkt.begin(), pkt.end());
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_FALSE(flip::decode_packet(std::move(corrupted)).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Robustness, GroupSurvivesGarbageInjectedAtMembers) {
  // Blast random frames at every NIC while real traffic flows: the group
  // must neither crash nor corrupt the ordered stream.
  group::SimGroupHarness h(3, group::GroupConfig{});
  ASSERT_TRUE(h.form_group());

  Rng rng(99);
  // Periodic garbage injection straight into the wire.
  int injected = 0;
  std::function<void()> inject = [&h, &rng, &injected, &inject] {
    if (injected >= 200) return;
    ++injected;
    sim::Frame f;
    f.dst = sim::kBroadcastStation;
    f.wire_bytes = 100;
    Buffer junk(rng.below(150));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    f.payload = std::move(junk);
    h.world().node(0).nic().send(std::move(f));
    h.world().node(0).set_timer(Duration::micros(500), inject);
  };
  inject();

  int completed = 0;
  std::function<void(int)> pump = [&h, &completed, &pump](int k) {
    if (k >= 30) return;
    h.process(1).user_send(make_pattern_buffer(64), [&, k](Status s) {
      if (s == Status::ok) ++completed;
      pump(k + 1);
    });
  };
  pump(0);

  ASSERT_TRUE(h.run_until(
      [&] {
        if (completed < 30 || injected < 200) return false;
        for (std::size_t i = 0; i < 3; ++i) {
          std::size_t apps = 0;
          for (const auto& m : h.process(i).delivered()) {
            if (m.kind == group::MessageKind::app) ++apps;
          }
          if (apps < 30) return false;
        }
        return true;
      },
      Duration::seconds(120)));

  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& m : h.process(i).delivered()) {
      if (m.kind == group::MessageKind::app) {
        EXPECT_TRUE(check_pattern_buffer(m.data)) << "corrupt delivery!";
      }
    }
  }
}

TEST(Robustness, OversizeAndZeroSizedSends) {
  group::SimGroupHarness h(2, group::GroupConfig{});
  ASSERT_TRUE(h.form_group());

  std::optional<Status> huge;
  h.process(1).member().send_to_group(Buffer(10 * 1024 * 1024),
                                      [&](Status s) { huge = s; });
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(*huge, Status::overflow);

  std::optional<Status> empty;
  h.process(1).user_send(Buffer{}, [&](Status s) { empty = s; });
  ASSERT_TRUE(h.run_until([&] { return empty.has_value(); },
                          Duration::seconds(5)));
  EXPECT_EQ(*empty, Status::ok) << "0-byte messages are the paper's favourite";

  // The boundary: FLIP carries 64 KiB including the 60-byte group header.
  // The largest message is delivered everywhere under both methods; one
  // byte more is refused at once and leaves the sender running.
  constexpr std::size_t kMax = group::GroupMember::kMaxMessage;
  static_assert(kMax == 64 * 1024 - 60);
  for (const group::Method method : {group::Method::pb, group::Method::bb}) {
    group::GroupConfig cfg;
    cfg.method = method;
    group::SimGroupHarness b(3, cfg);
    ASSERT_TRUE(b.form_group());
    group::GroupMember& sender = b.process(1).member();

    std::optional<Status> over;
    sender.send_to_group(Buffer(kMax + 1), [&](Status s) { over = s; });
    ASSERT_TRUE(over.has_value());
    EXPECT_EQ(*over, Status::overflow);
    EXPECT_EQ(sender.state(), group::GroupMember::State::running);

    std::optional<Status> max;
    b.process(1).user_send(make_pattern_buffer(kMax),
                           [&](Status s) { max = s; });
    const auto delivered_everywhere = [&] {
      for (std::size_t p = 0; p < 3; ++p) {
        const auto& got = b.process(p).delivered();
        if (std::none_of(got.begin(), got.end(), [&](const auto& d) {
              return d.data.size() == kMax;
            })) {
          return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(b.run_until(
        [&] { return max.has_value() && delivered_everywhere(); },
        Duration::seconds(10)))
        << "method " << static_cast<int>(method);
    EXPECT_EQ(*max, Status::ok);
    EXPECT_EQ(sender.state(), group::GroupMember::State::running);
  }
}

TEST(Robustness, ApiMisuseReturnsErrorsNotUb) {
  group::SimGroupHarness h(2, group::GroupConfig{});
  // Before any group exists:
  std::optional<Status> s1;
  h.process(0).member().send_to_group(Buffer{1}, [&](Status s) { s1 = s; });
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*s1, Status::not_member);

  std::optional<Status> s2;
  h.process(0).member().leave_group([&](Status s) { s2 = s; });
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, Status::invalid_argument);

  bool reset_done = false;
  h.process(0).member().reset_group(1, [&](Status s, std::uint32_t) {
    EXPECT_EQ(s, Status::no_such_group);
    reset_done = true;
  });
  EXPECT_TRUE(reset_done);

  // create with a process (non-group) address:
  std::optional<Status> s3;
  h.process(0).member().create_group(flip::process_address(1),
                                     [&](Status s) { s3 = s; });
  ASSERT_TRUE(s3.has_value());
  EXPECT_EQ(*s3, Status::invalid_argument);

  // double create:
  ASSERT_TRUE(h.form_group());
  std::optional<Status> s4;
  h.process(0).member().create_group(flip::group_address(2),
                                     [&](Status s) { s4 = s; });
  ASSERT_TRUE(s4.has_value());
  EXPECT_EQ(*s4, Status::invalid_argument);
}

}  // namespace
}  // namespace amoeba
