// Directed reorderings on the simulated testbed: a test holds back chosen
// inbound frames at one station and hands them up later, at the moment
// that exposes a protocol edge.
//
// BbStash: a BB payload is stashed until the sequencer's accept names it,
// and no stash entry may outlive its message. A payload that arrives after
// its accept fills the accept's slot (and, for a tentative entry, is
// acknowledged at once); a payload of a message already delivered is
// dropped; delivery erases the message's entry. Before this rule, such
// payloads stayed in the stash forever, and once it held 2 x history_size
// of them every later BB message waited for a NACK and a retransmission.
//
// PackedLimit: the sequencer piggybacks pending accepts on the first data
// frame of a flush. A resilience ack and a near-limit PB request handled in
// one receive drain must not make that frame exceed FLIP's message limit.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <optional>

#include "flip/packet.hpp"
#include "group/member.hpp"
#include "group/message.hpp"
#include "sim/world.hpp"
#include "transport/sim_runtime.hpp"

namespace amoeba::group {
namespace {

using transport::StationId;

/// Hands inbound frames up unchanged, except those `hold` matches: they
/// wait until release(), which hands them up in arrival order.
class HoldDevice final : public transport::Device {
 public:
  explicit HoldDevice(transport::Device& inner) : inner_(inner) {}

  std::function<bool(StationId, const BufView&)> hold;
  /// Runs after each frame that was handed up without being held.
  std::function<void(StationId, const BufView&)> after_pass;

  void release() {
    std::deque<std::pair<StationId, BufView>> held;
    held.swap(held_);
    for (auto& [src, frame] : held) rx_(src, std::move(frame));
  }
  std::size_t held() const { return held_.size(); }

  StationId station() const override { return inner_.station(); }
  std::size_t max_payload() const override { return inner_.max_payload(); }
  Duration tx_cost() const override { return inner_.tx_cost(); }
  void send_unicast(StationId dst, BufView payload,
                    std::size_t wire_bytes) override {
    inner_.send_unicast(dst, std::move(payload), wire_bytes);
  }
  void send_multicast(std::uint64_t key, BufView payload,
                      std::size_t wire_bytes) override {
    inner_.send_multicast(key, std::move(payload), wire_bytes);
  }
  void send_broadcast(BufView payload, std::size_t wire_bytes) override {
    inner_.send_broadcast(std::move(payload), wire_bytes);
  }
  void subscribe(std::uint64_t key) override { inner_.subscribe(key); }
  void unsubscribe(std::uint64_t key) override { inner_.unsubscribe(key); }
  void set_promiscuous(bool on) override { inner_.set_promiscuous(on); }
  void set_receive_handler(
      std::function<void(StationId, BufView)> fn) override {
    rx_ = std::move(fn);
    inner_.set_receive_handler([this](StationId src, BufView frame) {
      if (hold && hold(src, frame)) {
        held_.emplace_back(src, std::move(frame));
        return;
      }
      rx_(src, frame);
      if (after_pass) after_pass(src, frame);
    });
  }

 private:
  transport::Device& inner_;
  std::function<void(StationId, BufView)> rx_;
  std::deque<std::pair<StationId, BufView>> held_;
};

/// The group message a frame carries, if it carries a whole one.
std::optional<WireMsg> frame_msg(const BufView& frame) {
  auto pkt = flip::decode_packet(frame);
  if (!pkt.has_value() || pkt->header.frag_offset != 0 ||
      pkt->fragment.size() != pkt->header.total_len) {
    return std::nullopt;
  }
  return decode_wire(std::move(pkt->fragment));
}

/// True for the last fragment of a FLIP message of at least `min_len`.
bool last_fragment_of_large(const BufView& frame, std::size_t min_len) {
  const auto pkt = flip::decode_packet(frame);
  return pkt.has_value() && pkt->header.total_len >= min_len &&
         pkt->header.frag_offset + pkt->fragment.size() ==
             pkt->header.total_len;
}

struct Proc {
  Proc(sim::Node& node, flip::Address addr, const GroupConfig& cfg)
      : exec(node),
        dev(node),
        device(dev),
        flip(exec, device),
        member(flip, exec, addr, cfg,
               GroupMember::Callbacks{
                   .on_message =
                       [this](const GroupMessage& m) {
                         if (m.kind == MessageKind::app) {
                           delivered.push_back(m);
                         }
                       },
                   .on_view = nullptr,
                   .on_fault = nullptr,
               }) {}

  transport::SimExecutor exec;
  transport::SimDevice dev;
  HoldDevice device;
  flip::FlipStack flip;
  std::vector<GroupMessage> delivered;
  GroupMember member;  // last: its callbacks use everything above
};

/// Three members on the 1996 testbed; process 0 creates the group and
/// sequences it, 1 and 2 join in that order (so member ids ascend).
class Group {
 public:
  explicit Group(const GroupConfig& cfg) : world_(3) {
    for (std::size_t i = 0; i < 3; ++i) {
      procs_[i] = std::make_unique<Proc>(world_.node(i),
                                         flip::process_address(i + 1), cfg);
    }
    const flip::Address gaddr = flip::group_address(0x6702);
    std::size_t formed = 0;
    procs_[0]->member.create_group(gaddr, [&](Status) { ++formed; });
    run_until([&] { return formed == 1; });
    procs_[1]->member.join_group(gaddr, [&](Status) { ++formed; });
    run_until([&] { return formed == 2; });
    procs_[2]->member.join_group(gaddr, [&](Status) { ++formed; });
    formed_ = run_until([&] { return formed == 3; });
  }

  bool formed() const { return formed_; }
  Proc& proc(std::size_t i) { return *procs_[i]; }
  StationId station(std::size_t i) { return procs_[i]->dev.station(); }

  bool run_until(const std::function<bool()>& pred,
                 Duration deadline = Duration::seconds(10)) {
    const Time limit = world_.now() + deadline;
    while (!pred()) {
      if (world_.now() >= limit || world_.engine().pending() == 0) {
        return pred();
      }
      world_.engine().run_steps(1);
    }
    return true;
  }

  /// Send `data` from process i; the returned status fills on completion.
  std::shared_ptr<std::optional<Status>> send(std::size_t i, Buffer data) {
    auto done = std::make_shared<std::optional<Status>>();
    procs_[i]->member.send_to_group(std::move(data),
                                    [done](Status s) { *done = s; });
    return done;
  }

 private:
  sim::World world_;
  std::array<std::unique_ptr<Proc>, 3> procs_;
  bool formed_{false};
};

GroupConfig bb_cfg(std::uint32_t resilience) {
  GroupConfig cfg;
  cfg.method = Method::bb;
  cfg.resilience = resilience;
  return cfg;
}

bool is_bb_data(const BufView& frame) {
  const auto m = frame_msg(frame);
  return m.has_value() && m->type == WireType::data_bb;
}

TEST(BbStash, PayloadAfterItsAcceptFillsTheSlotWithoutANack) {
  // r = 0: a plain accept. r = 2: a tentative one, and member 2 is one of
  // the two ackers, so it must acknowledge once the payload is in.
  for (const std::uint32_t r : {0U, 2U}) {
    SCOPED_TRACE(r);
    Group g(bb_cfg(r));
    ASSERT_TRUE(g.formed());
    HoldDevice& dev = g.proc(2).device;
    // Member 2's copy of the data frame waits until the sequencer's next
    // frame (the accept) has been handed up.
    dev.hold = [](StationId, const BufView& f) { return is_bb_data(f); };
    dev.after_pass = [&](StationId src, const BufView&) {
      if (src == g.station(0) && dev.held() > 0) {
        dev.hold = nullptr;
        dev.release();
      }
    };
    const auto done = g.send(1, make_pattern_buffer(200));
    ASSERT_TRUE(g.run_until([&] {
      return done->has_value() && g.proc(2).delivered.size() == 1;
    }));
    EXPECT_EQ(**done, Status::ok);
    EXPECT_TRUE(check_pattern_buffer(g.proc(2).delivered[0].data));
    const GroupStats& st = g.proc(2).member.stats();
    EXPECT_EQ(st.nacks_sent, 0U) << "the late payload went to the stash";
    if (r > 0) {
      EXPECT_GE(st.resil_acks_sent, 1U);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(g.proc(i).member.bb_stash_size(), 0U) << "member " << i;
    }
  }
}

TEST(BbStash, StalePayloadsNeverFillTheStash) {
  // A small history makes the stash cap (2 x history_size) 16 entries.
  GroupConfig cfg = bb_cfg(0);
  cfg.history_size = 8;
  Group g(cfg);
  ASSERT_TRUE(g.formed());
  HoldDevice& dev = g.proc(2).device;
  // Member 2's copies of 20 BB payloads are held until long after member 2
  // got each message by NACK and retransmission, then all arrive at once.
  constexpr std::size_t kStale = 20;
  dev.hold = [](StationId, const BufView& f) { return is_bb_data(f); };
  for (std::size_t k = 0; k < kStale; ++k) {
    const auto done = g.send(1, make_pattern_buffer(100));
    ASSERT_TRUE(g.run_until([&] {
      return done->has_value() && g.proc(2).delivered.size() == k + 1;
    }));
  }
  ASSERT_EQ(dev.held(), kStale);
  dev.hold = nullptr;
  dev.release();
  g.run_until([] { return false; }, Duration::millis(50));
  EXPECT_EQ(g.proc(2).member.bb_stash_size(), 0U);

  // A fresh BB message is delivered from the stash: no NACK.
  const std::uint64_t nacks = g.proc(2).member.stats().nacks_sent;
  const auto done = g.send(1, make_pattern_buffer(100, 0x3C));
  ASSERT_TRUE(g.run_until([&] {
    return done->has_value() && g.proc(2).delivered.size() == kStale + 1;
  }));
  EXPECT_EQ(**done, Status::ok);
  EXPECT_TRUE(check_pattern_buffer(g.proc(2).delivered.back().data, 0x3C));
  EXPECT_EQ(g.proc(2).member.stats().nacks_sent, nacks);
  EXPECT_EQ(g.proc(2).member.bb_stash_size(), 0U);
}

TEST(PackedLimit, AcceptsDoNotPushANearLimitMessagePastFlip) {
  // r = 1, PB. Member 0 (the sequencer's own member) sends a small message;
  // member 1, the lowest id besides it, acknowledges it. The sequencer's
  // station holds that ack back until the last fragment of member 2's
  // largest possible message arrives, so both are handled in one drain:
  // the ack's accept is pending when the 65,476-byte entry is flushed.
  GroupConfig cfg;
  cfg.method = Method::pb;
  cfg.resilience = 1;
  Group g(cfg);
  ASSERT_TRUE(g.formed());
  HoldDevice& dev = g.proc(0).device;
  bool met = false;
  dev.hold = [&](StationId src, const BufView& f) {
    if (met) return false;
    if (src == g.station(1)) {
      const auto m = frame_msg(f);
      return m.has_value() && m->type == WireType::resil_ack;
    }
    if (src == g.station(2) && dev.held() > 0 &&
        last_fragment_of_large(f, GroupMember::kMaxMessage)) {
      met = true;
      dev.release();
    }
    return false;
  };
  const auto small = g.send(0, make_pattern_buffer(64));
  const auto large = g.send(2, make_pattern_buffer(GroupMember::kMaxMessage));
  ASSERT_TRUE(g.run_until([&] {
    return small->has_value() && large->has_value() &&
           g.proc(0).delivered.size() == 2 &&
           g.proc(1).delivered.size() == 2 &&
           g.proc(2).delivered.size() == 2;
  }));
  EXPECT_TRUE(met) << "the ack and the request were not handled together";
  EXPECT_EQ(**small, Status::ok);
  EXPECT_EQ(**large, Status::ok);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& d = g.proc(i).delivered;
    EXPECT_EQ(d[0].data.size(), 64U) << "member " << i;
    EXPECT_EQ(d[1].data.size(), GroupMember::kMaxMessage) << "member " << i;
    EXPECT_TRUE(check_pattern_buffer(d[1].data)) << "member " << i;
  }
}

}  // namespace
}  // namespace amoeba::group
