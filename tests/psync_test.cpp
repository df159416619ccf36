// Psync baseline tests: causal FIFO, distributed total order, heartbeat
// progress, per-sender retransmission.
#include <gtest/gtest.h>

#include "baselines/psync.hpp"
#include "sim/world.hpp"
#include "transport/sim_runtime.hpp"

namespace amoeba::baselines {
namespace {

struct PsyncHarness {
  struct Proc {
    transport::SimExecutor exec;
    transport::SimDevice dev;
    flip::FlipStack flip;
    std::unique_ptr<PsyncMember> member;
    std::vector<PsyncMember::Delivery> delivered;
    explicit Proc(sim::Node& n) : exec(n), dev(n), flip(exec, dev) {}
  };

  sim::World world;
  std::vector<std::unique_ptr<Proc>> procs;

  explicit PsyncHarness(std::size_t n) : world(n) {
    std::vector<flip::Address> ring;
    for (std::size_t i = 0; i < n; ++i) {
      ring.push_back(flip::process_address(i + 1));
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto p = std::make_unique<Proc>(world.node(i));
      auto* raw = p.get();
      p->member = std::make_unique<PsyncMember>(
          p->flip, p->exec, ring[i], flip::group_address(0xA5), ring,
          static_cast<std::uint32_t>(i),
          [raw](const PsyncMember::Delivery& d) {
            raw->delivered.push_back(d);
          });
      procs.push_back(std::move(p));
    }
  }

  bool run_until(const std::function<bool()>& pred, Duration d) {
    const Time limit = world.now() + d;
    while (!pred()) {
      if (world.now() >= limit || world.engine().pending() == 0) {
        return pred();
      }
      world.engine().run_steps(1);
    }
    return true;
  }
};

TEST(Psync, TotalOrderAcrossConcurrentSenders) {
  PsyncHarness h(4);
  for (std::size_t p = 0; p < 4; ++p) {
    for (int k = 0; k < 5; ++k) {
      Buffer b(2);
      b[0] = static_cast<std::uint8_t>(p);
      b[1] = static_cast<std::uint8_t>(k);
      h.procs[p]->member->send(std::move(b));
    }
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        for (auto& p : h.procs) {
          if (p->delivered.size() < 20) return false;
        }
        return true;
      },
      Duration::seconds(30)));

  const auto& ref = h.procs[0]->delivered;
  for (std::size_t i = 1; i < 4; ++i) {
    const auto& got = h.procs[i]->delivered;
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(got[k].lamport, ref[k].lamport) << "position " << k;
      EXPECT_EQ(got[k].sender, ref[k].sender) << "position " << k;
      EXPECT_EQ(got[k].data, ref[k].data) << "position " << k;
    }
  }
  // Per-sender FIFO inside the total order.
  for (auto& p : h.procs) {
    std::map<std::uint32_t, int> last;
    for (const auto& d : p->delivered) {
      auto [it, fresh] = last.try_emplace(d.sender, -1);
      EXPECT_GT(static_cast<int>(d.data[1]), it->second);
      it->second = d.data[1];
    }
  }
}

TEST(Psync, LoneSenderNeedsEveryonesHeartbeat) {
  // The Section 2.2 argument in one number: with a single active sender,
  // total-order delivery waits for a message from EVERY member, i.e. the
  // heartbeat interval (5 ms) — far worse than the sequencer's 2.7 ms.
  PsyncHarness h(4);
  const Time start = h.world.now();
  h.procs[1]->member->send(make_pattern_buffer(10));
  ASSERT_TRUE(h.run_until(
      [&] { return !h.procs[0]->delivered.empty(); }, Duration::seconds(10)));
  const double ms = (h.world.now() - start).to_millis();
  EXPECT_GE(ms, 4.0) << "delivery must wait for peers' heartbeats";
  std::uint64_t hb = 0;
  for (auto& p : h.procs) hb += p->member->stats().heartbeats;
  EXPECT_GT(hb, 0u) << "idle members had to emit null traffic";
}

TEST(Psync, RecoversPerSenderLosses) {
  PsyncHarness h(3);
  h.world.segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.10});
  for (std::size_t p = 0; p < 3; ++p) {
    for (int k = 0; k < 15; ++k) {
      h.procs[p]->member->send(make_pattern_buffer(16));
    }
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        for (auto& p : h.procs) {
          if (p->delivered.size() < 45) return false;
        }
        return true;
      },
      Duration::seconds(120)));
  std::uint64_t nacks = 0;
  for (auto& p : h.procs) nacks += p->member->stats().nacks;
  EXPECT_GT(nacks, 0u);
  for (auto& p : h.procs) {
    EXPECT_EQ(p->delivered.size(), 45u);
    for (const auto& d : p->delivered) {
      EXPECT_TRUE(check_pattern_buffer(d.data));
    }
  }
}

}  // namespace
}  // namespace amoeba::baselines
