// Sharded Node tests: multi-group hosting, keyspace routing, and genuine
// cross-shard atomic multicast on the simulated testbed.
//
// The deterministic counterparts of the seed-swept sharded property test:
// formation, single-shard traffic through the unmodified protocol,
// exactly-once cross-shard delivery, genuineness (non-addressed shards do
// zero work), the single-bit fast path, recovery of a cross-shard workload
// after a shard sequencer's station crashes, the origin's retry budget, and
// its message-size limit.
//
// NodeHosting checks the two modelling facts SimGroupHarness rests on: a
// member hosted by a one-shard Node runs exactly the protocol a bare
// GroupMember runs, and every shard's delivery pays the user-level receive
// cost. It also checks what hosting adds: only a Node-hosted sequencer
// serves cross-shard frames.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <tuple>

#include "check/trace.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig quick_cfg(std::uint32_t resilience = 0) {
  GroupConfig cfg;
  cfg.resilience = resilience;
  cfg.send_retry = Duration::millis(30);
  cfg.nack_retry = Duration::millis(10);
  cfg.join_retry = Duration::millis(50);
  cfg.status_interval = Duration::millis(100);
  cfg.invite_interval = Duration::millis(50);
  return cfg;
}

/// P processes hosting a member of each of S shards (the harness seed 1).
SimGroupHarness sharded(std::size_t procs, std::uint32_t shards,
                        const GroupConfig& cfg = quick_cfg()) {
  return SimGroupHarness(procs, cfg, sim::CostModel::mc68030_ether10(), 1,
                         shards);
}

Buffer tagged(std::uint8_t a, std::uint8_t b) {
  Buffer buf(8);
  buf[0] = a;
  buf[1] = b;
  return buf;
}

TEST(Sharded, FormsAndDeliversSingleShardTraffic) {
  SimGroupHarness h = sharded(3, 2);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  std::vector<std::uint64_t> fps;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      Buffer b = tagged(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(s));
      fps.push_back(check::fingerprint(Buffer(b)));
      h.process(i).node().send_to_shard(s, std::move(b), [&](Status st) {
        EXPECT_EQ(st, Status::ok);
        ++done;
      });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 6; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));  // quiesce

  // Every process delivered every app payload exactly once, in the shard
  // it was addressed to, all with xid 0 (no cross-shard machinery).
  for (std::size_t i = 0; i < 3; ++i) {
    std::map<std::uint64_t, int> seen;
    for (const auto& d : h.process(i).delivered()) {
      EXPECT_EQ(d.xid, 0u);
      ++seen[check::fingerprint(d.data)];
    }
    for (const std::uint64_t fp : fps) EXPECT_EQ(seen[fp], 1) << "n" << i;
    EXPECT_EQ(h.process(i).node().stats().xsends.load(), 0u);
  }
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Sharded, RouteIsDeterministicAndCoversShards) {
  SimGroupHarness h = sharded(2, 4);
  std::map<std::uint32_t, int> hits;
  for (int k = 0; k < 64; ++k) {
    Buffer key(4);
    key[0] = static_cast<std::uint8_t>(k);
    const std::uint32_t s0 = h.process(0).node().route(key);
    const std::uint32_t s1 = h.process(1).node().route(key);
    EXPECT_EQ(s0, s1);  // same shard set => same routing everywhere
    ASSERT_LT(s0, 4u);
    ++hits[s0];
  }
  EXPECT_EQ(hits.size(), 4u);  // 64 keys spread over all four shards
}

TEST(Sharded, CrossShardDeliversExactlyOncePerShard) {
  SimGroupHarness h = sharded(3, 2);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  constexpr int kPerNode = 5;
  for (std::size_t i = 0; i < 3; ++i) {
    for (int k = 0; k < kPerNode; ++k) {
      h.process(i).node().send_multi(
          0b11u,
          tagged(static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(k)),
          [&](Status st) {
            EXPECT_EQ(st, Status::ok);
            ++done;
          });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 15; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(500));

  // Exactly one delivery per (process, shard, xid), in both shards.
  for (std::size_t i = 0; i < 3; ++i) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
    for (const auto& d : h.process(i).delivered()) {
      if (d.xid != 0) ++seen[{d.shard, d.xid}];  // skip membership entries
    }
    EXPECT_EQ(seen.size(), 2u * 15u) << "n" << i;
    for (const auto& [key, n] : seen) EXPECT_EQ(n, 1);
    EXPECT_EQ(h.process(i).node().stats().xsends.load(),
              static_cast<std::uint64_t>(kPerNode));
    EXPECT_EQ(h.process(i).node().stats().xsends_completed.load(),
              static_cast<std::uint64_t>(kPerNode));
    EXPECT_EQ(h.process(i).node().stats().xdup_dropped.load(), 0u);
  }
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(200);
}

TEST(Sharded, SingleBitMaskTakesThePlainPath) {
  SimGroupHarness h = sharded(2, 2);
  ASSERT_TRUE(h.form_group());
  int done = 0;
  h.process(0).node().send_multi(0b10, tagged(1, 1), [&](Status st) {
    EXPECT_EQ(st, Status::ok);
    ++done;
  });
  ASSERT_TRUE(h.run_until([&] { return done == 1; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));
  // Degraded to send_to_shard: no cross-shard round, delivery has xid 0.
  EXPECT_EQ(h.process(0).node().stats().xsends.load(), 0u);
  bool delivered = false;
  for (const auto& d : h.process(1).delivered()) {
    if (d.shard == 1 &&
        check::fingerprint(d.data) == check::fingerprint(tagged(1, 1))) {
      delivered = true;
      EXPECT_EQ(d.xid, 0u);
    }
  }
  EXPECT_TRUE(delivered);
}

TEST(Sharded, NonAddressedShardsDoZeroWork) {
  SimGroupHarness h = sharded(2, 4);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (int k = 0; k < 4; ++k) {
    h.process(0).node().send_multi(0b0011, tagged(0, static_cast<std::uint8_t>(k)),
                                   [&](Status st) {
                                     EXPECT_EQ(st, Status::ok);
                                     ++done;
                                   });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 4; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));

  // Shards 2 and 3 saw none of it: no cross-shard protocol state, no
  // deliveries — the genuineness property, observed from the inside.
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::uint32_t s = 2; s < 4; ++s) {
      const GroupStats& st = h.process(i).member(s).stats();
      EXPECT_EQ(st.xshard_proposals.load(), 0u) << "n" << i << ".s" << s;
      EXPECT_EQ(st.xshard_commits.load(), 0u) << "n" << i << ".s" << s;
      EXPECT_EQ(st.xshard_injected.load(), 0u) << "n" << i << ".s" << s;
    }
    for (const auto& d : h.process(i).delivered()) {
      if (d.xid != 0) {
        EXPECT_LT(d.shard, 2u);
      }
    }
  }
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Sharded, PerShardStatsAndTracesStayScoped) {
  // Two shards share one FLIP stack, executor, and fault device per
  // process; the per-shard GroupStats and trace streams must not bleed
  // into each other. All app traffic goes to shard 0 only.
  SimGroupHarness h = sharded(2, 2);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (int k = 0; k < 4; ++k) {
      h.process(i).node().send_to_shard(
          0, tagged(static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(k)),
          [&](Status st) {
            EXPECT_EQ(st, Status::ok);
            ++done;
          });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 8; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));  // quiesce

  // Stats: shard 0 carried the load; shard 1 saw only its own formation.
  EXPECT_EQ(h.process(0).member(0).stats().sends_completed.load() +
                h.process(1).member(0).stats().sends_completed.load(),
            8u);
  for (std::size_t i = 0; i < 2; ++i) {
    const GroupStats& idle = h.process(i).member(1).stats();
    EXPECT_EQ(idle.sends_completed.load(), 0u) << "n" << i;
    EXPECT_EQ(idle.sends_pb.load() + idle.sends_bb.load(), 0u) << "n" << i;
  }
  // Per-shard delivery counts diverge: shard 1 delivered only membership.
  EXPECT_GT(h.process(0).member(0).stats().messages_delivered.load(),
            h.process(0).member(1).stats().messages_delivered.load());

  // Traces: every event in a shard's ring carries that shard's group tag,
  // so a shared collector can never conflate the two streams.
  h.traces().drain();
  bool saw_g0_app = false;
  for (const check::RingTrace& r : h.traces().rings()) {
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::uint32_t s = 0; s < 2; ++s) {
        if (r.label != h.label(i, s)) continue;
        for (const check::TraceEvent& e : r.events) {
          EXPECT_EQ(e.group, s) << r.label;
          if (s == 0 && e.kind == check::EventKind::deliver &&
              e.mkind == MessageKind::app) {
            saw_g0_app = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_g0_app);

  // The rendered forms carry the group tag too (tooling keys on it).
  const std::string json = h.traces().dump_json();
  EXPECT_NE(json.find("\"group\":1"), std::string::npos);
  const std::string text = h.traces().dump_text();
  EXPECT_NE(text.find("g1."), std::string::npos);

  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Sharded, MixedLocalAndCrossTrafficStaysConsistent) {
  SimGroupHarness h = sharded(3, 2, quick_cfg(1));
  ASSERT_TRUE(h.form_group());

  int done = 0;
  int want = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (int k = 0; k < 6; ++k) {
      Buffer b = tagged(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(k));
      auto cb = [&](Status st) {
        EXPECT_EQ(st, Status::ok);
        ++done;
      };
      ++want;
      if (k % 3 == 0) {
        h.process(i).node().send_multi(0b11u, std::move(b), cb);
      } else {
        h.process(i).node().send_to_shard(static_cast<std::uint32_t>(k) % 2,
                                          std::move(b), cb);
      }
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == want; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(500));
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(300);
}

TEST(Sharded, CrossShardSurvivesSequencerStationCrash) {
  // Node 0 created (and sequences) shard 0; shard 1's sequencer is node 1.
  // Crashing station 0 kills shard 0's sequencer and a plain member of
  // shard 1. Survivors reset shard 0 and the cross-shard workload resumes
  // with the oracle still clean.
  SimGroupHarness h = sharded(3, 2, quick_cfg(1));
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    h.process(i).node().send_multi(0b11u,
                                   tagged(static_cast<std::uint8_t>(i), 0xA),
                                   [&](Status) { ++done; });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 3; }, Duration::seconds(60)));

  h.process(0).faults().crash();

  // Probe shard 0 from node 1 until the dead sequencer is noticed.
  bool probing = false;
  auto probe = [&] {
    if (probing || h.process(1).fault(0).has_value()) return;
    probing = true;
    h.process(1).node().send_to_shard(0, tagged(9, 9),
                                      [&](Status) { probing = false; });
  };
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!h.process(1).fault(0).has_value()) probe();
        return h.process(1).fault(0).has_value();
      },
      Duration::seconds(60)));

  bool reset_done = false;
  Status reset_status = Status::ok;
  h.process(1).member(0).reset_group(2, [&](Status s, std::uint32_t) {
    reset_status = s;
    reset_done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return reset_done; }, Duration::seconds(60)));
  ASSERT_EQ(reset_status, Status::ok);
  ASSERT_TRUE(h.run_until(
      [&] {
        for (std::size_t i = 1; i < 3; ++i) {
          for (std::uint32_t s = 0; s < 2; ++s) {
            if (h.process(i).member(s).state() !=
                GroupMember::State::running) {
              return false;
            }
          }
        }
        return true;
      },
      Duration::seconds(30)));

  // Post-recovery cross-shard phase from the survivors.
  int done_b = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    for (int k = 0; k < 3; ++k) {
      h.process(i).node().send_multi(
          0b11u, tagged(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(0xB0 + k)),
          [&](Status st) {
            EXPECT_EQ(st, Status::ok);
            ++done_b;
          });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done_b == 6; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(800));

  check::OracleOptions opts;
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      if (h.process(i).member(s).state() ==
          GroupMember::State::running) {
        opts.durable_rings.push_back(h.label(i, s));
      }
    }
  }
  const auto v = h.check_conformance(opts);
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(400);

  // No survivor saw a duplicate xid despite retries across the reset.
  for (std::size_t i = 1; i < 3; ++i) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
    for (const auto& d : h.process(i).delivered()) {
      if (d.xid != 0) ++seen[{d.shard, d.xid}];
    }
    for (const auto& [key, n] : seen) EXPECT_EQ(n, 1) << "n" << i;
  }
}

TEST(Sharded, CrossShardRoundTimesOutAfterItsRetryBudget) {
  // The origin retries every kXShardRetry, within the budget the shards'
  // GroupConfig gives; the sequencers derive their expiry from the same
  // pair.
  GroupConfig cfg = quick_cfg();
  cfg.xshard_retries = 2;
  SimGroupHarness h = sharded(3, 2, cfg);
  ASSERT_TRUE(h.form_group());

  // Station 1 created (and sequences) shard 1; cut it off, so shard 1
  // never proposes and the round spends its whole budget.
  h.process(1).faults().crash();
  const Time start = h.engine().now();
  Time end{};
  Status status = Status::ok;
  bool done = false;
  h.process(0).node().send_multi(0b11u, tagged(0, 1), [&](Status st) {
    status = st;
    end = h.engine().now();
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));
  EXPECT_EQ(status, Status::timeout);
  // Two retries, then the third tick finds the budget spent.
  EXPECT_GE(end - start, kXShardRetry * 3);
  EXPECT_LT(end - start, kXShardRetry * 4);
}

// Every sequencer regime not created by CreateGroup starts with an empty
// cross-shard pending table, so it holds releases for the quarantine.
TEST(Sharded, HandOffToTheLastMemberQuarantines) {
  // A hand-off to the one remaining member leaves a one-member view at
  // incarnation 0, which looks like a fresh group but is not one.
  SimGroupHarness h(2, quick_cfg());
  ASSERT_TRUE(h.form_group());
  GroupMember& successor = h.process(1).member();
  ASSERT_EQ(successor.stats().xshard_quarantines.load(), 0u);

  Status left = Status::failure;
  h.process(0).member().leave_group([&](Status s) { left = s; });
  ASSERT_TRUE(h.run_until([&] { return successor.i_am_sequencer(); },
                          Duration::seconds(5)));
  h.run_until([] { return false; }, Duration::millis(50));
  EXPECT_EQ(left, Status::ok);
  EXPECT_EQ(successor.info().members.size(), 1u);
  EXPECT_EQ(successor.info().incarnation, 0u);
  EXPECT_EQ(successor.stats().xshard_quarantines.load(), 1u);
}

TEST(Sharded, SelfCoordinatedResetQuarantines) {
  // The sequencer rebuilds the group itself after a member crash: the
  // reset ends its regime like anyone else's, and the new one quarantines.
  SimGroupHarness h(3, quick_cfg());
  ASSERT_TRUE(h.form_group());
  GroupMember& seq = h.process(0).member();
  const std::uint64_t before = seq.stats().xshard_quarantines.load();
  h.process(2).faults().crash();

  bool done = false;
  Status status = Status::failure;
  std::uint32_t size = 0;
  seq.reset_group(2, [&](Status s, std::uint32_t n) {
    status = s;
    size = n;
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(60)));
  ASSERT_EQ(status, Status::ok);
  EXPECT_EQ(size, 2u);
  EXPECT_TRUE(seq.i_am_sequencer());
  EXPECT_EQ(seq.stats().xshard_quarantines.load(), before + 1);
}

TEST(Sharded, OversizeCrossShardSendRejectedImmediately) {
  // A cross-shard payload travels inside the 24-byte commit envelope of a
  // group message, within FLIP's 64 KiB. The largest payload reaches both
  // shards; one byte more is refused at once, before any round starts.
  constexpr std::size_t kMax = Node::kMaxMessage;
  static_assert(kMax == 64 * 1024 - 60 - 24);
  SimGroupHarness h = sharded(3, 2);
  ASSERT_TRUE(h.form_group());
  Node& origin = h.process(0).node();

  std::optional<Status> over;
  origin.send_multi(0b11u, Buffer(kMax + 1), [&](Status s) { over = s; });
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(*over, Status::overflow);
  EXPECT_EQ(origin.stats().xsends.load(), 0u);

  std::optional<Status> max;
  origin.send_multi(0b11u, make_pattern_buffer(kMax),
                    [&](Status s) { max = s; });
  ASSERT_TRUE(h.run_until([&] { return max.has_value(); },
                          Duration::seconds(10)));
  EXPECT_EQ(*max, Status::ok);
  h.run_until([] { return false; }, Duration::millis(300));  // quiesce
  for (std::size_t i = 0; i < 3; ++i) {
    int got = 0;
    for (const auto& d : h.process(i).delivered()) {
      if (d.xid != 0 && d.data.size() == kMax) ++got;
    }
    EXPECT_EQ(got, 2) << "n" << i << ": once per addressed shard";
    for (std::uint32_t s = 0; s < 2; ++s) {
      EXPECT_EQ(h.process(i).member(s).state(), GroupMember::State::running);
    }
  }
}

// ---------------------------------------------------------------------------
// NodeHosting. The reference wiring is a bare GroupMember on the station's
// FLIP stack, with the user-level receive model SimProcess applies.
// ---------------------------------------------------------------------------

struct BareProcess {
  BareProcess(sim::Node& n, flip::Address addr, const GroupConfig& cfg,
              std::uint64_t fault_seed)
      : node(n), exec(n), dev(n), faults_(dev, exec, fault_seed),
        flip(exec, faults_),
        member_(flip, exec, addr, cfg,
                GroupMember::Callbacks{
                    .on_message =
                        [this](const GroupMessage& m) {
                          const auto& c = exec.costs();
                          Duration cost = c.user_deliver +
                                          c.copy_time(m.data.size());
                          if (node.cpu_free() <= exec.now()) {
                            cost += c.ctx_switch;
                          }
                          exec.post(cost,
                                    [this, m] { delivered.push_back(m); });
                        },
                    .on_view = nullptr,
                    .on_fault = [this](Status s) { fault_ = s; },
                }) {
    member_.set_trace_ring(&ring);
  }

  GroupMember& member() { return member_; }
  transport::FaultDevice& faults() { return faults_; }
  std::optional<Status> fault() const { return fault_; }
  void user_send(Buffer data, GroupMember::StatusCb done) {
    exec.post(exec.costs().user_send,
              [this, data = std::move(data), done = std::move(done)]() mutable {
                member_.send_to_group(std::move(data), std::move(done));
              });
  }

  sim::Node& node;
  check::TraceRing ring;
  transport::SimExecutor exec;
  transport::SimDevice dev;
  transport::FaultDevice faults_;
  flip::FlipStack flip;
  std::vector<GroupMessage> delivered;
  std::optional<Status> fault_;
  GroupMember member_;  // last: its callbacks use everything above
};

class BareHarness {
 public:
  BareHarness(std::size_t n, const GroupConfig& cfg, std::uint64_t seed)
      : world_(n, sim::CostModel::mc68030_ether10(), seed) {
    for (std::size_t i = 0; i < n; ++i) {
      procs_.push_back(std::make_unique<BareProcess>(
          world_.node(i), flip::process_address(i + 1), cfg,
          seed ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
      collector_.attach('m' + std::to_string(i), &procs_.back()->ring);
    }
  }

  bool form_group() {
    const flip::Address gaddr = flip::group_address(0x6702);
    std::size_t formed = 0;
    procs_[0]->member().create_group(gaddr, [&](Status) { ++formed; });
    std::function<void(std::size_t)> join_next = [&](std::size_t i) {
      if (i >= procs_.size()) return;
      procs_[i]->member().join_group(gaddr, [&, i](Status) {
        ++formed;
        join_next(i + 1);
      });
    };
    join_next(1);
    return run_until([&] { return formed == procs_.size(); },
                     Duration::seconds(30));
  }

  bool run_until(const std::function<bool()>& pred, Duration deadline) {
    const Time limit = engine().now() + deadline;
    while (!pred()) {
      if (engine().now() >= limit || engine().pending() == 0) return pred();
      engine().run_steps(1);
      collector_.drain();
    }
    return true;
  }

  sim::Engine& engine() { return world_.engine(); }
  BareProcess& process(std::size_t i) { return *procs_.at(i); }
  check::TraceCollector& traces() { return collector_; }

 private:
  sim::World world_;
  std::vector<std::unique_ptr<BareProcess>> procs_;
  check::TraceCollector collector_;
};

/// Noise, a sequencer crash, ResetGroup by member 1, and a second send
/// phase from the survivors — on either harness.
template <class Harness>
void run_reset_workload(Harness& h) {
  constexpr std::size_t kMembers = 4;
  transport::NemesisEvent noisy;
  noisy.plan.drop = 0.05;
  noisy.plan.duplicate = 0.02;
  noisy.plan.corrupt = 0.02;
  noisy.plan.delay = 0.03;
  transport::NemesisEvent calm;
  calm.at = Duration::millis(200);
  for (std::size_t i = 0; i < kMembers; ++i) {
    h.process(i).faults().set_schedule({noisy, calm});
    h.process(i).faults().start_nemesis();
  }
  h.engine().schedule_at(h.engine().now() + Duration::millis(80),
                         [&h] { h.process(0).faults().crash(); });

  std::array<int, kMembers> done{};
  std::function<void(std::size_t, int, std::uint8_t)> send =
      [&](std::size_t i, int k, std::uint8_t phase) {
        if (k >= 2) return;
        Buffer b(8);
        b[0] = static_cast<std::uint8_t>(i);
        b[1] = static_cast<std::uint8_t>(k);
        b[2] = phase;
        h.process(i).user_send(std::move(b), [&, i, k, phase](Status) {
          ++done[i];
          send(i, k + 1, phase);
        });
      };
  const auto all_done = [&](std::size_t first, int n) {
    for (std::size_t i = first; i < kMembers; ++i) {
      if (done[i] < n) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < kMembers; ++i) send(i, 0, 0xA);
  ASSERT_TRUE(h.run_until([&] { return all_done(0, 2); },
                          Duration::seconds(60)));

  bool probing = false;
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!h.process(1).fault().has_value() && !probing) {
          probing = true;
          h.process(1).user_send(Buffer(8), [&](Status) { probing = false; });
        }
        return h.process(1).fault().has_value();
      },
      Duration::seconds(60)));
  bool reset_done = false;
  Status reset_status = Status::failure;
  h.process(1).member().reset_group(2, [&](Status s, std::uint32_t) {
    reset_status = s;
    reset_done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return reset_done; }, Duration::seconds(60)));
  ASSERT_EQ(reset_status, Status::ok);

  for (std::size_t i = 1; i < kMembers; ++i) send(i, 0, 0xB);
  ASSERT_TRUE(h.run_until([&] { return all_done(1, 4); },
                          Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(800));
}

template <class List>
auto digest(const List& delivered) {
  std::vector<std::tuple<SeqNum, MemberId, MessageKind, std::uint32_t,
                         std::uint64_t>>
      out;
  for (const GroupMessage& m : delivered) {
    out.emplace_back(m.seq, m.sender, m.kind, m.sender_msg_id,
                     check::fingerprint(m.data));
  }
  return out;
}

TEST(NodeHosting, OneShardRunsTheBareMemberProtocol) {
  for (const Method method : {Method::pb, Method::bb}) {
    for (const std::uint32_t r : {0u, 1u}) {
      SCOPED_TRACE(std::string(method == Method::pb ? "pb" : "bb") + " r=" +
                   std::to_string(r));
      GroupConfig cfg = quick_cfg(r);
      cfg.method = method;
      SimGroupHarness h(4, cfg, sim::CostModel::mc68030_ether10(), 77);
      BareHarness ref(4, cfg, 77);
      ASSERT_TRUE(h.form_group());
      ASSERT_TRUE(ref.form_group());
      run_reset_workload(h);
      ASSERT_FALSE(HasFatalFailure());
      run_reset_workload(ref);
      ASSERT_FALSE(HasFatalFailure());

      EXPECT_EQ(h.engine().now(), ref.engine().now());
      EXPECT_EQ(h.traces().dump_json(), ref.traces().dump_json());
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_FALSE(ref.process(i).delivered.empty());
        EXPECT_EQ(digest(h.process(i).delivered()),
                  digest(ref.process(i).delivered))
            << "m" << i;
      }
    }
  }
}

/// Hands the sequencer (process 0) one cross-shard round's frames for shard
/// 0, xshard_send and then xshard_commit, from an origin endpoint on
/// `origin_stack`. Returns how many xshard_propose replies came back.
template <class Harness>
int feed_xshard_round(Harness& h, flip::FlipStack& origin_stack) {
  const flip::Address origin = flip::process_address(0xF0);
  int proposes = 0;
  origin_stack.register_endpoint(
      origin, [&](flip::Address, flip::Address, BufView bytes) {
        const auto m = decode_wire(std::move(bytes));
        if (m.has_value() && m->type == WireType::xshard_propose) ++proposes;
      });
  GroupMember& seq = h.process(0).member();
  WireMsg w;
  w.type = WireType::xshard_send;
  w.incarnation = seq.info().incarnation;
  w.sender = kInvalidMember;
  w.addr = origin;
  const std::uint64_t xid = (std::uint64_t{9} << 32) | 1;
  origin_stack.send(seq.address(), origin,
                    encode_xshard_send_wire(
                        w, XShardSend{.xid = xid,
                                      .mask = 0b1u,
                                      .origin = 9,
                                      .data = tagged(9, 1)}));
  h.run_until([] { return false; }, Duration::millis(200));
  w.type = WireType::xshard_commit;
  origin_stack.send(seq.address(), origin,
                    encode_xshard_commit_wire(
                        w, XShardCommit{.xid = xid,
                                        .mask = 0b1u,
                                        .origin = 9,
                                        .final_ts = 1,
                                        .data = tagged(9, 1)}));
  h.run_until([] { return false; }, Duration::seconds(1));
  origin_stack.unregister_endpoint(origin);
  return proposes;
}

TEST(NodeHosting, OnlyNodeHostedSequencersServeCrossShardFrames) {
  // A bare member's sequencer ignores the xshard wire types: no proposal,
  // nothing injected into its stream.
  BareHarness bare(3, quick_cfg(), 5);
  ASSERT_TRUE(bare.form_group());
  EXPECT_EQ(feed_xshard_round(bare, bare.process(1).flip), 0);
  const GroupStats& bs = bare.process(0).member().stats();
  EXPECT_EQ(bs.xshard_proposals.load(), 0u);
  EXPECT_EQ(bs.xshard_commits.load(), 0u);
  EXPECT_EQ(bs.xshard_injected.load(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const GroupMessage& m : bare.process(i).delivered) {
      EXPECT_NE(m.kind, MessageKind::xshard) << "m" << i;
    }
  }

  // Control: a one-shard Node hosting the same group proposes, and the
  // commit enters every member's stream.
  SimGroupHarness hosted(3, quick_cfg(), sim::CostModel::mc68030_ether10(), 5);
  ASSERT_TRUE(hosted.form_group());
  EXPECT_GE(feed_xshard_round(hosted, hosted.process(1).flip()), 1);
  const GroupStats& hs = hosted.process(0).member().stats();
  EXPECT_EQ(hs.xshard_proposals.load(), 1u);
  EXPECT_EQ(hs.xshard_commits.load(), 1u);
  EXPECT_EQ(hs.xshard_injected.load(), 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    int xshard = 0;
    for (const auto& d : hosted.process(i).delivered()) {
      if (d.kind == MessageKind::xshard) ++xshard;
    }
    EXPECT_EQ(xshard, 1) << "n" << i;
  }
}

TEST(NodeHosting, EveryShardPaysTheUserReceiveCost) {
  SimGroupHarness h = sharded(3, 2);
  // When each user-level delivery lands, keyed by (process, shard, seq).
  std::map<std::tuple<std::size_t, std::uint32_t, SeqNum>, Time> landed;
  for (std::size_t i = 0; i < 3; ++i) {
    h.process(i).set_on_deliver([&, i](const SimProcess::Delivery& d) {
      landed[{i, d.shard, d.seq}] = h.engine().now();
    });
  }
  ASSERT_TRUE(h.form_group());
  int done = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto b = static_cast<std::uint8_t>(i);
    h.process(i).node().send_to_shard(0, tagged(b, 0), [&](Status) { ++done; });
    h.process(i).node().send_to_shard(1, tagged(b, 1), [&](Status) { ++done; });
    h.process(i).node().send_multi(0b11u, tagged(b, 2),
                                   [&](Status) { ++done; });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 9; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));

  const Duration user_deliver =
      sim::CostModel::mc68030_ether10().user_deliver;
  std::array<int, 2> checked{};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      for (const check::RingTrace& r : h.traces().rings()) {
        if (r.label != h.label(i, s)) continue;
        for (const check::TraceEvent& e : r.events) {
          if (e.kind != check::EventKind::deliver) continue;
          const auto it = landed.find({i, s, e.seq});
          ASSERT_NE(it, landed.end()) << r.label << " seq " << e.seq;
          EXPECT_GE(it->second - e.at, user_deliver) << r.label;
          ++checked[s];
        }
      }
    }
  }
  EXPECT_GT(checked[0], 0);
  EXPECT_GT(checked[1], 0);
}

}  // namespace
}  // namespace amoeba::group
