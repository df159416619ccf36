// Seed-swept crash-restart-with-disk properties ("restart nemesis").
//
// Each case forms a 4-member durable group, drives traffic, crashes one or
// more members WITH their disks (unsynced bytes lost, per the MemStorage
// crash model), restarts them from those disks, rejoins them, drives more
// traffic, and hands the full multi-life trace to the ConformanceOracle
// with `restart_pairs` set — so every pre-crash fsync report is held
// against what recovery actually brought back, on top of all the standing
// ordering/durability invariants.
//
// Scenarios (hashed from the parameters, like tests/property_harness.cpp):
//   0: one non-sequencer member crash-restarts mid-traffic and rejoins
//   1: max(1, r) members crash simultaneously, then all restart + rejoin
//   2: the SEQUENCER crashes with its disk; a survivor runs ResetGroup;
//      the ex-sequencer then restarts from disk and rejoins the new view
//
// Sweep: AMOEBA_RESTART_SEEDS (default 3) seeds x {PB, BB} x r in {0,1,2}
// x durability in {async, group_commit}. CI runs the default on PRs and a
// 200-seed sweep nightly (tests/CMakeLists.txt).
//
// RestartMutationSmoke is the regression for the new oracle obligations:
// it tampers with a healthy restart trace the way a real recovery bug
// would (a recovered record rewritten / dropped) and fails if the oracle
// does NOT flag it.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group::prop {
namespace {

// CTest names each case with gtest's raw byte dump of its parameter.
// `pad` and `tail_pad` take the place of the compiler's padding, so those
// bytes are zero on every build instead of whatever the stack held.
struct RestartParams {
  std::uint64_t seed{1};
  Method method{Method::pb};
  std::uint8_t pad[3]{};
  std::uint32_t resilience{0};
  Durability durability{Durability::group_commit};
  std::uint8_t tail_pad[7]{};
};
static_assert(std::has_unique_object_representations_v<RestartParams>);

int pick_restart_scenario(const RestartParams& p) {
  std::uint64_t h = p.seed * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(p.method) << 11) ^
       (static_cast<std::uint64_t>(p.resilience) << 5) ^
       (static_cast<std::uint64_t>(p.durability) << 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return static_cast<int>((h >> 33) % 3);
}

const char* restart_scenario_name(int sc) {
  switch (sc) {
    case 0: return "member-restart";
    case 1: return "simultaneous-restarts";
    case 2: return "sequencer-restart";
    default: return "?";
  }
}

std::string describe(const RestartParams& p, int sc) {
  return "seed=" + std::to_string(p.seed) +
         " method=" + (p.method == Method::pb ? "pb" : "bb") +
         " r=" + std::to_string(p.resilience) + " durability=" +
         (p.durability == Durability::async ? "async" : "group_commit") +
         " scenario=" + restart_scenario_name(sc);
}

struct RestartOutcome {
  bool formed{false};
  int scenario{-1};
  bool ok_flow{true};  // crash/restart/rejoin plumbing all completed
  check::Verdict verdict{};
  std::string report;
};

RestartOutcome run_restart_case(const RestartParams& p) {
  constexpr std::size_t kMembers = 4;
  const int sc = pick_restart_scenario(p);

  GroupConfig cfg;
  cfg.resilience = p.resilience;
  cfg.method = p.method;
  cfg.durability = p.durability;
  cfg.fsync_interval = Duration::millis(10);
  cfg.send_retry = Duration::millis(30);
  cfg.nack_retry = Duration::millis(10);
  cfg.join_retry = Duration::millis(50);
  cfg.status_interval = Duration::millis(100);
  cfg.invite_interval = Duration::millis(50);
  // The failure detector only probes laggards under history pressure; a
  // small window makes post-crash traffic build that pressure quickly.
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 3;

  SimGroupHarness h(kMembers, cfg, sim::CostModel::mc68030_ether10(), p.seed);
  for (std::size_t i = 0; i < kMembers; ++i) {
    h.process(i).enable_durability();
  }

  RestartOutcome out;
  out.scenario = sc;
  out.formed = h.form_group();
  if (!out.formed) {
    out.report = "group formation failed: " + describe(p, sc);
    return out;
  }
  auto fail = [&](const std::string& what) {
    out.ok_flow = false;
    out.report = what + ": " + describe(p, sc) + "\n" +
                 h.traces().dump_text(300);
    return out;
  };

  // --- Phase A: traffic from everyone ---------------------------------------
  std::array<int, kMembers> terminal{};
  std::function<void(std::size_t, int, int)> send_k = [&](std::size_t i,
                                                          int k, int n) {
    if (k >= n) return;
    Buffer b(8);
    b[0] = static_cast<std::uint8_t>(i);
    b[1] = static_cast<std::uint8_t>(k);
    b[2] = 0xA;
    h.process(i).user_send(std::move(b), [&, i, k, n](Status) {
      ++terminal[i];
      send_k(i, k + 1, n);
    });
  };
  for (std::size_t i = 0; i < kMembers; ++i) send_k(i, 0, 4);
  if (!h.run_until(
          [&] {
            for (std::size_t i = 0; i < kMembers; ++i) {
              if (terminal[i] < 4) return false;
            }
            return true;
          },
          Duration::seconds(60))) {
    return fail("phase A stalled");
  }
  // Let fsync timers / piggybacked horizons settle before the crash.
  h.run_until([] { return false; }, Duration::millis(60));

  // --- Crash with disk ------------------------------------------------------
  std::vector<std::size_t> victims;
  if (sc == 0) {
    victims = {1 + (p.seed % 3)};  // any non-sequencer member
  } else if (sc == 1) {
    const std::size_t n = std::max<std::uint32_t>(1, p.resilience);
    for (std::size_t k = 0; k < n; ++k) victims.push_back(3 - k);
  } else {
    victims = {0};  // the sequencer
  }
  for (std::size_t v : victims) h.crash_process(v);

  if (sc == 2) {
    // A survivor must notice before it can reset.
    bool probing = false;
    std::function<void()> probe = [&] {
      if (h.process(1).fault().has_value() || probing) return;
      probing = true;
      Buffer b(8);
      b[2] = 0xF;
      h.process(1).user_send(std::move(b), [&](Status) { probing = false; });
    };
    if (!h.run_until(
            [&] {
              if (!h.process(1).fault().has_value()) probe();
              return h.process(1).fault().has_value();
            },
            Duration::seconds(60))) {
      return fail("sequencer fault never observed");
    }
    bool reset_done = false;
    Status reset_status = Status::failure;
    h.process(1).member().reset_group(2, [&](Status s, std::uint32_t) {
      reset_status = s;
      reset_done = true;
    });
    if (!h.run_until([&] { return reset_done; }, Duration::seconds(60)) ||
        reset_status != Status::ok) {
      return fail("ResetGroup failed");
    }
  } else {
    // The survivors' failure detector expels the dead member(s) — but only
    // under history pressure, so keep the sequencer sending while waiting.
    // Fire-and-forget and time-paced: with r >= 1 a send whose resilience
    // ackers include a dead member cannot complete until the expel, so a
    // chained filler would deadlock against the very pressure it feeds.
    Time last_fill = h.engine().now() - Duration::seconds(1);
    int fills = 0;
    if (!h.run_until(
            [&] {
              const bool expelled = h.process(0).member().info().size() ==
                                    kMembers - victims.size();
              if (!expelled && fills < 200 &&
                  h.engine().now() - last_fill >= Duration::millis(10)) {
                last_fill = h.engine().now();
                ++fills;
                Buffer b(8);
                b[2] = 0xE;  // filler tag
                h.process(0).user_send(std::move(b), [](Status) {});
              }
              return expelled;
            },
            Duration::seconds(60))) {
      return fail("victims never expelled");
    }
  }

  // --- Restart from disk + rejoin ------------------------------------------
  std::vector<check::OracleOptions::RestartPair> pairs;
  int rejoined = 0;
  for (std::size_t v : victims) {
    Status recovered = Status::failure;
    pairs.push_back(h.restart_process(v, &recovered));
    if (recovered == Status::ok) {
      h.process(v).member().rejoin_group([&](Status s) {
        if (s == Status::ok) ++rejoined;
      });
    } else {
      // Disk held no usable view (crash before the first barrier): the
      // member starts over as a fresh joiner. Restart obligations still
      // hold — an empty recovery is only legal if nothing was synced.
      h.process(v).member().join_group(h.group_addr(), [&](Status s) {
        if (s == Status::ok) ++rejoined;
      });
    }
  }
  if (!h.run_until([&] { return rejoined == static_cast<int>(victims.size()); },
                   Duration::seconds(60))) {
    return fail("restarted member(s) never rejoined");
  }

  // --- Phase B: traffic including the restarted members ---------------------
  std::array<int, kMembers> done_b{};
  std::function<void(std::size_t, int)> send_b = [&](std::size_t i, int k) {
    if (k >= 3) return;
    Buffer b(8);
    b[0] = static_cast<std::uint8_t>(i);
    b[1] = static_cast<std::uint8_t>(k);
    b[2] = 0xB;
    h.process(i).user_send(std::move(b), [&, i, k](Status) {
      ++done_b[i];
      send_b(i, k + 1);
    });
  };
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (h.process(i).member().state() == GroupMember::State::running) {
      send_b(i, 0);
    }
  }
  if (!h.run_until(
          [&] {
            for (std::size_t i = 0; i < kMembers; ++i) {
              if (h.process(i).member().state() ==
                      GroupMember::State::running &&
                  done_b[i] < 3) {
                return false;
              }
            }
            return true;
          },
          Duration::seconds(60))) {
    return fail("phase B stalled");
  }

  // --- Quiesce, then judge --------------------------------------------------
  h.run_until([] { return false; }, Duration::millis(800));

  check::OracleOptions opts;
  opts.restart_pairs = pairs;
  for (std::size_t i = 0; i < kMembers; ++i) {
    // Durable-ring claims only for lives that span the whole run: a
    // restarted member's post ring holds just the post-rejoin suffix.
    bool crashed = false;
    for (std::size_t v : victims) crashed = crashed || v == i;
    if (crashed) continue;
    if (h.process(i).member().state() != GroupMember::State::running) continue;
    if (sc == 2 && p.resilience < 1) continue;  // seq crash can lose r=0 msgs
    opts.durable_rings.push_back(h.label(i));
  }
  out.verdict = h.check_conformance(opts);
  if (!out.verdict.ok()) {
    out.report = "oracle violation: " + describe(p, sc) + "\n" +
                 out.verdict.to_string() + h.traces().dump_text(400);
  }
  return out;
}

int env_count(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const int n = std::atoi(v);
  return n > 0 ? n : fallback;
}

std::vector<RestartParams> sweep_params() {
  const int seeds = env_count("AMOEBA_RESTART_SEEDS", 3);
  std::vector<RestartParams> out;
  for (int s = 0; s < seeds; ++s) {
    for (const Method m : {Method::pb, Method::bb}) {
      for (const std::uint32_t r : {0u, 1u, 2u}) {
        for (const Durability d :
             {Durability::async, Durability::group_commit}) {
          out.push_back(RestartParams{
              .seed = 7000 + static_cast<std::uint64_t>(s), .method = m,
              .resilience = r, .durability = d});
        }
      }
    }
  }
  return out;
}

class RestartPropertySweep : public ::testing::TestWithParam<RestartParams> {};

TEST_P(RestartPropertySweep, RestartObligationsHoldUnderCrashes) {
  const RestartParams p = GetParam();
  const RestartOutcome out = run_restart_case(p);
  ASSERT_TRUE(out.formed) << out.report;
  ASSERT_TRUE(out.ok_flow) << out.report;
  EXPECT_TRUE(out.verdict.ok()) << out.report;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RestartPropertySweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<RestartParams>& ti) {
      const RestartParams& p = ti.param;
      std::string sc = restart_scenario_name(pick_restart_scenario(p));
      for (char& c : sc) {
        if (c == '-') c = '_';
      }
      return "seed" + std::to_string(p.seed) +
             (p.method == Method::pb ? "_pb" : "_bb") + "_r" +
             std::to_string(p.resilience) +
             (p.durability == Durability::async ? "_async" : "_gc") + "_" + sc;
    });

// ---------------------------------------------------------------------------
// Mutation smoke: tamper with a healthy restart trace the way a recovery
// bug would, and prove the oracle's restart obligations catch it.
// ---------------------------------------------------------------------------

struct RestartTrace {
  std::vector<check::RingTrace> rings;
  check::OracleOptions opts;
};

RestartTrace healthy_restart_trace() {
  GroupConfig cfg;
  cfg.durability = Durability::group_commit;
  cfg.status_interval = Duration::millis(100);
  SimGroupHarness h(3, cfg, sim::CostModel::mc68030_ether10(), 31337);
  for (std::size_t i = 0; i < 3; ++i) h.process(i).enable_durability();
  EXPECT_TRUE(h.form_group());

  int acked = 0;
  for (int k = 0; k < 8; ++k) {
    Buffer b(8);
    b[1] = static_cast<std::uint8_t>(k);
    h.process(0).user_send(std::move(b), [&](Status s) {
      if (s == Status::ok) ++acked;
    });
  }
  EXPECT_TRUE(h.run_until([&] { return acked == 8; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));

  h.crash_process(2);
  Status recovered = Status::failure;
  const auto pair = h.restart_process(2, &recovered);
  EXPECT_EQ(recovered, Status::ok);
  h.run_until([] { return false; }, Duration::millis(100));

  RestartTrace out;
  out.opts.first_seq = cfg.first_seq;
  out.opts.restart_pairs.push_back(pair);
  h.traces().drain();
  out.rings = h.traces().rings();
  return out;
}

bool flags_restart(const check::Verdict& v) {
  for (const check::Violation& x : v.violations) {
    if (x.invariant == "restart") return true;
  }
  return false;
}

TEST(RestartMutationSmoke, RewrittenRecoveredRecordIsCaught) {
  RestartTrace t = healthy_restart_trace();
  ASSERT_TRUE(check::ConformanceOracle::check(t.rings, t.opts).ok());

  // A recovery bug that rewrites history: one recovered record comes back
  // with a different payload/sender identity than the group delivered.
  bool mutated = false;
  for (check::RingTrace& r : t.rings) {
    if (r.label != t.opts.restart_pairs[0].post) continue;
    for (check::TraceEvent& e : r.events) {
      if (e.kind == check::EventKind::log_recover &&
          e.mkind == MessageKind::app) {
        e.msg_id += 100;
        e.a ^= 0xDEADBEEF;
        mutated = true;
        break;
      }
    }
  }
  ASSERT_TRUE(mutated) << "no recovered app record to tamper with";
  const auto v = check::ConformanceOracle::check(t.rings, t.opts);
  ASSERT_FALSE(v.ok()) << "oracle missed a rewritten recovered record";
  EXPECT_TRUE(flags_restart(v)) << v.to_string();
}

TEST(RestartMutationSmoke, DroppedRecoveredRecordIsCaught) {
  RestartTrace t = healthy_restart_trace();
  ASSERT_TRUE(check::ConformanceOracle::check(t.rings, t.opts).ok());

  // A recovery bug that silently loses a synced record: remove one
  // log_recover event from the middle of the recovered run.
  bool dropped = false;
  for (check::RingTrace& r : t.rings) {
    if (r.label != t.opts.restart_pairs[0].post) continue;
    std::vector<std::size_t> recovers;
    for (std::size_t i = 0; i < r.events.size(); ++i) {
      if (r.events[i].kind == check::EventKind::log_recover) {
        recovers.push_back(i);
      }
    }
    if (recovers.size() >= 3) {
      r.events.erase(r.events.begin() +
                     static_cast<std::ptrdiff_t>(recovers[recovers.size() / 2]));
      dropped = true;
    }
  }
  ASSERT_TRUE(dropped) << "not enough recovered records to drop one";
  const auto v = check::ConformanceOracle::check(t.rings, t.opts);
  ASSERT_FALSE(v.ok()) << "oracle missed a dropped recovered record";
  EXPECT_TRUE(flags_restart(v)) << v.to_string();
}

}  // namespace
}  // namespace amoeba::group::prop
