// Seed-swept property harness: one randomized workload + nemesis schedule
// per case, checked by the ConformanceOracle. One runner serves both
// sweeps: the classic single-group one (PropertySweep,
// tests/property_harness.cpp) and the sharded one with cross-shard atomic
// multicast (ShardedSweep, tests/sharded_property_test.cpp). Each sweep
// turns its own parameters into a PropertyCase (scenario, send budget,
// recovery, deadline); the runner executes the case.
//
// Each case runs 4 processes. With S shards every process hosts a member
// of each; shard s is created — and initially sequenced — by process
// s mod 4. The scenarios:
//
//   noise            background noise only (drop / duplicate / corrupt /
//                    delay)
//   partition        noise + a both-ways partition of process 3, healed
//                    mid-run
//   member-crash     noise + station 3 crashes. Single-group: a plain
//   (edge-crash)     receiver, expelled. Sharded: with S = 2 it holds no
//                    sequencer role, with S = 4 it sequences shard 3
//   sequencer-crash  noise + station 0, the sequencer of shard 0, crashes
//
// A case with a phase B follows its crash with recovery: the designated
// survivor of every orphaned shard (one whose sequencer lived on the
// crashed station) probes until its member observes the fault and runs
// ResetGroup; then a second send phase completes under the new views. The
// oracle judges the whole trace: per-shard stream invariants, plus
// exactly-once / genuineness / atomicity / relative order for every
// cross-shard message. A failure reports the oracle verdict and the
// merged trace dump under the gtest case name, which replays it with
// `--gtest_filter=...`.
//
// Durability claims are scoped to what the protocol actually promises:
// members whose final state is `running` must hold every message that was
// delivered anywhere; in a shard whose sequencer crashed that claim
// additionally needs r >= 1 (with r = 0 a message can die with the
// sequencer).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group::prop {

using transport::NemesisEvent;

enum Scenario : int { noise, partition, member_crash, sequencer_crash };

/// One case of either sweep, as its sweep built it.
struct PropertyCase {
  std::uint64_t seed{1};
  std::uint32_t n_shards{1};  // 1: one group, sent to with user_send
  Method method{Method::pb};
  std::uint32_t resilience{0};
  std::size_t batch_count{16};
  int mix_pct{0};  // % of sends that are 2-shard atomic multicasts
  bool durable{false};  // every process on a group_commit durable log
  Scenario scenario{noise};
  int per_sender{4};  // phase-A sends from each process
  // After the crash: ResetGroup of every orphaned shard, then phase B.
  bool phase_b{false};
  // Phase B from every survivor; otherwise only from the survivors whose
  // members all run again.
  bool phase_b_from_all{false};
  Duration deadline;  // simulated-time bound on phase A, and on phase B
};

struct PropertyOutcome {
  bool formed{false};
  bool reset_ok{true};  // every ResetGroup completed ok
  check::Verdict verdict{};
  std::string report;         // what failed + trace dump; empty on success
  std::uint64_t injected{0};  // faults the nemesis actually applied
  std::uint64_t xsends{0};       // cross-shard rounds admitted
  std::uint64_t xdeliveries{0};  // cross-shard up-deliveries
};

/// A positive count from the environment, else `fallback`: the sweeps'
/// width knobs.
inline int env_count(const char* name, int fallback) {
  const char* v = std::getenv(name);
  const int n = v == nullptr ? 0 : std::atoi(v);
  return n > 0 ? n : fallback;
}

/// SplitMix64: the per-send decision stream (cross vs local, which shards).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline PropertyOutcome run_property_case(const PropertyCase& c) {
  constexpr std::size_t kProcs = 4;
  const Scenario sc = c.scenario;
  const std::uint32_t S = c.n_shards;
  const bool crash = sc == member_crash || sc == sequencer_crash;
  const std::size_t victim = sc == member_crash ? 3u : 0u;
  // Shard s's sequencer lives on station s mod 4.
  const auto orphaned = [&](std::uint32_t s) {
    return crash && s % kProcs == victim;
  };

  GroupConfig cfg;
  cfg.resilience = c.resilience;
  cfg.method = c.method;
  cfg.batch_count = c.batch_count;
  cfg.send_retry = Duration::millis(30);
  cfg.nack_retry = Duration::millis(10);
  cfg.join_retry = Duration::millis(50);
  cfg.status_interval = Duration::millis(100);
  cfg.invite_interval = Duration::millis(50);

  if (c.durable) {
    cfg.durability = Durability::group_commit;
    cfg.fsync_interval = Duration::millis(10);
  }

  SimGroupHarness h(kProcs, cfg, sim::CostModel::mc68030_ether10(), c.seed,
                    S);
  if (c.durable) {
    for (std::size_t i = 0; i < kProcs; ++i) {
      h.process(i).enable_durability();
    }
  }

  PropertyOutcome out;
  out.formed = h.form_group();
  if (!out.formed) {
    out.report = "group formation failed";
    return out;
  }

  // --- Nemesis schedule -----------------------------------------------------
  NemesisEvent noisy;
  noisy.kind = NemesisEvent::Kind::set_plan;
  noisy.plan.drop = 0.05 + 0.03 * static_cast<double>(c.seed % 2);
  noisy.plan.duplicate = 0.02;
  noisy.plan.corrupt = 0.02;
  noisy.plan.delay = 0.03;
  NemesisEvent calm;
  calm.kind = NemesisEvent::Kind::set_plan;  // default plan: no faults

  std::vector<NemesisEvent> schedule{noisy};
  if (sc == partition) {
    NemesisEvent cut;
    cut.at = Duration::millis(60);
    cut.kind = NemesisEvent::Kind::partition;
    cut.islands = {{h.process(0).faults().station(),
                    h.process(1).faults().station(),
                    h.process(2).faults().station()},
                   {h.process(3).faults().station()}};
    NemesisEvent heal;
    heal.at = Duration::millis(250);
    heal.kind = NemesisEvent::Kind::heal;
    schedule.push_back(cut);
    schedule.push_back(heal);
  }
  calm.at = Duration::millis(crash ? 200 : 400);
  schedule.push_back(calm);
  for (std::size_t i = 0; i < h.size(); ++i) {
    h.process(i).faults().set_schedule(schedule);
    h.process(i).faults().start_nemesis();
  }
  // Crashes are scripted on the engine clock so they land at an exact
  // virtual time regardless of frame activity.
  const Time crash_at = h.engine().now() + Duration::millis(80);
  if (crash) {
    h.engine().schedule_at(
        crash_at, [&h, victim] { h.process(victim).faults().crash(); });
  }

  // --- Sends ----------------------------------------------------------------
  // A single-group send is the user-level SendToGroup; a sharded one goes
  // to the process's Node, for one shard or — `cross` — as a 2-shard
  // atomic multicast. Which shards is seeded per (process, phase, k).
  const auto send_to = [&](std::size_t i, std::uint32_t s, Buffer b,
                           const std::function<void(Status)>& cb) {
    if (S == 1) {
      h.process(i).user_send(std::move(b), cb);
    } else {
      h.process(i).node().send_to_shard(s, std::move(b), cb);
    }
  };
  const auto one_send = [&](std::size_t i, int k, std::uint8_t phase,
                            bool cross, const std::function<void(Status)>& cb) {
    const std::uint64_t r = mix64(
        c.seed * std::uint64_t{1315423911} ^
        (static_cast<std::uint64_t>(i) + 1) * std::uint64_t{2654435761} ^
        (static_cast<std::uint64_t>(phase) << 32) ^
        static_cast<std::uint64_t>(k) * std::uint64_t{40503});
    Buffer b(8);
    b[0] = static_cast<std::uint8_t>(i);
    b[1] = static_cast<std::uint8_t>(k);
    b[2] = phase;
    if (S > 1) b[3] = static_cast<std::uint8_t>(r);
    const std::uint32_t a = static_cast<std::uint32_t>(r >> 8) % S;
    if (cross) {
      const std::uint32_t b2 =
          (a + 1 + static_cast<std::uint32_t>(r >> 16) % (S - 1)) % S;
      h.process(i).node().send_multi((1u << a) | (1u << b2), std::move(b),
                                     cb);
    } else {
      send_to(i, a, std::move(b), cb);
    }
  };
  // The cross/local decision is deterministic, not Bernoulli: send number n
  // (counted round-robin across senders) is cross-shard when n crosses a
  // multiple of 100/mix. A sampled mix can legitimately produce zero
  // cross-shard sends for an unlucky seed, which would starve the sweep's
  // "machinery was exercised" assertion; this always lands within one send
  // of the requested percentage.
  const auto is_cross = [&](std::size_t i, int k) {
    const int n = k * static_cast<int>(kProcs) + static_cast<int>(i);
    return c.mix_pct > 0 && ((n + 1) * c.mix_pct) / 100 > (n * c.mix_pct) / 100;
  };

  // --- Phase A: chained sends from every process -----------------------------
  // Completions count terminally whatever the status — crashed / partitioned
  // members legitimately fail their sends, a crashed origin times out its
  // rounds; the oracle's validity and atomicity obligations separately pin
  // every `ok` to real deliveries.
  std::array<int, kProcs> terminal{};
  std::function<void(std::size_t, int)> send_k = [&](std::size_t i, int k) {
    if (k >= c.per_sender) return;
    one_send(i, k, 0xA, is_cross(i, k), [&, i, k](Status) {
      ++terminal[i];
      send_k(i, k + 1);
    });
  };
  for (std::size_t i = 0; i < kProcs; ++i) send_k(i, 0);

  const auto phase_a_done = [&] {
    return std::ranges::all_of(terminal,
                               [&](int n) { return n >= c.per_sender; });
  };
  if (!h.run_until(phase_a_done, c.deadline)) {
    out.report = "phase A stalled\n" + h.traces().dump_text(200);
    return out;
  }

  // --- Recovery: reset every orphaned shard, then phase B -------------------
  const std::size_t survivor = (victim + 1) % kProcs;
  bool probing = false;
  const auto probe = [&](std::uint32_t s) {
    if (probing || h.process(survivor).fault(s).has_value()) return;
    probing = true;
    Buffer b(8);
    b[0] = static_cast<std::uint8_t>(survivor);
    b[2] = 0xF;  // probe tag
    send_to(survivor, s, std::move(b), [&](Status) { probing = false; });
  };
  const auto recovered = [&](std::size_t i) {
    for (std::uint32_t s = 0; s < S; ++s) {
      if (h.process(i).member(s).state() != GroupMember::State::running) {
        return false;
      }
    }
    return true;
  };
  const auto in_phase_b = [&](std::size_t i) {
    return i != victim && (c.phase_b_from_all || recovered(i));
  };
  std::array<int, kProcs> done_b{};
  std::function<void(std::size_t, int)> send_b = [&](std::size_t i, int k) {
    if (k >= 2) return;
    // With a nonzero mix, the designated survivor's first post-reset send
    // is always cross-shard: a phase-A cross round addressed to an
    // orphaned shard may legitimately time out, so this guarantees at
    // least one cross-shard round runs against live sequencers.
    const bool cross =
        (c.mix_pct > 0 && k == 0 && i == survivor) || is_cross(i, k);
    one_send(i, k, 0xB, cross, [&, i, k](Status) {
      ++done_b[i];
      send_b(i, k + 1);
    });
  };
  if (c.phase_b) {
    for (std::uint32_t s = 0; s < S; ++s) {
      if (!orphaned(s)) continue;  // sequencer lives on
      const std::string where = " shard " + std::to_string(s);
      // The survivor must notice the dead sequencer before it can reset;
      // probe until its fault callback fires.
      const auto observed = [&] {
        probe(s);
        return h.process(survivor).fault(s).has_value();
      };
      if (!h.run_until(observed, Duration::seconds(60))) {
        out.report = "fault never observed in" + where;
        return out;
      }
      bool reset_done = false;
      Status reset_status = Status::ok;
      h.process(survivor).member(s).reset_group(
          2, [&](Status st, std::uint32_t) {
            reset_status = st;
            reset_done = true;
          });
      if (!h.run_until([&] { return reset_done; }, Duration::seconds(60))) {
        out.report = "ResetGroup stalled in" + where + "\n" +
                     h.traces().dump_text(200);
        return out;
      }
      out.reset_ok = reset_status == Status::ok;
      if (!out.reset_ok) {
        out.report = "ResetGroup failed (" +
                     std::string(to_string(reset_status)) + ") in" + where;
        return out;
      }
    }

    // Wait for every survivor to finish recovery, then phase B.
    h.run_until(
        [&] {
          for (std::size_t i = 0; i < kProcs; ++i) {
            if (i != victim && !recovered(i)) return false;
          }
          return true;
        },
        Duration::seconds(30));
    for (std::size_t i = 0; i < kProcs; ++i) {
      if (in_phase_b(i)) send_b(i, 0);
    }
    if (!h.run_until(
            [&] {
              for (std::size_t i = 0; i < kProcs; ++i) {
                if (in_phase_b(i) && done_b[i] < 2) return false;
              }
              return true;
            },
            c.deadline)) {
      out.report = "phase B stalled\n" + h.traces().dump_text(200);
      return out;
    }
  }

  // --- Quiesce, then judge --------------------------------------------------
  h.run_until([] { return false; }, Duration::millis(800));

  check::OracleOptions opts;
  if (crash) {
    // The crash only severs the NIC: the victim keeps executing locally
    // and (as a partitioned sequencer) may expel the unreachable members
    // and complete sends against its solo view. A real fail-stop station's
    // post-crash actions are unobservable — truncate its rings at the crash
    // instant; its pre-crash completions still bind the survivors.
    if (S > 1) opts.ring_cutoffs.emplace_back(h.node_label(victim), crash_at);
    for (std::uint32_t s = 0; s < S; ++s) {
      opts.ring_cutoffs.emplace_back(h.label(victim, s), crash_at);
    }
  }
  for (std::size_t i = 0; i < kProcs; ++i) {
    // A crashed station's members may never learn the NIC died (nothing
    // left to send, so no timeout fires) and idle in `running` forever —
    // exclude the victim explicitly, not just by final state.
    if (crash && i == victim) continue;
    for (std::uint32_t s = 0; s < S; ++s) {
      if (h.process(i).member(s).state() != GroupMember::State::running) {
        continue;
      }
      if (!orphaned(s) || c.resilience >= 1) {
        opts.durable_rings.push_back(h.label(i, s));
      }
    }
  }
  out.verdict = h.check_conformance(opts);
  if (!out.verdict.ok()) {
    out.report = "oracle violation\n" + out.verdict.to_string() +
                 h.traces().dump_text(400);
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    out.injected += h.process(i).faults().fault_stats().injected();
    out.xsends += h.process(i).node().stats().xsends.load();
    out.xdeliveries += h.process(i).node().stats().xdeliveries.load();
  }
  return out;
}

}  // namespace amoeba::group::prop
