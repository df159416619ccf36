// Chaos lifecycle over real sockets: the full life of a group — form,
// PB and BB traffic, sequencer crash, ResetGroup, more traffic — with the
// fault interposer injecting seeded frame loss underneath the whole run,
// swept over 20 distinct seeds. Asserts the paper's guarantees end to end:
// identical total order at every survivor, no acked message lost across
// the crash (resilience r = 1), and recovery completing within a bounded
// budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "check/collector.hpp"
#include "check/oracle.hpp"
#include "group/blocking.hpp"
#include "transport/fault.hpp"

namespace amoeba::group {
namespace {

/// One OS-process-worth of stack, with the fault interposer between the
/// FLIP stack and the UDP device.
struct ChaosProc {
  check::TraceRing ring;  // structured event trace, drained by the test
  transport::UdpRuntime rt;
  transport::FaultDevice faults;
  flip::FlipStack flip;
  BlockingGroup grp;

  ChaosProc(flip::Address addr, GroupConfig cfg, std::uint64_t seed,
            const transport::UdpOptions& opts)
      : rt(opts), faults(rt, rt, seed), flip(rt, faults),
        grp(rt, flip, addr, cfg) {
    grp.member().set_trace_ring(&ring);  // before rt.start(): no races
  }
};

class UdpChaos : public ::testing::TestWithParam<std::uint64_t> {};
class UdpChaosKmcast : public ::testing::TestWithParam<std::uint64_t> {};

// Payload tag: (phase, sender, k) packed into the first bytes.
Buffer tagged(std::size_t bytes, int phase, std::size_t sender, int k) {
  Buffer b(bytes);
  b[0] = static_cast<std::uint8_t>(phase);
  b[1] = static_cast<std::uint8_t>(sender);
  b[2] = static_cast<std::uint8_t>(k);
  return b;
}
int tag_of(const GroupMessage& m) {
  return (m.data[0] << 16) | (m.data[1] << 8) | m.data[2];
}

void run_chaos_lifecycle(std::uint64_t seed, bool kernel_multicast) {
  constexpr std::size_t kN = 4;

  GroupConfig cfg;
  cfg.resilience = 1;  // every ok send survives one crash
  cfg.send_retry = Duration::millis(60);
  // A deep per-attempt budget (so sparse tail traffic under 8% loss never
  // false-positives a dead sequencer) with a low backoff cap (so a real
  // crash is still detected in ~1.2 s).
  cfg.send_retries = 6;
  cfg.send_backoff_cap = Duration::millis(250);
  cfg.nack_retry = Duration::millis(15);
  cfg.join_retry = Duration::millis(60);
  cfg.invite_interval = Duration::millis(60);
  cfg.status_interval = Duration::millis(100);

  // With kernel multicast, member 0 picks the shared multicast port and
  // the others bind it.
  std::vector<std::unique_ptr<ChaosProc>> procs;
  transport::UdpOptions udp_opts;
  udp_opts.kernel_multicast = kernel_multicast;
  for (std::size_t i = 0; i < kN; ++i) {
    procs.push_back(std::make_unique<ChaosProc>(
        flip::process_address(i + 1), cfg, seed ^ (i * 0x9E37ULL), udp_opts));
    udp_opts.mcast_port = procs[0]->rt.mcast_port();
  }
  if (kernel_multicast) {
    if (!procs[0]->rt.kernel_multicast_active()) {
      GTEST_SKIP() << "kernel multicast unavailable on this host";
    }
    for (auto& p : procs) ASSERT_TRUE(p->rt.kernel_multicast_active());
  }
  std::vector<std::pair<std::string, std::uint16_t>> table;
  for (auto& p : procs) table.emplace_back("127.0.0.1", p->rt.local_port());
  for (std::size_t i = 0; i < kN; ++i) {
    procs[i]->rt.set_station_table(static_cast<transport::StationId>(i), table);
    procs[i]->rt.start();
  }

  check::TraceCollector collector;
  for (std::size_t i = 0; i < kN; ++i) {
    collector.attach('m' + std::to_string(i), &procs[i]->ring);
  }

  const flip::Address gaddr = flip::group_address(0x7A);
  ASSERT_EQ(procs[0]->grp.create_group(gaddr), Status::ok);
  for (std::size_t i = 1; i < kN; ++i) {
    ASSERT_EQ(procs[i]->grp.join_group(gaddr), Status::ok) << "joiner " << i;
  }

  // Noise under everything from here on: <= 10% frame loss, seeded.
  for (auto& p : procs) {
    std::lock_guard lock(p->rt.mutex());
    transport::FaultPlan plan;
    plan.drop = 0.08;
    p->faults.set_plan(plan);
  }

  // A stats poller reads the relaxed-atomic counters live, with NO lock —
  // FaultStats/GroupStats are documented readable from any thread, and the
  // sanitizer jobs hold this test to that claim.
  std::atomic<bool> stop_poll{false};
  std::atomic<std::uint64_t> poll_sink{0};
  std::thread poller([&] {
    while (!stop_poll.load()) {
      std::uint64_t sum = 0;
      for (auto& p : procs) {
        sum += p->faults.fault_stats().injected();
        const GroupStats& gs = p->grp.member().stats();
        sum += gs.messages_delivered + gs.send_retries_fired + gs.nacks_sent;
      }
      poll_sink.store(sum);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Survivors collect their delivery streams in the background.
  std::mutex stream_mu;
  std::vector<std::vector<GroupMessage>> streams(kN);
  std::atomic<bool> stop{false};
  std::vector<std::thread> receivers;
  for (std::size_t i = 1; i < kN; ++i) {
    receivers.emplace_back([&, i] {
      while (!stop.load()) {
        auto r = procs[i]->grp.receive_from_group(Duration::millis(100));
        if (r.ok() && r->kind == MessageKind::app) {
          GroupMessage copy = *r;
          copy.data = BufView::copy_of(r->data.span());  // outlive the history
          std::lock_guard lock(stream_mu);
          streams[i].push_back(std::move(copy));
        }
      }
    });
  }

  // --- Phase A: PB (small) and BB (large) traffic from every member ------
  constexpr int kPerSender = 4;
  std::vector<std::thread> senders;
  std::atomic<int> phase_a_ok{0};
  for (std::size_t i = 1; i < kN; ++i) {
    senders.emplace_back([&, i] {
      for (int k = 0; k < kPerSender; ++k) {
        // Alternate below/above the PB/BB switch point (1398 B): both
        // broadcast methods.
        const std::size_t bytes = (k % 2 == 0) ? 16 : 2048;
        const Status s =
            procs[i]->grp.send_to_group(tagged(bytes, 0xA, i, k));
        EXPECT_EQ(s, Status::ok) << "sender " << i << " msg " << k;
        if (s == Status::ok) ++phase_a_ok;
      }
    });
  }
  for (auto& t : senders) t.join();
  constexpr int kPhaseA = static_cast<int>(kN - 1) * kPerSender;
  ASSERT_EQ(phase_a_ok.load(), kPhaseA);

  // --- The sequencer goes dark --------------------------------------------
  {
    std::lock_guard lock(procs[0]->rt.mutex());
    procs[0]->faults.crash();
  }

  // A survivor's send now fails the group locally; it rebuilds.
  const Status failed = procs[1]->grp.send_to_group(tagged(16, 0xF, 1, 0));
  EXPECT_EQ(failed, Status::timeout);
  EXPECT_TRUE(procs[1]->grp.failed());

  const auto t0 = std::chrono::steady_clock::now();
  const auto rebuilt = procs[1]->grp.reset_group(2);
  const auto recovery = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(rebuilt.ok()) << to_string(rebuilt.status());
  EXPECT_GE(*rebuilt, 2u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(recovery).count(),
            20)
      << "recovery must complete within the budget";

  // Give the other survivors a moment to install the result view.
  for (int tries = 0; tries < 300; ++tries) {
    if (procs[1]->grp.get_info().incarnation > 0 &&
        procs[2]->grp.get_info().incarnation > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(procs[1]->grp.get_info().incarnation, 0u);
  ASSERT_GT(procs[2]->grp.get_info().incarnation, 0u);

  // --- Phase B: the rebuilt group carries traffic (faults still on) -------
  constexpr int kPhaseB = 3;
  int phase_b_ok = 0;
  for (int k = 0; k < kPhaseB; ++k) {
    const std::size_t who = 1 + static_cast<std::size_t>(k) % 2;
    if (procs[who]->grp.send_to_group(tagged(16, 0xB, who, k)) == Status::ok) {
      ++phase_b_ok;
    }
  }
  EXPECT_EQ(phase_b_ok, kPhaseB);

  // Drain: members 1 and 2 must end up with every acked message.
  const std::size_t expect_min =
      static_cast<std::size_t>(kPhaseA + kPhaseB);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lock(stream_mu);
      if (streams[1].size() >= expect_min && streams[2].size() >= expect_min) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : receivers) t.join();
  stop_poll.store(true);
  poller.join();

  // --- Verdicts ------------------------------------------------------------
  std::lock_guard lock(stream_mu);

  // No-loss-at-r: every send acked before the crash appears at members 1
  // and 2 (both in the rebuilt group), exactly once.
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    std::set<int> tags;
    for (const auto& m : streams[i]) tags.insert(tag_of(m));
    EXPECT_EQ(tags.size(), streams[i].size())
        << "member " << i << ": duplicate deliveries";
    for (std::size_t s = 1; s < kN; ++s) {
      for (int k = 0; k < kPerSender; ++k) {
        EXPECT_TRUE(tags.count((0xA << 16) | (static_cast<int>(s) << 8) | k))
            << "member " << i << " lost acked message (" << s << "," << k
            << ") across the crash";
      }
    }
  }

  // Total order: align every survivor pair by seq; same seq -> same message.
  for (std::size_t i = 2; i < kN; ++i) {
    std::size_t a = 0, b = 0;
    while (a < streams[1].size() && b < streams[i].size()) {
      if (streams[1][a].seq < streams[i][b].seq) {
        ++a;
      } else if (streams[i][b].seq < streams[1][a].seq) {
        ++b;
      } else {
        EXPECT_EQ(streams[1][a].sender, streams[i][b].sender);
        EXPECT_EQ(tag_of(streams[1][a]), tag_of(streams[i][b]));
        ++a;
        ++b;
      }
    }
  }

  // The interposer actually did something this run.
  std::uint64_t injected = 0;
  for (auto& p : procs) {
    std::lock_guard plock(p->rt.mutex());
    injected += p->faults.fault_stats().injected();
  }
  EXPECT_GT(injected, 0u) << "seeded plan must have injected faults";
  {
    std::lock_guard plock(procs[0]->rt.mutex());
    EXPECT_GT(procs[0]->faults.fault_stats().crash_rx_drops +
                  procs[0]->faults.fault_stats().crash_tx_drops,
              0u);
  }

  // Conformance oracle over the full structured trace: the same total
  // order / gap-free / validity / durability invariants the simulator
  // sweep enforces, here over real sockets and threads. Double drain with
  // a settle gap so in-flight emissions land before judgment.
  collector.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  collector.drain();
  EXPECT_EQ(collector.total_dropped(), 0u);
  check::OracleOptions opts;
  opts.durable_rings = {"m1", "m2"};
  const auto verdict = check::ConformanceOracle::check(collector, opts);
  EXPECT_TRUE(verdict.ok())
      << "seed=" << seed << "\n"
      << verdict.to_string() << collector.dump_text(200);

  for (auto& p : procs) p->rt.stop();
}

TEST_P(UdpChaos, LifecycleSurvivesSeededFaults) {
  run_chaos_lifecycle(GetParam(), /*kernel_multicast=*/false);
}

// The same full lifecycle — faults, crash, ResetGroup, oracle — with
// every member on kernel IP multicast: group traffic goes out as single
// group datagrams and arrives on each member's multicast socket, where the
// sender's own looped-back copy is filtered by source match. One small
// seed batch on PR CI; the fan-out sweep above keeps the wide coverage.
TEST_P(UdpChaosKmcast, LifecycleSurvivesSeededFaults) {
  run_chaos_lifecycle(GetParam(), /*kernel_multicast=*/true);
}

/// Sweep width is environment-driven: AMOEBA_CHAOS_SEEDS (default 20).
/// PR CI runs a fast subset; the nightly job raises it (tests/CMakeLists
/// registers the nightly entry).
std::vector<std::uint64_t> chaos_seeds() {
  const char* v = std::getenv("AMOEBA_CHAOS_SEEDS");
  int n = v != nullptr ? std::atoi(v) : 0;
  if (n <= 0) n = 20;
  std::vector<std::uint64_t> out;
  for (int i = 1; i <= n; ++i) out.push_back(static_cast<std::uint64_t>(i));
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdpChaos, ::testing::ValuesIn(chaos_seeds()));
INSTANTIATE_TEST_SUITE_P(SeedBatch, UdpChaosKmcast,
                         ::testing::Values(1ULL, 2ULL, 3ULL));

}  // namespace
}  // namespace amoeba::group
