// Seed-swept conformance properties over every protocol variant.
//
// The sweep size is environment-driven so one binary serves two budgets:
// AMOEBA_PROPERTY_SEEDS (default 6) seeds x {PB, BB} x r in {0,1,2}, each
// under a nemesis scenario picked from the parameters and run by
// run_property_case, the runner the sharded sweep shares. CI runs the
// default on every PR and a 500-seed sweep over the full batch grid
// nightly (see tests/CMakeLists.txt).
//
// MutationSmokeTest is the oracle's own regression: it tampers with a
// healthy run's trace the way a real ordering bug would, and fails if the
// oracle does NOT flag it — proof the sweep isn't vacuously green.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "property_harness.hpp"

namespace amoeba::group::prop {
namespace {

// CTest names each case after gtest's "24-byte object <bytes>" dump of its
// parameter, so this layout and the zeroed padding keep the names.
struct PropertyParams {
  std::uint64_t seed{1};
  Method method{Method::pb};
  std::uint8_t pad[3]{};
  std::uint32_t resilience{0};
  // Sequencer packing cap for the case: 1 disables batching entirely (every
  // message rides its own seq_data frame), larger values exercise the
  // seq_packed / seq_accept_range path under the same nemesis schedules.
  std::size_t batch_count{16};
};
static_assert(std::has_unique_object_representations_v<PropertyParams>);

constexpr const char* kScenarioNames[] = {"noise", "partition",
                                          "member-crash", "sequencer-crash"};

/// Deterministic scenario choice: every (seed, method, r) triple maps to
/// one of the four scenarios, and a sweep over consecutive seeds hits all
/// of them for every protocol variant.
Scenario pick_scenario(const PropertyParams& p) {
  std::uint64_t h = p.seed * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(p.method) << 7) ^
       (static_cast<std::uint64_t>(p.resilience) << 3);
  h *= 0xBF58476D1CE4E5B9ULL;
  return static_cast<Scenario>((h >> 33) % 4);
}

/// One group of 4 members. A sequencer crash halves phase A and is followed
/// by ResetGroup and a phase B from the members that run again; a member
/// crash needs no recovery. AMOEBA_DURABILITY=1 re-runs the sweep with
/// every member on a group_commit durable log: the obligations must hold
/// in every logging mode, and the sanitizer jobs get the log's
/// append/fsync path under the same nemesis schedules.
PropertyCase to_case(const PropertyParams& p) {
  const Scenario sc = pick_scenario(p);
  const char* durable = std::getenv("AMOEBA_DURABILITY");
  return {.seed = p.seed, .method = p.method, .resilience = p.resilience,
          .batch_count = p.batch_count,
          .durable = durable != nullptr && durable[0] == '1',
          .scenario = sc, .per_sender = sc == sequencer_crash ? 2 : 4,
          .phase_b = sc == sequencer_crash,
          .deadline = Duration::seconds(60)};
}

std::vector<PropertyParams> sweep_params() {
  const int seeds = env_count("AMOEBA_PROPERTY_SEEDS", 6);
  // batch_count is a third sweep dimension: 1 (packing off), 4 (partial
  // frames flush on the idle hook), 16 (the default cap). On the PR budget
  // each seed cycles through one of the three; the nightly job sets
  // AMOEBA_PROPERTY_BATCH_SWEEP=1 for the full cross product.
  constexpr std::size_t kBatchCounts[] = {1, 4, 16};
  const bool full_batch_sweep =
      std::getenv("AMOEBA_PROPERTY_BATCH_SWEEP") != nullptr;
  std::vector<PropertyParams> out;
  for (int s = 0; s < seeds; ++s) {
    for (const Method m : {Method::pb, Method::bb}) {
      for (const std::uint32_t r : {0u, 1u, 2u}) {
        for (const std::size_t bc : kBatchCounts) {
          if (!full_batch_sweep &&
              bc != kBatchCounts[static_cast<std::size_t>(s) % 3]) {
            continue;
          }
          out.push_back(PropertyParams{
              .seed = 1000 + static_cast<std::uint64_t>(s), .method = m,
              .resilience = r, .batch_count = bc});
        }
      }
    }
  }
  return out;
}

class PropertySweep : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(PropertySweep, OracleHoldsUnderNemesis) {
  const PropertyCase c = to_case(GetParam());
  const PropertyOutcome out = run_property_case(c);
  ASSERT_TRUE(out.formed) << out.report;
  ASSERT_TRUE(out.reset_ok) << out.report;
  EXPECT_TRUE(out.verdict.ok()) << out.report;
  EXPECT_TRUE(out.report.empty()) << out.report;
  // The nemesis must have actually interfered, or the sweep proves nothing.
  EXPECT_GT(out.injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertySweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<PropertyParams>& ti) {
      const PropertyParams& p = ti.param;
      std::string sc = kScenarioNames[pick_scenario(p)];
      std::ranges::replace(sc, '-', '_');
      return "seed" + std::to_string(p.seed) +
             (p.method == Method::pb ? "_pb" : "_bb") + "_r" +
             std::to_string(p.resilience) + "_bc" +
             std::to_string(p.batch_count) + "_" + sc;
    });

// ---------------------------------------------------------------------------
// Mutation smoke test: inject an ordering bug into a real trace and prove
// the oracle catches it, reporting the seed and a usable trace dump.
// ---------------------------------------------------------------------------

TEST(MutationSmokeTest, InjectedOrderingBugIsCaught) {
  const std::uint64_t seed = 4242;
  GroupConfig cfg;
  cfg.resilience = 1;
  SimGroupHarness h(3, cfg, sim::CostModel::mc68030_ether10(), seed);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (int k = 0; k < 8; ++k) {
    for (std::size_t i = 0; i < 3; ++i) {
      Buffer b(16);
      b[0] = static_cast<std::uint8_t>(i);
      b[1] = static_cast<std::uint8_t>(k);
      h.process(i).user_send(std::move(b), [&](Status s) {
        ASSERT_EQ(s, Status::ok);
        ++done;
      });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 24; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(500));  // quiesce

  // The untampered run is clean.
  check::OracleOptions opts;
  opts.first_seq = cfg.first_seq;
  ASSERT_TRUE(h.check_conformance().ok());

  // Copy the traces and swap the identities of two adjacent deliveries in
  // one member's ring — exactly what a total-order bug (two members
  // delivering in different orders) would look like on the wire.
  std::vector<check::RingTrace> rings = h.traces().rings();
  ASSERT_EQ(rings.size(), 3u);
  std::vector<std::size_t> delivers;
  for (std::size_t i = 0; i < rings[1].events.size(); ++i) {
    if (rings[1].events[i].kind == check::EventKind::deliver &&
        rings[1].events[i].mkind == MessageKind::app) {
      delivers.push_back(i);
    }
  }
  ASSERT_GE(delivers.size(), 2u);
  check::TraceEvent& ea = rings[1].events[delivers[delivers.size() - 2]];
  check::TraceEvent& eb = rings[1].events[delivers[delivers.size() - 1]];
  std::swap(ea.peer, eb.peer);
  std::swap(ea.msg_id, eb.msg_id);
  std::swap(ea.a, eb.a);

  const check::Verdict v = check::ConformanceOracle::check(rings, opts);
  ASSERT_FALSE(v.ok()) << "oracle missed an injected ordering bug";
  bool agreement = false;
  for (const check::Violation& x : v.violations) {
    if (x.invariant == "agreement" || x.invariant == "fifo" ||
        x.invariant == "stamps") {
      agreement = true;
    }
  }
  EXPECT_TRUE(agreement) << v.to_string();

  // A failing case must be reproducible: the report names the seed and the
  // trace dump is non-empty and mentions the offending members.
  const std::string report = "seed=" + std::to_string(seed) + "\n" +
                             v.to_string() + h.traces().dump_text(100);
  EXPECT_NE(report.find("seed=4242"), std::string::npos);
  EXPECT_NE(report.find("deliver"), std::string::npos);
  EXPECT_GT(h.traces().total_events(), 0u);
}

}  // namespace
}  // namespace amoeba::group::prop
