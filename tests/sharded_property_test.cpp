// Seed-swept conformance properties for sharded groups with cross-shard
// atomic multicast.
//
// The sweep size is environment-driven so one binary serves two budgets:
// AMOEBA_PROPERTY_SEEDS (default 3) seeds x shards in {2,4} x {PB, BB} x
// r in {0,1}; the cross-shard mix (0%, 10%, 50% of sends addressed to two
// shards) cycles with the seed on the PR budget and becomes a full sweep
// dimension when AMOEBA_PROPERTY_MIX_SWEEP is set (the nightly job). Every
// case runs under a nemesis scenario (noise / station crash / shard-0
// sequencer crash) picked from the parameters, and the whole trace is
// judged by the multi-group oracle including the xshard obligations.
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
struct ShardedParams {
  std::uint64_t seed{1};
  std::uint32_t n_shards{2};
  Method method{Method::pb};
  std::uint8_t pad[3]{};
  std::uint32_t resilience{0};
  int mix_pct{10};  // % of sends that are 2-shard atomic multicasts
};
static_assert(std::has_unique_object_representations_v<ShardedParams>);

const char* scenario_name(Scenario sc) {
  return sc == noise ? "noise"
                     : (sc == member_crash ? "edge-crash" : "sequencer-crash");
}

Scenario pick_scenario(const ShardedParams& p) {
  std::uint64_t h = p.seed * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(p.method) << 9) ^
       (static_cast<std::uint64_t>(p.resilience) << 5) ^
       (static_cast<std::uint64_t>(p.n_shards) << 2) ^
       static_cast<std::uint64_t>(p.mix_pct);
  h *= 0xBF58476D1CE4E5B9ULL;
  constexpr Scenario kScenarios[] = {noise, member_crash, sequencer_crash};
  return kScenarios[(h >> 33) % 3];
}

/// 4 processes hosting S shards. Every crash is followed by ResetGroup of
/// the shards it orphaned and a phase B from every survivor.
PropertyCase to_case(const ShardedParams& p) {
  const Scenario sc = pick_scenario(p);
  return {.seed = p.seed, .n_shards = p.n_shards, .method = p.method,
          .resilience = p.resilience, .mix_pct = p.mix_pct, .scenario = sc,
          .per_sender = sc == noise ? 4 : 3, .phase_b = sc != noise,
          .phase_b_from_all = true, .deadline = Duration::seconds(120)};
}

std::vector<ShardedParams> sweep_params() {
  const int seeds = env_count("AMOEBA_PROPERTY_SEEDS", 3);
  constexpr int kMixes[] = {0, 10, 50};
  const bool full_mix_sweep =
      std::getenv("AMOEBA_PROPERTY_MIX_SWEEP") != nullptr;
  std::vector<ShardedParams> out;
  for (int s = 0; s < seeds; ++s) {
    for (const std::uint32_t shards : {2u, 4u}) {
      for (const Method m : {Method::pb, Method::bb}) {
        for (const std::uint32_t r : {0u, 1u}) {
          for (const int mix : kMixes) {
            if (!full_mix_sweep && mix != kMixes[s % 3]) continue;
            out.push_back(ShardedParams{
                .seed = 2000 + static_cast<std::uint64_t>(s),
                .n_shards = shards, .method = m, .resilience = r,
                .mix_pct = mix});
          }
        }
      }
    }
  }
  return out;
}

class ShardedSweep : public ::testing::TestWithParam<ShardedParams> {};

TEST_P(ShardedSweep, OracleHoldsUnderNemesis) {
  const PropertyCase c = to_case(GetParam());
  const PropertyOutcome out = run_property_case(c);
  ASSERT_TRUE(out.formed) << out.report;
  ASSERT_TRUE(out.reset_ok) << out.report;
  EXPECT_TRUE(out.verdict.ok()) << out.report;
  EXPECT_TRUE(out.report.empty()) << out.report;
  // The nemesis must have actually interfered, or the sweep proves nothing.
  EXPECT_GT(out.injected, 0u);
  // And with a nonzero mix the cross-shard machinery must have been
  // exercised: rounds admitted and messages handed up.
  if (c.mix_pct > 0) {
    EXPECT_GT(out.xsends, 0u);
    EXPECT_GT(out.xdeliveries, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedSweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<ShardedParams>& ti) {
      const ShardedParams& p = ti.param;
      std::string sc = scenario_name(pick_scenario(p));
      std::ranges::replace(sc, '-', '_');
      return "seed" + std::to_string(p.seed) + "_s" +
             std::to_string(p.n_shards) +
             (p.method == Method::pb ? "_pb" : "_bb") + "_r" +
             std::to_string(p.resilience) + "_mix" +
             std::to_string(p.mix_pct) + "_" + sc;
    });

}  // namespace
}  // namespace amoeba::group::prop
