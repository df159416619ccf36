// Figure 6: Aggregate throughput of disjoint groups sharing one Ethernet.
//
// Paper anchors: groups of 2/4/8 members running in parallel; maximum
// 3175 broadcasts/s with 5 groups of 2 (~736,600 bytes/s of 116-byte
// frames, 61% Ethernet utilization); adding more groups DROPS throughput
// because CSMA/CD collisions between uncoordinated senders waste the wire.
// Extension (beyond the paper): the same parallel-group testbed hosted as
// shards of one Node per process, with a fraction of sends upgraded to
// genuine cross-shard atomic multicasts (Skeen-style max-timestamp
// agreement between the addressed shards' sequencers). Non-addressed
// shards do zero work for a cross-shard round, so a background stream
// pinned to untouched shards must keep its throughput as the mix grows.
// Every delivery of every shard pays the same user-level receive cost
// (wake-up, copy-out, syscall return) as the Fig. 6 rows above it.
#include "bench_common.hpp"

#include "group/sim_harness.hpp"

namespace {

struct MixResult {
  double mix_msgs_per_sec{0};  // mixed stream: local + cross completions
  double bg_msgs_per_sec{0};   // background stream on non-addressed shards
  std::uint64_t xsends{0};     // cross-shard rounds admitted
  bool ok{false};
};

/// 4 processes x 4 shards on one Ethernet. Each process drives two
/// windowed streams: a "mix" stream to shards {0,1} where `mix_pct`% of
/// sends are 2-shard atomic multicasts (mask 0b0011), and a background
/// stream alternating shards {2,3} that no cross-shard round ever
/// addresses. Reported rates are completed sends per simulated second.
MixResult measure_cross_mix(int mix_pct, amoeba::Duration sim_time) {
  using namespace amoeba;
  using namespace amoeba::group;
  constexpr std::size_t kProcs = 4;
  constexpr int kWindow = 4;

  GroupConfig cfg;
  SimGroupHarness h(kProcs, cfg, sim::CostModel::mc68030_ether10(), 1, 4);
  h.set_tracing(false);
  MixResult out;
  if (!h.form_group()) return out;

  const Time t_end = h.engine().now() + sim_time;
  std::uint64_t done_mix = 0, done_bg = 0;
  int outstanding = 0;
  std::array<int, kProcs> mix_n{};  // per-process mix-stream send counter
  std::array<int, kProcs> bg_n{};

  std::function<void(std::size_t)> pump_mix = [&](std::size_t i) {
    if (h.engine().now() >= t_end) return;
    const int n = mix_n[i]++;
    const bool cross =
        mix_pct > 0 && ((n + 1) * mix_pct) / 100 > (n * mix_pct) / 100;
    Buffer b(4);
    b[0] = static_cast<std::uint8_t>(i);
    ++outstanding;
    const auto cb = [&, i](Status s) {
      --outstanding;
      if (s == Status::ok) ++done_mix;
      pump_mix(i);
    };
    if (cross) {
      h.process(i).node().send_multi(0b0011u, std::move(b), cb);
    } else {
      h.process(i).node().send_to_shard(static_cast<std::uint32_t>(n) % 2,
                                        std::move(b), cb);
    }
  };
  std::function<void(std::size_t)> pump_bg = [&](std::size_t i) {
    if (h.engine().now() >= t_end) return;
    Buffer b(4);
    b[0] = static_cast<std::uint8_t>(i);
    ++outstanding;
    h.process(i).node().send_to_shard(
        2 + static_cast<std::uint32_t>(bg_n[i]++) % 2, std::move(b),
        [&, i](Status s) {
          --outstanding;
          if (s == Status::ok) ++done_bg;
          pump_bg(i);
        });
  };
  for (std::size_t i = 0; i < kProcs; ++i) {
    for (int w = 0; w < kWindow; ++w) {
      pump_mix(i);
      pump_bg(i);
    }
  }
  h.run_until([&] { return h.engine().now() >= t_end && outstanding == 0; },
              sim_time + Duration::seconds(30));
  if (outstanding != 0) return out;

  const double secs = sim_time.to_seconds();
  out.mix_msgs_per_sec = static_cast<double>(done_mix) / secs;
  out.bg_msgs_per_sec = static_cast<double>(done_bg) / secs;
  for (std::size_t i = 0; i < kProcs; ++i) {
    out.xsends += h.process(i).node().stats().xsends.load();
  }
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  using namespace amoeba;
  using namespace amoeba::bench;

  print_header("Figure 6: disjoint parallel groups, PB method, 0-byte",
               "Fig. 6 (aggregate msg/s vs #groups for sizes 2/4/8)");

  const std::size_t group_sizes[] = {2, 4, 8};
  const std::size_t group_counts[] = {1, 2, 3, 4, 5, 6, 7};

  print_series_header({"groups", "2 members", "4 members", "8 members",
                       "util% (2)", "colls (2)"});
  for (const std::size_t k : group_counts) {
    std::vector<std::string> row{fmt("%zu", k)};
    ThroughputResult size2{};
    for (const std::size_t size : group_sizes) {
      if (size == 8 && k > 4) {
        // The paper: "We did not have enough machines available to measure
        // the throughput with more groups with 8 members" (30 machines).
        row.push_back("n/a");
        continue;
      }
      // Long window: heavy CSMA/CD contention makes short runs noisy.
      const auto r = measure_parallel_groups(k, size, 0, Duration::seconds(8));
      if (size == 2) size2 = r;
      row.push_back(r.ok ? fmt("%.0f", r.msgs_per_sec) : "FAIL");
    }
    row.push_back(fmt("%.0f", size2.eth_utilization * 100));
    row.push_back(fmt("%llu", (unsigned long long)size2.collisions));
    print_row(row);
  }
  std::printf(
      "\nPaper: peak 3175 msg/s at 5 groups of 2 (61%% utilization); more\n"
      "groups lose throughput to Ethernet collisions. Groups of 8 perform\n"
      "poorly for the same reason.\n");

  print_header(
      "Extension: sharded Node, cross-shard atomic multicast mix",
      "beyond the paper (4 procs x 4 shards; cross rounds address s0+s1)");
  print_series_header(
      {"mix%", "mixed msg/s", "bg msg/s (s2/s3)", "x rounds"});
  double bg_at_zero = 0;
  for (const int mix : {0, 1, 10, 50}) {
    const MixResult r = measure_cross_mix(mix, Duration::seconds(4));
    if (mix == 0) bg_at_zero = r.bg_msgs_per_sec;
    print_row({fmt("%d", mix),
               r.ok ? fmt("%.0f", r.mix_msgs_per_sec) : "FAIL",
               r.ok ? fmt("%.0f", r.bg_msgs_per_sec) : "FAIL",
               fmt("%llu", (unsigned long long)r.xsends)});
  }
  std::printf(
      "\nCross-shard rounds cost two sequencer round-trips (propose, then\n"
      "commit at the max timestamp), so the mixed stream slows as the mix\n"
      "grows; the background shards are never addressed and their rate\n"
      "stays within noise of the 0%% row (%.0f msg/s) — non-addressed\n"
      "shards do zero work for a cross-shard round.\n",
      bg_at_zero);
  return 0;
}
