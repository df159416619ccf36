#include "bench_common.hpp"

#include <cstdarg>
#include <cstring>

namespace amoeba::bench {

using group::GroupConfig;
using group::GroupMessage;
using group::MessageKind;
using group::Method;
using group::SimGroupHarness;
using group::SimProcess;

DelayResult measure_delay(std::size_t members, std::size_t bytes,
                          Method method, std::uint32_t resilience, int iters,
                          std::uint64_t seed) {
  GroupConfig cfg;
  cfg.method = method;
  cfg.resilience = resilience;
  SimGroupHarness h(members, cfg, sim::CostModel::mc68030_ether10(), seed);
  h.set_tracing(false);  // measurement runs: no event rings, no drains
  DelayResult out;
  if (!h.form_group()) return out;

  Histogram hist;
  int done = 0;
  Time start{};
  SimProcess& sender = h.process(1 % members);
  const group::MemberId my_id = sender.member().info().my_id;
  std::function<void()> send_one = [&h, &sender, &start, bytes, iters, &done,
                                    &send_one] {
    if (done >= iters) return;
    start = h.engine().now();
    sender.user_send(make_pattern_buffer(bytes), [](Status) {});
  };
  // The measurement endpoint is the user-level receipt of our own message
  // (the paper's SendToGroup/ReceiveFromGroup pair, Figure 2).
  sender.set_on_deliver([&, my_id](const GroupMessage& m) {
    if (m.kind == MessageKind::app && m.sender == my_id) {
      hist.add(h.engine().now() - start);
      ++done;
      send_one();
    }
  });
  send_one();
  h.run_until([&] { return done >= iters; }, Duration::seconds(600));

  out.iters = hist.count();
  out.ok = done >= iters;
  out.mean_us = hist.mean();
  out.p99_us = hist.percentile(99);
  return out;
}

ThroughputResult measure_throughput(std::size_t members, std::size_t bytes,
                                    Method method, std::uint32_t resilience,
                                    Duration sim_time, std::uint64_t seed,
                                    std::size_t history_size,
                                    ThroughputOptions opts) {
  GroupConfig cfg;
  cfg.method = method;
  cfg.resilience = resilience;
  cfg.batch_count = opts.batch_count;
  cfg.max_outstanding = opts.window;
  if (history_size != 0) cfg.history_size = history_size;
  SimGroupHarness h(members, cfg, sim::CostModel::mc68030_ether10(), seed);
  h.set_tracing(false);  // measurement runs: no event rings, no drains
  ThroughputResult out;
  if (!h.form_group()) return out;
  for (std::size_t p = 0; p < members; ++p) {
    h.process(p).set_keep_payloads(false);
  }

  std::uint64_t completed = 0;
  std::function<void(std::size_t)> loop = [&](std::size_t p) {
    h.process(p).user_send(make_pattern_buffer(bytes), [&, p](Status s) {
      if (s == Status::ok) ++completed;
      loop(p);  // closed loop: send again
    });
  };
  for (std::size_t p = 0; p < members; ++p) {
    // One chain per window slot keeps `window` sends in flight per member
    // (window 1 = the paper's blocking sender).
    for (int w = 0; w < opts.window; ++w) loop(p);
  }

  // Warm up 1 simulated second, then measure.
  h.run_until([] { return false; }, Duration::seconds(1));
  const std::uint64_t warm = completed;
  const Time t0 = h.engine().now();
  const Duration warm_util = h.world().segment().busy_time();
  h.run_until([] { return false; }, sim_time);
  const double secs = (h.engine().now() - t0).to_seconds();

  out.ok = true;
  out.msgs_per_sec = static_cast<double>(completed - warm) / secs;
  out.eth_utilization =
      (h.world().segment().busy_time() - warm_util).to_seconds() / secs;
  out.collisions = h.world().segment().collisions();
  for (std::size_t p = 0; p < members; ++p) {
    const auto& st = h.process(p).member().stats();
    out.history_stalls += st.history_stalls;
    out.retransmits += st.retransmits_served;
    out.batch_frames += st.batch_frames_emitted;
    out.batch_msgs += st.batch_messages_packed;
    out.nic_drops += h.world().node(p).nic().rx_dropped();
  }
  return out;
}

ThroughputResult measure_parallel_groups(std::size_t n_groups,
                                         std::size_t group_size,
                                         std::size_t bytes, Duration sim_time,
                                         std::uint64_t seed) {
  // All groups share one wire: one World, one process per node, one
  // GroupMember per process, k distinct group addresses.
  const std::size_t total = n_groups * group_size;
  sim::World world(total, sim::CostModel::mc68030_ether10(), seed);
  GroupConfig cfg;
  cfg.method = Method::pb;
  cfg.batch_count = 1;  // the paper's protocol: one multicast per message

  std::vector<std::unique_ptr<SimProcess>> procs;
  procs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    procs.push_back(std::make_unique<SimProcess>(
        world.node(i), flip::process_address(i + 1), cfg));
    procs.back()->set_keep_payloads(false);
  }

  ThroughputResult out;
  // Form each group: member g*size is its creator/sequencer; the others
  // join one after another.
  std::size_t formed = 0;
  std::function<void(std::size_t, std::size_t)> join_next =
      [&](std::size_t g, std::size_t i) {
        if (i >= group_size) return;
        procs[g * group_size + i]->member().join_group(
            flip::group_address(0x9000 + g), [&, g, i](Status s) {
              if (s == Status::ok) ++formed;
              join_next(g, i + 1);
            });
      };
  for (std::size_t g = 0; g < n_groups; ++g) {
    procs[g * group_size]->member().create_group(
        flip::group_address(0x9000 + g), [&formed](Status s) {
          if (s == Status::ok) ++formed;
        });
    join_next(g, 1);
  }
  const Time deadline = world.now() + Duration::seconds(60);
  while (formed < total && world.now() < deadline &&
         world.engine().pending() > 0) {
    world.engine().run_steps(64);
  }
  if (formed < total) return out;

  std::uint64_t completed = 0;
  std::function<void(std::size_t)> loop = [&](std::size_t i) {
    procs[i]->user_send(make_pattern_buffer(bytes), [&, i](Status s) {
      if (s == Status::ok) ++completed;
      loop(i);
    });
  };
  for (std::size_t i = 0; i < total; ++i) loop(i);

  world.run_for(Duration::seconds(1));  // warm-up
  const std::uint64_t warm = completed;
  const Time t0 = world.now();
  const Duration warm_util = world.segment().busy_time();
  world.run_for(sim_time);
  const double secs = (world.now() - t0).to_seconds();

  out.ok = true;
  out.msgs_per_sec = static_cast<double>(completed - warm) / secs;
  out.eth_utilization =
      (world.segment().busy_time() - warm_util).to_seconds() / secs;
  out.collisions = world.segment().collisions();
  for (std::size_t i = 0; i < total; ++i) {
    out.nic_drops += world.node(i).nic().rx_dropped();
    out.history_stalls += procs[i]->member().stats().history_stalls;
  }
  return out;
}

void print_header(const char* title, const char* paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Testbed model: 20-MHz MC68030s, 10 Mbit/s Ethernet, Lance\n");
  std::printf("NIC (32-frame ring), 128-message history (Table 3 costs).\n");
  std::printf("==========================================================\n");
}

void print_series_header(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("  ------------");
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%14s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string fmt(const char* format, ...) {
  char buf[128];
  std::va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

}  // namespace amoeba::bench
