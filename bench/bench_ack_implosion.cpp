// Section 2.2's argument for negative acknowledgements, demonstrated.
//
// A positive-ack broadcast makes every receiver answer at once: with a
// group of n, n-1 acks converge on the sender's NIC "at approximately the
// same time", overflow its receive ring, and the lost acks trigger
// "unnecessary timeouts and retransmissions". The randomized-delay
// variant avoids the implosion but sends the same (large) number of acks,
// just spread out. Amoeba's negative-ack scheme sends nothing unless a
// message is actually missed.
#include "baselines/positive_ack.hpp"
#include "bench_common.hpp"
#include "transport/sim_runtime.hpp"

namespace {

using namespace amoeba;

struct PaRun {
  double msgs_per_sec{0};
  std::uint64_t acks{0};
  std::uint64_t retransmissions{0};
  std::uint64_t nic_drops{0};
  bool ok{false};
};

PaRun run_pa(std::size_t members, Duration ack_spread, int rx_ring,
             Duration sim_time = Duration::seconds(3)) {
  sim::CostModel model = sim::CostModel::mc68030_ether10();
  model.nic_rx_ring_frames = rx_ring;
  sim::World world(members, model);
  struct Proc {
    transport::SimExecutor exec;
    transport::SimDevice dev;
    flip::FlipStack flip;
    std::unique_ptr<baselines::PaMember> member;
    explicit Proc(sim::Node& n) : exec(n), dev(n), flip(exec, dev) {}
  };
  std::vector<flip::Address> ring;
  for (std::size_t i = 0; i < members; ++i) {
    ring.push_back(flip::process_address(i + 1));
  }
  baselines::PaConfig cfg;
  cfg.ack_spread = ack_spread;
  std::vector<std::unique_ptr<Proc>> procs;
  for (std::size_t i = 0; i < members; ++i) {
    auto p = std::make_unique<Proc>(world.node(i));
    p->member = std::make_unique<baselines::PaMember>(
        p->flip, p->exec, ring[i], flip::group_address(0xAB), ring,
        static_cast<std::uint32_t>(i), cfg,
        [](std::uint32_t, const Buffer&) {});
    procs.push_back(std::move(p));
  }

  std::uint64_t completed = 0;
  std::function<void()> loop = [&procs, &completed, &loop] {
    procs[0]->member->send(Buffer{}, [&completed, &loop](Status s) {
      if (s == Status::ok) ++completed;
      loop();
    });
  };
  loop();

  const Time t0 = world.now();
  world.run_for(sim_time);
  PaRun out;
  out.ok = true;
  out.msgs_per_sec = static_cast<double>(completed) /
                     (world.now() - t0).to_seconds();
  for (std::size_t i = 0; i < members; ++i) {
    out.acks += procs[i]->member->stats().acks_sent;
  }
  out.retransmissions = procs[0]->member->stats().retransmissions;
  out.nic_drops = world.node(0).nic().rx_dropped();
  return out;
}

}  // namespace

int main() {
  using namespace amoeba::bench;

  print_header("Ack implosion: positive acks vs the NACK scheme",
               "Section 2.2 (why Amoeba uses negative acknowledgements)");

  std::printf("Positive acks, immediate (implosion mode), sender ring = 32:\n");
  print_series_header({"members", "msg/s", "acks", "retrans", "NIC drops"});
  for (const std::size_t n : {std::size_t{4}, std::size_t{8}, std::size_t{16}, std::size_t{24}, std::size_t{30}}) {
    const PaRun r = run_pa(n, Duration::zero(), 32);
    print_row({fmt("%zu", n), fmt("%.0f", r.msgs_per_sec),
               fmt("%llu", (unsigned long long)r.acks),
               fmt("%llu", (unsigned long long)r.retransmissions),
               fmt("%llu", (unsigned long long)r.nic_drops)});
  }

  std::printf("\nSame, with a small (8-frame) sender ring — the paper's\n"
              "256-member thought experiment scaled to our 30 machines:\n");
  print_series_header({"members", "msg/s", "retrans", "NIC drops"});
  for (const std::size_t n : {std::size_t{8}, std::size_t{16}, std::size_t{24}, std::size_t{30}}) {
    const PaRun r = run_pa(n, Duration::zero(), 8);
    print_row({fmt("%zu", n), fmt("%.0f", r.msgs_per_sec),
               fmt("%llu", (unsigned long long)r.retransmissions),
               fmt("%llu", (unsigned long long)r.nic_drops)});
  }

  std::printf("\nRandomized ack delay (spread 20 ms): no implosion, but the\n"
              "same ack load, \"just spread ... out over time\":\n");
  print_series_header({"members", "msg/s", "acks"});
  for (const std::size_t n : {std::size_t{8}, std::size_t{16}, std::size_t{30}}) {
    const PaRun r = run_pa(n, Duration::millis(20), 8);
    print_row({fmt("%zu", n), fmt("%.0f", r.msgs_per_sec),
               fmt("%llu", (unsigned long long)r.acks)});
  }

  std::printf("\nAmoeba's negative-ack group protocol on the same wire\n"
              "(one sender, for comparison — zero acks when nothing is\n"
              "lost):\n");
  print_series_header({"members", "msg/s", "nacks"});
  for (const std::size_t n : {std::size_t{8}, std::size_t{16}, std::size_t{30}}) {
    group::GroupConfig cfg;
    cfg.method = group::Method::pb;
    group::SimGroupHarness h(n, cfg);
    h.set_tracing(false);
    if (!h.form_group()) continue;
    std::uint64_t completed = 0;
    std::function<void()> loop = [&h, &completed, &loop] {
      h.process(1).user_send(Buffer{}, [&completed, &loop](Status s) {
        if (s == Status::ok) ++completed;
        loop();
      });
    };
    loop();
    const Time t0 = h.engine().now();
    h.run_until([] { return false; }, Duration::seconds(3));
    std::uint64_t nacks = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nacks += h.process(i).member().stats().nacks_sent;
    }
    print_row({fmt("%zu", n),
               fmt("%.0f", static_cast<double>(completed) /
                               (h.engine().now() - t0).to_seconds()),
               fmt("%llu", (unsigned long long)nacks)});
  }
  return 0;
}
