// Headline comparison (Sections 1 and 4): a reliable totally-ordered
// group send costs about the same as Amoeba's point-to-point RPC — in
// fact 0.1 ms LESS for the null payload ("the group communication is
// 0.1 msec faster than the RPC").
#include "bench_common.hpp"
#include "rpc/rpc.hpp"
#include "transport/sim_runtime.hpp"

namespace {

using namespace amoeba;

/// Null-RPC round trip, measured like the group delay: call -> reply
/// delivered back to the (blocked) client thread, context switch included.
double rpc_delay_us(std::size_t bytes, int iters) {
  sim::World world(2);
  transport::SimExecutor cex(world.node(0)), sex(world.node(1));
  transport::SimDevice cdev(world.node(0)), sdev(world.node(1));
  flip::FlipStack cflip(cex, cdev), sflip(sex, sdev);
  const auto ca = flip::process_address(1);
  const auto sa = flip::process_address(2);
  rpc::RpcEndpoint client(cflip, cex, ca);
  rpc::RpcEndpoint server(sflip, sex, sa);

  // Null reply: the comparison is "send n bytes reliably" — SendToGroup
  // moves n bytes one way, so the fair RPC counterpart is trans(n) -> ack.
  server.set_request_handler([&](const rpc::RpcEndpoint::Request& req) {
    server.reply(req, Buffer{});
  });

  Histogram hist;
  int done = 0;
  Time start{};
  std::function<void()> call_one = [&, bytes, iters] {
    if (done >= iters) return;
    // User level: syscall entry for trans().
    cex.post(cex.costs().user_send, [&, bytes] {
      start = world.now();
      client.call(sa, Buffer(bytes), [&](Result<Buffer> r) {
        if (!r.ok()) return;
        // Completion wakes the blocked client thread.
        cex.post(cex.costs().ctx_switch + cex.costs().user_deliver, [&] {
          hist.add(world.now() - start);
          ++done;
          call_one();
        });
      });
    });
  };
  call_one();
  const Time deadline = world.now() + Duration::seconds(300);
  while (done < iters && world.now() < deadline &&
         world.engine().pending() > 0) {
    world.engine().run_steps(64);
  }
  return hist.mean();
}

}  // namespace

int main() {
  using namespace amoeba::bench;

  print_header("Group send vs RPC (same substrate)",
               "Section 4: \"0.1 msec faster than the RPC\" at 0 bytes");

  print_series_header({"bytes", "RPC (ms)", "group n=2", "group n=30"});
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1024}, std::size_t{4096}, std::size_t{8000}}) {
    const double rpc = rpc_delay_us(bytes, 300);
    const auto g2 = measure_delay(2, bytes, amoeba::group::Method::dynamic,
                                  0, 200);
    const auto g30 = measure_delay(30, bytes, amoeba::group::Method::dynamic,
                                   0, 200);
    print_row({fmt("%zu", bytes), fmt("%.2f", rpc / 1000.0),
               fmt("%.2f", g2.mean_us / 1000.0),
               fmt("%.2f", g30.mean_us / 1000.0)});
  }
  std::printf(
      "\nPaper: null RPC 2.8 ms vs null group send 2.7 ms on the same\n"
      "hardware — a reliable broadcast to the whole group for the price\n"
      "of one point-to-point call (both are 2 packets + sequencer work).\n");
  return 0;
}
