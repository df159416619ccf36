// Table 3 / Figure 2: cost breakdown of one 0-byte SendToGroup /
// ReceiveFromGroup pair, group of 2, PB method.
//
// Paper: total 2740 us on the critical path, of which the group protocol
// itself is 740 us; "most of the time spent in user space is the context
// switch between the receiving and sending thread"; the Ethernet time is
// wire + driver + interrupt.
//
// The per-layer budget below is the calibrated cost model itself (it IS
// our reproduction of Table 3); the measured end-to-end figure at the
// bottom comes from running the actual protocol on the simulator and
// should equal the budget to within scheduling noise.
#include "bench_common.hpp"
#include "flip/wire.hpp"
#include "sim/cost_model.hpp"

int main() {
  using namespace amoeba;
  using namespace amoeba::bench;

  print_header("Table 3 / Figure 2: layer breakdown, 0-byte send, group=2",
               "Table 3 (critical-path time per layer) and Figure 2");

  const sim::CostModel c = sim::CostModel::mc68030_ether10();
  const double wire = c.wire_time(flip::kTotalHeaderBytes).to_micros();

  struct RowSpec {
    const char* layer;
    const char* events;
    double us;
  };
  const double user = c.user_send.to_micros() + c.ctx_switch.to_micros() +
                      c.user_deliver.to_micros();
  const double grp = c.group_send.to_micros() + c.group_sequence().to_micros() +
                     2 * c.group_per_member.to_micros() +
                     c.group_deliver.to_micros();
  const double flp = 4 * c.flip_packet.to_micros();
  const double eth = 2 * (c.eth_tx.to_micros() + wire + c.eth_rx.to_micros());

  const RowSpec rows[] = {
      {"User", "U1 (syscall) + U3 (ctx switch + receive)", user},
      {"Group", "G1 (send) + G2 (sequence) + G3 (deliver)", grp},
      {"FLIP", "F1 + F2a + F2b + F3", flp},
      {"Ethernet", "E1 + E2a + E2b + E3 (wire+driver+intr)", eth},
  };

  std::printf("%-10s %-42s %10s\n", "Layer", "Critical-path events", "us");
  std::printf("%-10s %-42s %10s\n", "-----", "--------------------", "----");
  double total = 0;
  for (const auto& r : rows) {
    std::printf("%-10s %-42s %10.0f\n", r.layer, r.events, r.us);
    total += r.us;
  }
  std::printf("%-10s %-42s %10.0f\n", "Total", "", total);

  const auto measured = measure_delay(2, 0, group::Method::pb, 0, 500);
  std::printf("\nMeasured end-to-end (500 iterations): %.0f us (p99 %.0f)\n",
              measured.mean_us, measured.p99_us);
  std::printf(
      "Paper: total 2740 us; group protocol alone 740 us. Our group\n"
      "budget: G1=%.0f G2=%.0f G3=%.0f = %.0f us.\n",
      sim::CostModel().group_send.to_micros(),
      sim::CostModel().group_sequence().to_micros(),
      sim::CostModel().group_deliver.to_micros(),
      sim::CostModel().group_send.to_micros() +
          sim::CostModel().group_sequence().to_micros() +
          sim::CostModel().group_deliver.to_micros());
  return 0;
}
