#include "sim/cost_model.hpp"

namespace amoeba::sim {

CostModel CostModel::free() {
  CostModel m;
  m.wire_us_per_byte = 0.0008;  // 10 Gbit/s: effectively instant
  m.wire_frame_overhead = Duration::nanos(100);
  m.eth_tx = Duration::zero();
  m.eth_rx = Duration::zero();
  m.flip_packet = Duration::zero();
  m.group_send = Duration::zero();
  m.group_order = Duration::zero();
  m.group_emit = Duration::zero();
  m.group_unpack = Duration::zero();
  m.group_deliver = Duration::zero();
  m.group_per_member = Duration::zero();
  m.group_ack = Duration::zero();
  m.rpc_client = Duration::zero();
  m.rpc_server = Duration::zero();
  m.user_send = Duration::zero();
  m.user_deliver = Duration::zero();
  m.ctx_switch = Duration::zero();
  m.copy_us_per_byte = 0.0;
  return m;
}

}  // namespace amoeba::sim
