// Positive-acknowledgement broadcast: the strawman of Section 2.2.
//
// "If a process sends a broadcast message to a group, with say 256
// members, 255 acknowledgements will be sent back to the sender at
// approximately the same time. As network interfaces can only buffer a
// fixed number of messages, a number of the acknowledgements will be
// lost, leading to unnecessary timeouts and retransmissions."
//
// This module exists to demonstrate exactly that: a reliable sender-ordered
// broadcast where every receiver immediately unicasts an ack, with an
// optional randomized ack delay (the alternative the paper also discusses:
// it avoids the implosion but "causes far more acknowledgements to be
// sent... it just spreads the acknowledgement load out over time"). The
// ack-implosion bench measures duplicate-suppression work, retransmissions,
// and NIC drops against the group layer's negative-ack scheme.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "flip/stack.hpp"
#include "transport/runtime.hpp"

namespace amoeba::baselines {

struct PaConfig {
  /// 0 = ack immediately (implosion mode); otherwise each receiver delays
  /// its ack uniformly in [0, ack_spread).
  Duration ack_spread = Duration::zero();
};

struct PaStats {
  std::uint64_t sends{0};
  std::uint64_t sends_completed{0};
  std::uint64_t sends_failed{0};
  std::uint64_t acks_sent{0};
  std::uint64_t retransmissions{0};
  std::uint64_t delivered{0};
};

/// Closed-membership positive-ack broadcaster.
class PaMember {
 public:
  using DeliverCb = std::function<void(std::uint32_t sender, const Buffer&)>;
  using StatusCb = std::function<void(Status)>;

  PaMember(flip::FlipStack& flip, transport::Executor& exec,
           flip::Address my_address, flip::Address group,
           std::vector<flip::Address> ring, std::uint32_t index,
           PaConfig config, DeliverCb deliver, std::uint64_t seed = 1);
  ~PaMember();
  PaMember(const PaMember&) = delete;
  PaMember& operator=(const PaMember&) = delete;

  /// Broadcast; completes when every other member has acknowledged.
  void send(Buffer data, StatusCb done);

  const PaStats& stats() const { return stats_; }

 private:
  void on_group_packet(BufView bytes);
  void on_ack(flip::Address src, BufView bytes);
  void transmit(bool first);
  void on_timer();

  flip::FlipStack& flip_;
  transport::Executor& exec_;
  flip::Address my_addr_;
  flip::Address group_;
  std::vector<flip::Address> ring_;
  std::uint32_t index_;
  PaConfig cfg_;
  PaStats stats_;
  DeliverCb deliver_;
  Rng rng_;

  struct Outstanding {
    std::uint32_t seq{0};
    Buffer data;
    StatusCb done;
    std::set<std::uint32_t> awaiting;  // member indices yet to ack
    int attempts{0};
    transport::TimerId timer{transport::kInvalidTimer};
  };
  std::optional<Outstanding> out_;
  std::deque<std::pair<Buffer, StatusCb>> queue_;
  std::uint32_t next_seq_{1};

  /// Per-sender FIFO duplicate suppression: highest seq delivered.
  std::map<std::uint32_t, std::uint32_t> seen_;
};

}  // namespace amoeba::baselines
