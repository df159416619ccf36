// Psync-style causal multicast with a library total-order primitive — the
// Section 6 comparator for *distributed* (sequencer-less) total ordering.
//
// "In Psync a group consists of a fixed number of processes and is
// closed. Messages are causally ordered. A library routine provides a
// primitive for total ordering. This primitive is implemented using a
// single causal message, but members cannot deliver a message immediately
// when it arrives. Instead, a number of messages from other members
// (i.e., at most one from each member) must be received before the total
// order can be established."
//
// This implementation follows that description with the classic Lamport
// construction:
//   - every message carries (lamport_time, sender, per-sender seq);
//     per-sender FIFO plus lamport stamps give causal order;
//   - TOTAL order: message m is deliverable once, from EVERY other
//     member, a message with lamport time > t(m) has been seen — then no
//     earlier-stamped message can still arrive, and pending messages
//     deliver in (time, sender) order;
//   - idle members would stall everyone, so members emit null messages
//     (heartbeats) when they have been silent — the inherent cost of the
//     distributed approach that Section 2.2 argues against ("distributed
//     protocols for total ordering are more complex, and often perform
//     worse").
//
// Reliability is per-sender: receivers detect per-sender sequence gaps
// and NACK the *sender* (history is distributed — every member keeps its
// own out-messages, there is no central history buffer).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "flip/stack.hpp"
#include "transport/runtime.hpp"

namespace amoeba::baselines {

struct PsyncStats {
  std::uint64_t sends{0};
  std::uint64_t delivered{0};
  std::uint64_t heartbeats{0};
  std::uint64_t nacks{0};
  std::uint64_t retransmissions{0};
};

class PsyncMember {
 public:
  struct Delivery {
    std::uint64_t lamport{0};
    std::uint32_t sender{0};
    Buffer data;
  };
  using DeliverCb = std::function<void(const Delivery&)>;

  PsyncMember(flip::FlipStack& flip, transport::Executor& exec,
              flip::Address my_address, flip::Address group,
              std::vector<flip::Address> ring, std::uint32_t index,
              DeliverCb deliver);
  ~PsyncMember();
  PsyncMember(const PsyncMember&) = delete;
  PsyncMember& operator=(const PsyncMember&) = delete;

  /// Totally-ordered broadcast. There is no accept round trip — the send
  /// is "done" immediately (one causal message, as the paper says); the
  /// *delivery* is what waits for a message from every other member.
  void send(Buffer data);

  const PsyncStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint64_t lamport{0};
    std::uint32_t sender{0};
    Buffer data;
    bool is_null{false};
  };

  void broadcast(std::uint32_t seq, std::uint64_t lamport, bool is_null,
                 const Buffer& data);
  void on_packet(BufView bytes);
  void try_deliver();
  void arm_heartbeat();
  void arm_nack(std::uint32_t sender);

  flip::FlipStack& flip_;
  transport::Executor& exec_;
  flip::Address my_addr_;
  flip::Address group_;
  std::vector<flip::Address> ring_;
  std::uint32_t index_;
  PsyncStats stats_;
  DeliverCb deliver_;

  std::uint64_t lamport_{0};
  std::uint32_t next_out_seq_{0};
  /// Our own sent messages, for per-sender retransmission service.
  std::deque<std::pair<std::uint64_t /*lamport*/, Buffer>> out_history_;
  std::uint32_t out_hist_base_{0};
  std::vector<bool> out_is_null_;

  /// Per-sender receive state: next expected seq, buffered out-of-order.
  struct PeerState {
    std::uint32_t next_seq{0};
    std::map<std::uint32_t, Pending> ooo;
    /// Highest lamport seen from this peer (stability predicate input).
    std::uint64_t max_lamport{0};
    transport::TimerId nack_timer{transport::kInvalidTimer};
  };
  std::vector<PeerState> peers_;

  /// Causally-received, not yet totally-ordered messages, in delivery
  /// order: keyed by (lamport, sender), unique because a sender's stamps
  /// strictly increase.
  std::map<std::pair<std::uint64_t, std::uint32_t>, Pending> pending_;
  transport::TimerId heartbeat_timer_{transport::kInvalidTimer};
};

}  // namespace amoeba::baselines
