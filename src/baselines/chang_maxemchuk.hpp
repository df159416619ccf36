// Chang–Maxemchuk reliable broadcast (ACM TOCS 1984), the paper's main
// related-work comparator (Section 6).
//
// A rotating *token site* orders messages: a sender broadcasts its message;
// the current token site broadcasts an acknowledgement that assigns the
// global timestamp and simultaneously passes the token to the next site in
// the ring. The Amoeba paper's comparison points, which the cm bench
// measures on the same simulated testbed:
//   - CM uses 2–3 messages per broadcast (data + ack, plus an occasional
//     token-transfer confirmation) vs Amoeba's 2;
//   - CM broadcasts everything, so each broadcast interrupts every node at
//     least twice: >= 2(n-1) interrupts vs Amoeba's n (PB method);
//   - the token site rotates, which spreads load but adds latency when the
//     incoming site is missing messages.
//
// This implementation covers the non-fault-tolerant variant (the paper
// compares against "their protocol that is not fault tolerant"), with
// negative-acknowledgement recovery from the token site's history.
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

struct CmStats {
  std::uint64_t sends{0};
  std::uint64_t sends_completed{0};
  std::uint64_t delivered{0};
  std::uint64_t acks_broadcast{0};
  std::uint64_t token_transfers{0};
  std::uint64_t token_confirms{0};  // the "extra control message"
  std::uint64_t nacks{0};
  std::uint64_t retransmissions{0};
};

/// One member of a closed CM broadcast group. Membership is fixed at
/// construction (the original protocol has no dynamic membership).
class CmMember {
 public:
  struct Delivery {
    std::uint32_t timestamp{0};
    std::uint32_t sender{0};
    std::uint32_t local_id{0};  // sender-local id (duplicate suppression)
    Buffer data;
  };
  using DeliverCb = std::function<void(const Delivery&)>;
  using StatusCb = std::function<void(Status)>;

  /// `index` is this member's position in `ring` (all members' addresses,
  /// identical at every member). Member 0 starts with the token.
  CmMember(flip::FlipStack& flip, transport::Executor& exec,
           flip::Address my_address, flip::Address group,
           std::vector<flip::Address> ring, std::uint32_t index,
           DeliverCb deliver);
  ~CmMember();
  CmMember(const CmMember&) = delete;
  CmMember& operator=(const CmMember&) = delete;

  /// Reliable totally-ordered broadcast; completes when the token site has
  /// acknowledged (the message is ordered and recoverable).
  void send(Buffer data, StatusCb done);

  bool holds_token() const { return token_holder_ == index_; }
  const CmStats& stats() const { return stats_; }

 private:
  struct PendingSend {
    std::uint32_t local_id{0};
    Buffer data;
    StatusCb done;
    int attempts{0};
    transport::TimerId timer{transport::kInvalidTimer};
  };
  struct Slot {
    std::uint32_t sender{0};
    std::uint32_t local_id{0};
    Buffer data;
    bool have_data{false};
    bool acked{false};
  };

  void on_packet(BufView bytes);
  void transmit_pending();
  void try_ack_as_token_site();
  void broadcast_ack(std::uint32_t ts, std::uint32_t sender,
                     std::uint32_t local_id);
  void arm_ack_retry();
  void maybe_confirm_token();
  void drain();
  void schedule_nack();
  void fire_nack();
  void broadcast(Buffer pkt, std::size_t payload_bytes);

  flip::FlipStack& flip_;
  transport::Executor& exec_;
  flip::Address my_addr_;
  flip::Address group_;
  std::vector<flip::Address> ring_;
  std::uint32_t index_;
  CmStats stats_;
  DeliverCb deliver_;

  std::uint32_t token_holder_{0};
  std::uint32_t next_ts_{0};       // next timestamp the token site assigns
  std::uint32_t next_deliver_{0};  // next timestamp to deliver locally
  bool token_confirmed_{true};     // token site is known up to date

  std::optional<PendingSend> out_;
  std::deque<std::pair<Buffer, StatusCb>> queue_;
  std::uint32_t next_local_id_{1};

  /// Data waiting for its ack: (sender, local_id) -> payload.
  std::map<std::pair<std::uint32_t, std::uint32_t>, Buffer> unordered_;
  /// Ordered but undelivered timestamps.
  std::map<std::uint32_t, Slot> slots_;
  /// Delivered history for retransmission service (ring, token sites keep
  /// serving what they saw).
  std::deque<Delivery> history_;
  std::uint32_t hist_base_{0};

  /// Per-sender duplicate suppression: latest (local_id, timestamp) this
  /// member saw ordered. Senders have one message outstanding, so one
  /// entry per sender suffices.
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>> ordered_;

  /// Ack-retry state at the most recent acker: if the token never moves
  /// on (the ack broadcast was lost), rebroadcast it a few times.
  std::optional<std::uint32_t> my_last_ack_ts_;
  int ack_retries_{0};
  transport::TimerId ack_retry_timer_{transport::kInvalidTimer};

  transport::TimerId nack_timer_{transport::kInvalidTimer};
};

}  // namespace amoeba::baselines
