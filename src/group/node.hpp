// A multi-group Node: one process hosting members of several groups
// ("shards") over one shared FLIP stack and executor, plus the origin side
// of genuine cross-shard atomic multicast.
//
// Sharding is the standard answer to the paper's central bottleneck: total
// order through one sequencer caps a group's throughput at what one CPU can
// stamp (Figures 5-6 measure exactly that ceiling). Partitioning the key
// space over independent groups multiplies the ceiling — but loses ordering
// across partitions. The Node restores it only where it is paid for: a
// message addressed to k shards is timestamped by each addressed shard's
// sequencer, the maximum wins (Skeen's algorithm), and every addressed
// shard delivers at a position consistent with its local total order.
// Shards outside the destination mask do zero work — the "genuineness"
// property that distinguishes this from ordering everything through one
// global group.
//
// Single-shard traffic takes the unmodified paper protocol: send_to_shard
// is a plain SendToGroup on that shard's member, with no coordination
// overhead whatsoever.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "check/trace.hpp"
#include "common/relaxed_counter.hpp"
#include "group/member.hpp"

namespace amoeba::group {

/// Aggregated cross-shard counters (per Node; per-shard protocol counters
/// live on each shard's GroupStats).
struct NodeStats {
  RelaxedCounter xsends;            // multi-shard sends admitted
  RelaxedCounter xsends_completed;  // completed ok (delivered everywhere)
  RelaxedCounter xsend_failures;    // timed out / failed
  RelaxedCounter xretries;          // propose/commit round retransmissions
  RelaxedCounter xdeliveries;       // cross-shard deliveries handed up
  RelaxedCounter xdup_dropped;      // duplicate xid deliveries suppressed
};

class Node {
 public:
  using StatusCb = GroupMember::StatusCb;

  /// Delivery callback: every message of every hosted shard, after the
  /// Node's unwrapping. For cross-shard messages `xid != 0`, `gm.kind ==
  /// MessageKind::xshard`, and `gm.data` is the user payload (the wire
  /// envelope is stripped); exactly one callback per (shard, xid) fires
  /// even when the underlying stream re-delivers after recovery.
  using DeliverFn = std::function<void(std::uint32_t shard,
                                       const GroupMessage& gm,
                                       std::uint64_t xid)>;

  /// `node_addr` is the Node's own unicast endpoint (timestamp proposals
  /// are addressed to it); `node_id` must be unique across Nodes — it is
  /// the high half of every xid this Node coins.
  Node(flip::FlipStack& flip, transport::Executor& exec,
       flip::Address node_addr, std::uint32_t node_id);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Largest send_multi payload: the group limit minus the cross-shard
  /// envelope the commit adds.
  static constexpr std::size_t kMaxMessage =
      GroupMember::kMaxMessage - kXShardCommitHeadBytes;

  /// Host a member of shard `tag` (0..31) listening on its own unicast
  /// endpoint `member_addr`. The member learns its tag from the Node and
  /// serves cross-shard traffic; the given callbacks see view/fault events
  /// (and non-xshard messages), while all deliveries also flow through the
  /// Node's DeliverFn. The origin side of every cross-shard round retries
  /// every kXShardRetry up to `cfg.xshard_retries` times, the budget each
  /// sequencer's proposal expiry derives from, so every hosted shard must
  /// carry the same value. Returns the member (owned by the Node) for
  /// create/join/leave calls.
  GroupMember& add_shard(std::uint32_t tag, flip::Address member_addr,
                         GroupConfig cfg, GroupMember::Callbacks cbs = {});
  GroupMember* shard(std::uint32_t tag);
  const GroupMember* shard(std::uint32_t tag) const;
  std::size_t shard_count() const { return shards_.size(); }

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  /// Ring for the Node's own events (xsend admissions/completions). The
  /// xpropose/xcommit/xdeliver events ride the shard members' rings.
  void set_trace_ring(check::TraceRing* ring) { trace_ring_ = ring; }

  /// Keyspace routing: which shard owns `key` (FNV-1a over the key, mod
  /// the hosted shard count). Stable for a fixed shard set.
  std::uint32_t route(std::span<const std::uint8_t> key) const;

  /// Single-shard send: the unmodified paper protocol, zero coordination.
  void send_to_shard(std::uint32_t tag, Buffer data, StatusCb done);

  /// Cross-shard atomic multicast to every shard in `mask` (bit i = shard
  /// tag i; all must be hosted here and running). Completes ok once the
  /// message is delivered by this Node's member in every addressed shard;
  /// delivery order is globally consistent across shards. A single-bit
  /// mask degrades to send_to_shard. With two or more shards addressed, a
  /// payload over kMaxMessage fails at once with Status::overflow.
  void send_multi(std::uint32_t mask, Buffer data, StatusCb done);

  const NodeStats& stats() const { return stats_; }
  std::uint32_t node_id() const { return node_id_; }
  flip::Address address() const { return addr_; }

 private:
  struct Shard {
    std::uint32_t tag{0};
    std::unique_ptr<GroupMember> member;
    GroupMember::Callbacks user_cbs;
    /// Per-shard xid dedup (exactly-once up-delivery even when the stream
    /// re-delivers an injected entry after recovery). Bounded FIFO.
    std::set<std::uint64_t> seen_xids;
    std::deque<std::uint64_t> seen_fifo;
  };

  /// One in-flight cross-shard round (origin side).
  struct XRound {
    std::uint64_t xid{0};
    std::uint32_t mask{0};
    BufView data;  // user payload
    StatusCb done;
    enum class Phase { propose, commit } phase{Phase::propose};
    std::map<std::uint32_t, std::uint64_t> proposals;  // shard -> ts
    std::uint64_t final_ts{0};
    std::uint32_t delivered_mask{0};
    int attempts{0};  // within the current phase
    transport::TimerId timer{transport::kInvalidTimer};
  };

  void on_node_packet(flip::Address src, BufView bytes);
  void on_propose(const XShardPropose& p);
  void on_shard_message(Shard& sh, const GroupMessage& gm);
  void xmit_round(XRound& r);  // (re)send this phase's missing unicasts
  void round_timer(std::uint64_t xid);
  void begin_commit(XRound& r);
  void finish_round(XRound& r, Status s);
  /// Current sequencer address + incarnation of a hosted shard, refreshed
  /// from the local member each attempt (tracks hand-offs and resets).
  bool shard_target(std::uint32_t tag, flip::Address& out_addr,
                    Incarnation& out_inc) const;
  void note_xdeliver(Shard& sh, const GroupMessage& gm, std::uint64_t xid,
                     std::uint32_t mask);

  flip::FlipStack& flip_;
  transport::Executor& exec_;
  flip::Address addr_;
  std::uint32_t node_id_;
  int xshard_retries_{0};  // from the hosted shards' GroupConfig
  DeliverFn deliver_;
  check::TraceRing* trace_ring_{nullptr};
  NodeStats stats_;
  std::map<std::uint32_t, Shard> shards_;  // by tag
  std::map<std::uint64_t, XRound> rounds_;  // by xid
  std::uint32_t next_xid_{1};
};

}  // namespace amoeba::group
