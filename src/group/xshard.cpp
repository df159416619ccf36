// GroupMember: the sequencer's half of genuine cross-shard atomic multicast.
//
// A message addressed to k shards is coordinated by its origin Node with
// Skeen's max-timestamp agreement (the algorithm behind ISIS abcast and the
// FlexCast / Generic Multicast line of work):
//
//   1. The node unicasts xshard_send to each addressed shard's sequencer.
//   2. Each sequencer proposes a timestamp from its monotone shard clock
//      (xshard_propose) and parks the message as *pending*.
//   3. The node takes the max of all proposals and unicasts xshard_commit
//      (which carries the payload again, so a commit retried at a rebuilt
//      sequencer is self-contained).
//   4. Each sequencer releases committed messages in (final_ts, xid) order,
//      injecting each as a MessageKind::xshard entry of its ordinary total
//      order — from that point on, followers, resilience, NACK/retransmit
//      and recovery treat it like any other stream message.
//
// Genuineness: only the addressed shards' sequencers ever see the xid; a
// shard outside the mask does no work at all (no wire traffic, no state).
//
// Why the release rule is safe: a shard may inject a committed message m
// (final T) only when (a) m is minimal among its committed pendings by
// (final, xid), and (b) no still-uncommitted pending m' has (proposed',
// xid') < (T, xid) — since final' >= proposed', any such m' might yet
// commit below m and would then have to precede it everywhere. Two shards
// that both deliver two messages therefore deliver them in the same
// relative order: both order by the same global (final, xid) key.
//
// Failure handling. The pending table belongs to the sequencer's regime,
// so a sequencer that takes the role by hand-off or ResetGroup starts
// with an empty one — a ResetGroup it coordinates itself included. Two
// mechanisms repair it:
//   - a commit for an unknown xid re-enters directly as a committed
//     pending (the commit carries everything needed), and the shard clock
//     advances to max(clock, final) so later proposals sort after it;
//   - a *quarantine* window (kXShardRetry * 4) opened by every regime not
//     created by CreateGroup (seq_take_role) holds all releases while
//     accepting sends and commits, so the origins' retry cadence
//     repopulates the table before any ordering decision is taken. Without
//     it, a pre-reset commit racing a fully post-reset round could release
//     out of (final, xid) order.
// Uncommitted pendings whose origin has evidently died (no commit after
// kXShardRetry * xshard_retries * 2) are expired so they cannot block the
// shard forever; docs/PROTOCOL.md discusses the residual window this
// leaves under partitions longer than the quarantine.
#include <tuple>

#include "group/member.hpp"
#include "group/trace_events.hpp"

namespace amoeba::group {

namespace {
/// Injected-xid memory: how many released xids we remember so a straggling
/// duplicate commit is recognized instead of re-entering the pending table.
constexpr std::size_t kXReleasedMemory = 4096;
}  // namespace

void GroupMember::seq_on_xshard_send(const WireMsg& m) {
  XShardSend x;
  if (!decode_xshard_send_payload(m.payload, x)) return;
  if ((x.mask & (1u << group_tag_)) == 0) return;  // not for this shard
  if (xreleased_.count(x.xid) != 0) return;  // already in the stream
  auto [it, inserted] = seq_->xpending.try_emplace(x.xid);
  XPending& p = it->second;
  if (inserted) {
    p.xid = x.xid;
    p.proposed = ++xclock_;
    p.mask = x.mask;
    p.created = exec_.now();
    ++stats_.xshard_proposals;
    GTRACE(xpropose, .seq = static_cast<SeqNum>(p.proposed), .msg_id = x.mask,
           .a = x.xid);
  }
  p.reply_to = m.addr;  // refresh: the origin's endpoint for our reply
  if (p.committed) return;  // stale duplicate; the origin has moved on
  WireMsg rep;
  rep.type = WireType::xshard_propose;
  rep.incarnation = inc_;
  rep.sender = kInvalidMember;  // not a member's delivery horizon
  XShardPropose pr;
  pr.xid = p.xid;
  pr.shard = group_tag_;
  pr.ts = p.proposed;
  flip_.send(m.addr, my_addr_, encode_xshard_propose_wire(rep, pr));
}

void GroupMember::seq_on_xshard_commit(const WireMsg& m) {
  XShardCommit x;
  if (!decode_xshard_commit_payload(m.payload, x)) return;
  if ((x.mask & (1u << group_tag_)) == 0) return;
  ++stats_.xshard_commits;
  if (xreleased_.count(x.xid) != 0) return;  // duplicate after injection
  auto [it, inserted] = seq_->xpending.try_emplace(x.xid);
  XPending& p = it->second;
  if (inserted) {
    // Unknown xid: our predecessor held the proposal and lost it with the
    // role. The commit is self-contained, so re-enter as committed.
    p.xid = x.xid;
    p.created = exec_.now();
  }
  if (!p.committed) {
    p.committed = true;
    p.final_ts = x.final_ts;
    p.mask = x.mask;
    // Keep the whole commit payload: it is byte-for-byte what we inject
    // into the stream, and what the Node layer decodes on delivery.
    p.payload = m.payload;
    if (x.final_ts > xclock_) xclock_ = x.final_ts;
    GTRACE(xcommit, .seq = static_cast<SeqNum>(x.final_ts), .msg_id = x.mask,
           .a = x.xid);
  }
  xshard_try_release();
}

void GroupMember::xshard_try_release() {
  if (!cross_shard_ || !i_am_sequencer()) return;
  const Time now = exec_.now();
  if (now < seq_->xquarantine_until) {
    // Role freshly acquired: hold ordering decisions until origin retries
    // have had time to repopulate the pending table.
    xshard_schedule_release();
    return;
  }
  // Expire uncommitted proposals whose origin has evidently given up (it
  // would have retried the send or delivered the commit long ago).
  const Duration expiry =
      kXShardRetry * static_cast<std::int64_t>(cfg_.xshard_retries) * 2;
  for (auto it = seq_->xpending.begin(); it != seq_->xpending.end();) {
    if (!it->second.committed && now - it->second.created > expiry) {
      ++stats_.xshard_expired;
      it = seq_->xpending.erase(it);
    } else {
      ++it;
    }
  }
  bool progress = true;
  while (progress) {
    progress = false;
    // The committed pending minimal by the global (final_ts, xid) key.
    XPending* best = nullptr;
    for (auto& [xid, p] : seq_->xpending) {
      if (!p.committed) continue;
      if (best == nullptr || std::tie(p.final_ts, p.xid) <
                                 std::tie(best->final_ts, best->xid)) {
        best = &p;
      }
    }
    if (best == nullptr) return;  // nothing committed; commits re-trigger us
    // Any uncommitted pending below the key may yet commit below it
    // (final' >= proposed'), so it would have to precede `best` everywhere.
    for (const auto& [xid, p] : seq_->xpending) {
      if (p.committed) continue;
      if (std::tie(p.proposed, p.xid) <
          std::tie(best->final_ts, best->xid)) {
        xshard_schedule_release();  // re-check after the retry cadence
        return;
      }
    }
    // Inject into the ordinary total order. Non-app kinds bypass the
    // capacity/draining refusals and flush immediately, so this always
    // succeeds; msg_id 0 never collides with app completions (ids start
    // at 1).
    const std::uint64_t xid = best->xid;
    const BufView payload = best->payload;
    xreleased_.insert(xid);
    xreleased_fifo_.push_back(xid);
    while (xreleased_fifo_.size() > kXReleasedMemory) {
      xreleased_.erase(xreleased_fifo_.front());
      xreleased_fifo_.pop_front();
    }
    seq_->xpending.erase(xid);
    ++stats_.xshard_injected;
    seq_assign(my_id_, 0, MessageKind::xshard, payload, false);
    progress = true;  // the next-smallest committed may now be releasable
  }
}

void GroupMember::xshard_schedule_release() {
  if (xrelease_timer_ != transport::kInvalidTimer) return;
  xrelease_timer_ = exec_.set_timer(kXShardRetry, [this] {
    xrelease_timer_ = transport::kInvalidTimer;
    xshard_try_release();
  });
}

}  // namespace amoeba::group
