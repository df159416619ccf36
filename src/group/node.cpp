// Node: multi-group hosting and the origin side of cross-shard multicast.
//
// The origin drives one round per multi-shard message:
//
//   propose phase:  unicast xshard_send to every addressed shard's
//                   sequencer; collect xshard_propose replies until every
//                   addressed shard has proposed.
//   commit phase:   final = max(proposals); unicast xshard_commit (carrying
//                   the payload) to every addressed sequencer; the round
//                   completes when our local member in every addressed
//                   shard delivers the injected entry.
//
// Both phases retry on a fixed cadence (kXShardRetry) with a bounded budget
// (the hosted shards' GroupConfig::xshard_retries); each
// retransmission refreshes the target sequencer address and incarnation
// from the local member, so rounds survive sequencer hand-offs and
// ResetGroup recoveries that happen mid-flight. Every message is
// idempotent at the receiver (proposals are remembered, commits dedup
// against the pending table and the released-xid memory), so blind
// retransmission is safe.
#include "group/node.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>

namespace amoeba::group {

namespace {
/// Per-shard delivered-xid memory (duplicate suppression across stream
/// re-deliveries after recovery). Bounded FIFO eviction.
constexpr std::size_t kSeenXidMemory = 1u << 16;
}  // namespace

Node::Node(flip::FlipStack& flip, transport::Executor& exec,
           flip::Address node_addr, std::uint32_t node_id)
    : flip_(flip), exec_(exec), addr_(node_addr), node_id_(node_id) {
  flip_.register_endpoint(addr_, [this](flip::Address src, flip::Address,
                                        BufView bytes) {
    on_node_packet(src, std::move(bytes));
  });
}

Node::~Node() {
  for (auto& [xid, r] : rounds_) exec_.cancel_timer(r.timer);
  flip_.unregister_endpoint(addr_);
}

GroupMember& Node::add_shard(std::uint32_t tag, flip::Address member_addr,
                             GroupConfig cfg, GroupMember::Callbacks cbs) {
  assert(tag < 32 && shards_.count(tag) == 0);
  assert(shards_.empty() || cfg.xshard_retries == xshard_retries_);
  xshard_retries_ = cfg.xshard_retries;
  auto [it, inserted] = shards_.try_emplace(tag);
  Shard& sh = it->second;
  sh.tag = tag;
  sh.user_cbs = std::move(cbs);
  GroupMember::Callbacks wrapped;
  wrapped.on_message = [this, &sh](const GroupMessage& gm) {
    on_shard_message(sh, gm);
  };
  wrapped.on_view = sh.user_cbs.on_view;
  wrapped.on_fault = sh.user_cbs.on_fault;
  sh.member = std::make_unique<GroupMember>(
      flip_, exec_, member_addr, std::move(cfg), std::move(wrapped), tag);
  return *sh.member;
}

GroupMember* Node::shard(std::uint32_t tag) {
  const auto it = shards_.find(tag);
  return it == shards_.end() ? nullptr : it->second.member.get();
}

const GroupMember* Node::shard(std::uint32_t tag) const {
  const auto it = shards_.find(tag);
  return it == shards_.end() ? nullptr : it->second.member.get();
}

std::uint32_t Node::route(std::span<const std::uint8_t> key) const {
  assert(!shards_.empty());
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : key) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  auto it = shards_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(h % shards_.size()));
  return it->first;
}

void Node::send_to_shard(std::uint32_t tag, Buffer data, StatusCb done) {
  GroupMember* m = shard(tag);
  if (m == nullptr) {
    if (done) done(Status::invalid_argument);
    return;
  }
  m->send_to_group(std::move(data), std::move(done));
}

void Node::send_multi(std::uint32_t mask, Buffer data, StatusCb done) {
  if (mask == 0) {
    if (done) done(Status::invalid_argument);
    return;
  }
  for (std::uint32_t t = 0; t < 32; ++t) {
    if ((mask & (1u << t)) != 0 && shards_.count(t) == 0) {
      if (done) done(Status::invalid_argument);
      return;
    }
  }
  if (std::popcount(mask) == 1) {
    // One destination: no coordination to pay for — the paper protocol.
    send_to_shard(static_cast<std::uint32_t>(std::countr_zero(mask)),
                  std::move(data), std::move(done));
    return;
  }
  if (data.size() > kMaxMessage) {
    if (done) done(Status::overflow);
    return;
  }
  const std::uint64_t xid =
      (static_cast<std::uint64_t>(node_id_) << 32) | next_xid_++;
  ++stats_.xsends;
  AMOEBA_TRACE(trace_ring_,
               check::TraceEvent{.at = exec_.now(),
                                 .kind = check::EventKind::xsend,
                                 .member = node_id_,
                                 .mkind = MessageKind::xshard,
                                 .msg_id = mask,
                                 .a = xid});
  auto [it, inserted] = rounds_.try_emplace(xid);
  XRound& r = it->second;
  r.xid = xid;
  r.mask = mask;
  r.data = std::move(data);
  r.done = std::move(done);
  xmit_round(r);
  r.timer = exec_.set_timer(kXShardRetry, [this, xid] { round_timer(xid); });
}

bool Node::shard_target(std::uint32_t tag, flip::Address& out_addr,
                        Incarnation& out_inc) const {
  const GroupMember* m = shard(tag);
  if (m == nullptr || m->state() != GroupMember::State::running) return false;
  const GroupInfo gi = m->info();
  const auto addr = m->member_address(gi.sequencer);
  if (!addr.has_value()) return false;
  out_addr = *addr;
  out_inc = gi.incarnation;
  return true;
}

void Node::xmit_round(XRound& r) {
  for (std::uint32_t t = 0; t < 32; ++t) {
    if ((r.mask & (1u << t)) == 0) continue;
    if (r.phase == XRound::Phase::propose && r.proposals.count(t) != 0) {
      continue;
    }
    if (r.phase == XRound::Phase::commit &&
        (r.delivered_mask & (1u << t)) != 0) {
      continue;
    }
    flip::Address seq_addr;
    Incarnation inc = 0;
    // Local member mid-recovery: skip this shard for now; the retry
    // cadence re-targets once a view is back.
    if (!shard_target(t, seq_addr, inc)) continue;
    WireMsg w;
    w.incarnation = inc;
    w.sender = kInvalidMember;  // no delivery horizon to piggyback
    w.addr = addr_;             // reply endpoint
    if (r.phase == XRound::Phase::propose) {
      w.type = WireType::xshard_send;
      XShardSend xs;
      xs.xid = r.xid;
      xs.mask = r.mask;
      xs.origin = node_id_;
      xs.data = r.data;
      flip_.send(seq_addr, addr_, encode_xshard_send_wire(w, xs));
    } else {
      w.type = WireType::xshard_commit;
      XShardCommit xc;
      xc.xid = r.xid;
      xc.mask = r.mask;
      xc.origin = node_id_;
      xc.final_ts = r.final_ts;
      xc.data = r.data;
      flip_.send(seq_addr, addr_, encode_xshard_commit_wire(w, xc));
    }
  }
}

void Node::round_timer(std::uint64_t xid) {
  const auto it = rounds_.find(xid);
  if (it == rounds_.end()) return;
  XRound& r = it->second;
  r.timer = transport::kInvalidTimer;
  if (++r.attempts > xshard_retries_) {
    finish_round(r, Status::timeout);
    return;
  }
  ++stats_.xretries;
  xmit_round(r);
  r.timer = exec_.set_timer(kXShardRetry, [this, xid] { round_timer(xid); });
}

void Node::on_node_packet(flip::Address, BufView bytes) {
  auto m = decode_wire(std::move(bytes));
  if (!m.has_value() || m->type != WireType::xshard_propose) return;
  XShardPropose p;
  if (!decode_xshard_propose_payload(m->payload, p)) return;
  on_propose(p);
}

void Node::on_propose(const XShardPropose& p) {
  const auto it = rounds_.find(p.xid);
  if (it == rounds_.end()) return;  // finished / unknown: stale reply
  XRound& r = it->second;
  if (r.phase != XRound::Phase::propose) return;
  if (p.shard >= 32 || (r.mask & (1u << p.shard)) == 0) return;
  // A re-proposal after a sequencer change may differ; the max is the safe
  // aggregate (the commit's final is the max over everything promised).
  auto [pit, inserted] = r.proposals.try_emplace(p.shard, p.ts);
  if (!inserted) pit->second = std::max(pit->second, p.ts);
  for (std::uint32_t t = 0; t < 32; ++t) {
    if ((r.mask & (1u << t)) != 0 && r.proposals.count(t) == 0) return;
  }
  begin_commit(r);
}

void Node::begin_commit(XRound& r) {
  r.phase = XRound::Phase::commit;
  r.final_ts = 0;
  for (const auto& [shard, ts] : r.proposals) {
    r.final_ts = std::max(r.final_ts, ts);
  }
  r.attempts = 0;  // fresh budget for the commit phase
  xmit_round(r);
  // The running retry timer keeps its cadence and now retries commits.
}

void Node::finish_round(XRound& r, Status s) {
  exec_.cancel_timer(r.timer);
  AMOEBA_TRACE(trace_ring_,
               check::TraceEvent{.at = exec_.now(),
                                 .kind = check::EventKind::xsend,
                                 .member = node_id_,
                                 .mkind = MessageKind::xshard,
                                 .flags = s == Status::ok ? std::uint8_t{1}
                                                          : std::uint8_t{2},
                                 .msg_id = r.mask,
                                 .a = r.xid});
  if (s == Status::ok) {
    ++stats_.xsends_completed;
  } else {
    ++stats_.xsend_failures;
  }
  StatusCb done = std::move(r.done);
  rounds_.erase(r.xid);  // r is dangling after this line
  if (done) done(s);
}

void Node::on_shard_message(Shard& sh, const GroupMessage& gm) {
  if (gm.kind != MessageKind::xshard) {
    if (sh.user_cbs.on_message) sh.user_cbs.on_message(gm);
    if (deliver_) deliver_(sh.tag, gm, 0);
    return;
  }
  XShardCommit x;
  if (!decode_xshard_commit_payload(gm.data, x)) return;  // cannot happen
  if (sh.seen_xids.count(x.xid) != 0) {
    // The stream re-delivered an injected entry (recovery rebuilt the
    // suffix, or two sequencer generations both injected): exactly-once
    // up-delivery is the Node's job, and the Node never resets.
    ++stats_.xdup_dropped;
    return;
  }
  sh.seen_xids.insert(x.xid);
  sh.seen_fifo.push_back(x.xid);
  while (sh.seen_fifo.size() > kSeenXidMemory) {
    sh.seen_xids.erase(sh.seen_fifo.front());
    sh.seen_fifo.pop_front();
  }
  ++stats_.xdeliveries;
  note_xdeliver(sh, gm, x.xid, x.mask);
  // Origin-side completion: our own member in shard `tag` delivered it.
  const auto it = rounds_.find(x.xid);
  if (it != rounds_.end()) {
    XRound& r = it->second;
    r.delivered_mask |= 1u << sh.tag;
    if (r.phase == XRound::Phase::commit &&
        (r.delivered_mask & r.mask) == r.mask) {
      finish_round(r, Status::ok);
    }
  }
  GroupMessage user = gm;
  user.data = x.data;  // strip the envelope; hand up the user bytes
  if (deliver_) deliver_(sh.tag, user, x.xid);
}

void Node::note_xdeliver(Shard& sh, const GroupMessage& gm, std::uint64_t xid,
                         std::uint32_t mask) {
#if AMOEBA_TRACE_ENABLED
  check::TraceRing* ring = sh.member->trace_ring();
  if (ring == nullptr) return;
  const GroupInfo gi = sh.member->info();
  ring->emit(check::TraceEvent{.at = exec_.now(),
                               .kind = check::EventKind::xdeliver,
                               .member = gi.my_id,
                               .inc = gi.incarnation,
                               .group = sh.tag,
                               .mkind = MessageKind::xshard,
                               .seq = gm.seq,
                               .msg_id = mask,
                               .a = xid});
#else
  (void)sh;
  (void)gm;
  (void)xid;
  (void)mask;
#endif
}

}  // namespace amoeba::group
