// GroupMember: the ResetGroup recovery protocol.
//
// After a processor failure the group is rebuilt from the survivors
// (Section 2.1). Any member may coordinate; concurrent attempts are
// arbitrated by the key (incarnation, coordinator-id) — the highest key
// wins and losers yield into voters. The coordinator:
//
//   1. multicasts invitations and collects votes (a vote describes what
//      the member has delivered and still buffers);
//   2. declares non-responders dead after kInviteRetries rounds — the
//      unreliable failure detector the paper describes, which may declare
//      a live-but-slow member dead;
//   3. fixes the rebuilt stream: everything any survivor delivered, plus
//      the longest gapless prefix of buffered-but-undelivered messages.
//      With resilience degree r, an accepted message lives on >= r + 1
//      kernels, so after any r crashes it is still held by a survivor and
//      lands inside this prefix — the Section 2.1 guarantee;
//   4. retrieves any of those messages it lacks, becomes the new
//      sequencer, and multicasts the result view. Survivors too far
//      behind to be repaired from anyone's buffer are excluded (they can
//      rejoin afresh).
//
// If fewer than `min_size` members respond, recovery fails and the group
// stays down until the caller retries ("the group will block until a
// sufficient number of processors recover"). Failures during recovery
// surface as watchdog timeouts, after which the algorithm simply runs
// again under a higher key.
#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "group/durable_log.hpp"
#include "group/member.hpp"
#include "group/trace_events.hpp"

namespace amoeba::group {

namespace {
/// Invitation rounds before non-responders are declared dead; twice as
/// many retrieval rounds before recovery starts over.
constexpr int kInviteRetries = 4;
/// Spacing of the coordinator's retrieval requests for missing messages.
constexpr Duration kRetrieveTimeout = Duration::millis(200);
/// The result view is multicast this many times (no ack round).
constexpr int kResultRebroadcasts = 3;

/// Orders concurrent recovery attempts.
struct ResetKey {
  Incarnation inc;
  MemberId coord;
  friend auto operator<=>(const ResetKey&, const ResetKey&) = default;
};
}  // namespace

void GroupMember::reset_group(std::uint32_t min_size, ResetCb done) {
  if (state_ == State::idle || state_ == State::left ||
      state_ == State::joining) {
    done(Status::no_such_group, 0);
    return;
  }
  if (recovery_.has_value()) {
    // A recovery is already underway (we voted for someone, or we already
    // coordinate). Piggyback this caller on its outcome.
    if (recovery_->done) {
      done(Status::failure, 0);  // one waiter per member at a time
      return;
    }
    recovery_->done = std::move(done);
    return;
  }

  ++stats_.resets_started;
  // If we are still the running sequencer, emit anything stamped but not
  // yet multicast: our vote must describe a stream whose tail was actually
  // offered to the group, or recovery would rebuild short of seqs we
  // already promised to senders. Then the regime ends: whoever concludes
  // the reset builds a new one.
  if (i_am_sequencer()) seq_drain_pending();
  seq_drop_role();
  exec_.cancel_timer(nack_timer_);
  nack_timer_ = transport::kInvalidTimer;
  for (Outgoing& o : outs_) exec_.cancel_timer(o.timer);

  Recovery r;
  r.coordinator = true;
  r.incarnation = std::max(inc_, max_inc_seen_) + 1;
  r.coord_id = my_id_;
  r.coord_addr = my_addr_;
  r.min_size = std::max<std::uint32_t>(min_size, 1);
  r.done = std::move(done);
  r.votes[my_id_] = local_vote();
  recovery_ = std::move(r);
  max_inc_seen_ = recovery_->incarnation;
  state_ = State::recovering;
  GTRACE_AT_INC(reset_start, recovery_->incarnation, .peer = my_id_);
  coord_invite_round();
}

Vote GroupMember::local_vote() const {
  Vote v;
  v.member = my_id_;
  v.address = my_addr_;
  v.next_deliver = next_deliver_;
  v.hist_lo = hist_base_;
  v.hist_hi = hist_base_ + static_cast<SeqNum>(history_.size());
  for (const auto& [seq, msg] : ooo_) {
    if (msg.have_data) v.tentative.push_back(seq);
  }
  // Durable suffix: only the synced range — an un-synced tail is already
  // covered by the in-memory ranges above, and after a crash-with-disk
  // restart it does not exist. This is what lets ResetGroup prefer the
  // longest durable suffix among survivors.
  if (log_ != nullptr && !log_->empty()) {
    v.durable_lo = log_->lo();
    v.durable_hi = log_->durable_hi();
  }
  return v;
}

void GroupMember::coord_invite_round() {
  if (!recovery_.has_value() || !recovery_->coordinator) return;
  Recovery& r = *recovery_;
  exec_.cancel_timer(r.timer);
  r.timer = transport::kInvalidTimer;

  if (r.invite_rounds >= kInviteRetries) {
    // Non-responders are now dead (unreliable failure detection).
    coord_try_conclude();
    return;
  }
  ++r.invite_rounds;

  WireMsg m;
  m.type = WireType::reset_invite;
  m.incarnation = r.incarnation;
  m.sender = my_id_;
  m.addr = my_addr_;
  flip_.send(gaddr_, my_addr_, encode_wire(m));
  r.timer = exec_.set_timer(cfg_.invite_interval,
                            [this] { coord_invite_round(); });
}

void GroupMember::send_my_vote() {
  if (!recovery_.has_value()) return;
  WireMsg m;
  m.type = WireType::reset_vote;
  m.incarnation = recovery_->incarnation;
  m.sender = my_id_;
  m.payload = encode_vote(local_vote());
  flip_.send(recovery_->coord_addr, my_addr_, encode_wire(m));
}

void GroupMember::on_reset_invite(const flip::Address&, const WireMsg& m) {
  if (state_ == State::idle || state_ == State::left ||
      state_ == State::joining) {
    return;
  }
  if (m.incarnation <= inc_) return;  // stale attempt from the past
  max_inc_seen_ = std::max(max_inc_seen_, m.incarnation);
  const ResetKey theirs{m.incarnation, m.sender};

  if (recovery_.has_value()) {
    const ResetKey mine{recovery_->incarnation, recovery_->coord_id};
    if (theirs < mine) return;  // they must yield, not us
    if (theirs == mine) {
      if (!recovery_->coordinator) send_my_vote();  // re-invite: re-vote
      return;
    }
    // Higher key: yield (cancels our coordinacy if we had one).
    exec_.cancel_timer(recovery_->timer);
    recovery_->timer = transport::kInvalidTimer;
    recovery_->coordinator = false;
    recovery_->incarnation = m.incarnation;
    recovery_->coord_id = m.sender;
    recovery_->coord_addr = m.addr;
    recovery_->votes.clear();
  } else {
    ++stats_.resets_started;
    exec_.cancel_timer(nack_timer_);
    nack_timer_ = transport::kInvalidTimer;
    for (Outgoing& o : outs_) exec_.cancel_timer(o.timer);
    Recovery r;
    r.coordinator = false;
    r.incarnation = m.incarnation;
    r.coord_id = m.sender;
    r.coord_addr = m.addr;
    recovery_ = std::move(r);
  }
  // Same drain as reset_group: a still-running sequencer flushes its
  // batch before yielding into a voter.
  if (i_am_sequencer()) seq_drain_pending();
  seq_drop_role();
  state_ = State::recovering;
  GTRACE_AT_INC(reset_start, recovery_->incarnation,
                .peer = recovery_->coord_id);
  send_my_vote();
  // Voter watchdog: if no result ever arrives (coordinator died), give up
  // so the application can trigger a fresh attempt.
  exec_.cancel_timer(recovery_->timer);
  recovery_->timer = exec_.set_timer(
      cfg_.invite_interval * (kInviteRetries + 6), [this] {
        if (recovery_.has_value() && !recovery_->coordinator &&
            state_ == State::recovering) {
          abandon_recovery();
          enter_failed(Status::timeout);
        }
      });
}

void GroupMember::on_reset_vote(const WireMsg& m) {
  if (!recovery_.has_value() || !recovery_->coordinator) return;
  if (m.incarnation != recovery_->incarnation) return;
  auto vote = decode_vote(m.payload);
  if (!vote.has_value()) return;
  recovery_->votes[vote->member] = std::move(*vote);

  // Early conclusion: everyone we knew about has answered.
  bool all = true;
  for (const MemberInfo& mem : members_) {
    if (recovery_->votes.count(mem.id) == 0) {
      all = false;
      break;
    }
  }
  if (all) coord_try_conclude();
}

void GroupMember::coord_try_conclude() {
  Recovery& r = *recovery_;
  exec_.cancel_timer(r.timer);
  r.timer = transport::kInvalidTimer;

  // Availability: which sequence numbers can anyone still supply?
  const auto available = [&](SeqNum s) {
    for (const auto& [id, v] : r.votes) {
      if (seq_ge(s, v.hist_lo) && seq_lt(s, v.hist_hi)) return true;
      if (seq_ge(s, v.durable_lo) && seq_lt(s, v.durable_hi)) return true;
      if (std::find(v.tentative.begin(), v.tentative.end(), s) !=
          v.tentative.end()) {
        return true;
      }
    }
    return false;
  };

  // Target: everything delivered anywhere...
  SeqNum target = 0;
  bool first = true;
  for (const auto& [id, v] : r.votes) {
    target = first ? v.next_deliver : seq_max(target, v.next_deliver);
    first = false;
  }
  // ...plus the gapless prefix of buffered-but-undelivered messages. With
  // resilience r every accepted message sits in >= r + 1 buffers, so it is
  // available here after any r crashes.
  while (available(target)) ++target;
  r.target = target;

  // Exclude survivors that nobody can repair (their gap has been trimmed
  // from every buffer). They rejoin from scratch later.
  std::vector<MemberId> excluded;
  for (const auto& [id, v] : r.votes) {
    for (SeqNum s = v.next_deliver; seq_lt(s, target); ++s) {
      if (!available(s)) {
        excluded.push_back(id);
        break;
      }
    }
  }
  for (const MemberId id : excluded) r.votes.erase(id);

  if (r.votes.count(my_id_) == 0 || r.votes.size() < r.min_size) {
    coord_fail(Status::quorum_unreachable);
    return;
  }

  // What do *we* (the sequencer-to-be) still need? We must cover the span
  // from the slowest included survivor up to the target.
  SeqNum min_nd = next_deliver_;
  for (const auto& [id, v] : r.votes) min_nd = seq_min(min_nd, v.next_deliver);
  const auto have_locally = [&](SeqNum s) {
    if (seq_ge(s, hist_base_) &&
        seq_lt(s, hist_base_ + static_cast<SeqNum>(history_.size()))) {
      return true;
    }
    const auto it = ooo_.find(s);
    if (it != ooo_.end() && it->second.have_data) return true;
    return r.recovered.count(s) > 0;
  };
  r.missing.clear();
  for (SeqNum s = min_nd; seq_lt(s, target); ++s) {
    if (!have_locally(s)) r.missing.insert(s);
  }
  if (r.missing.empty()) {
    coord_finish();
  } else {
    r.retrieve_attempts = 0;
    coord_request_missing();
  }
}

void GroupMember::coord_request_missing() {
  Recovery& r = *recovery_;
  if (r.missing.empty()) {
    coord_finish();
    return;
  }
  if (++r.retrieve_attempts > kInviteRetries * 2) {
    // A supplier died mid-recovery: run the algorithm again (the paper's
    // "the recovery algorithm starts again until it succeeds or fails").
    r.votes.clear();
    r.votes[my_id_] = local_vote();
    r.invite_rounds = 0;
    r.incarnation = ++max_inc_seen_;
    coord_invite_round();
    return;
  }

  // Ask, per missing message, some voter that advertises it.
  for (const SeqNum s : r.missing) {
    for (const auto& [id, v] : r.votes) {
      if (id == my_id_) continue;
      const bool has =
          (seq_ge(s, v.hist_lo) && seq_lt(s, v.hist_hi)) ||
          (seq_ge(s, v.durable_lo) && seq_lt(s, v.durable_hi)) ||
          std::find(v.tentative.begin(), v.tentative.end(), s) !=
              v.tentative.end();
      if (!has) continue;
      WireMsg m;
      m.type = WireType::reset_retrieve;
      m.incarnation = r.incarnation;
      m.sender = my_id_;
      m.range_from = s;
      m.range_count = 1;
      flip_.send(v.address, my_addr_, encode_wire(m));
      break;
    }
  }
  r.timer = exec_.set_timer(kRetrieveTimeout,
                            [this] { coord_request_missing(); });
}

void GroupMember::on_reset_retrieve(const flip::Address& src,
                                    const WireMsg& m) {
  // Serve from whatever we buffer, regardless of our exact state — the
  // coordinator only asks for things we advertised.
  std::vector<RecoveredMessage> out;
  for (SeqNum s = m.range_from; seq_lt(s, m.range_from + m.range_count);
       ++s) {
    RecoveredMessage rm;
    rm.seq = s;
    if (seq_ge(s, hist_base_) &&
        seq_lt(s, hist_base_ + static_cast<SeqNum>(history_.size()))) {
      const GroupMessage& h = history_.at(s - hist_base_);
      rm.sender = h.sender;
      rm.kind = h.kind;
      rm.msg_id = h.sender_msg_id;
      rm.data = h.data;
    } else if (const auto it = ooo_.find(s);
               it != ooo_.end() && it->second.have_data) {
      rm.sender = it->second.sender;
      rm.kind = it->second.kind;
      rm.msg_id = it->second.msg_id;
      rm.data = it->second.data;
    } else if (auto rec = log_ != nullptr ? log_->read_message(s)
                                          : std::optional<LogRecord>{};
               rec.has_value()) {
      // Durable fallback: a crash-restarted member's memory is empty, but
      // its log still serves the suffix it advertised in its vote.
      rm.sender = rec->sender;
      rm.kind = rec->kind;
      rm.msg_id = rec->msg_id;
      rm.data = rec->data;  // BufView share keeps the read buffer alive
    } else {
      continue;
    }
    out.push_back(std::move(rm));
  }
  if (out.empty()) return;
  WireMsg reply;
  reply.type = WireType::reset_missing;
  reply.incarnation = m.incarnation;
  reply.sender = my_id_;
  reply.payload = encode_recovered(out);
  flip_.send(src, my_addr_, encode_wire(reply));
}

void GroupMember::on_reset_missing(const WireMsg& m) {
  if (!recovery_.has_value() || !recovery_->coordinator) return;
  if (m.incarnation != recovery_->incarnation) return;
  auto msgs = decode_recovered(m.payload);
  if (!msgs.has_value()) return;
  Recovery& r = *recovery_;
  for (auto& rm : *msgs) {
    if (r.missing.erase(rm.seq) > 0) {
      r.recovered.emplace(rm.seq, std::move(rm));
    }
  }
  if (r.missing.empty() && state_ == State::recovering) {
    exec_.cancel_timer(r.timer);
    r.timer = transport::kInvalidTimer;
    coord_finish();
  }
}

void GroupMember::coord_finish() {
  Recovery r = std::move(*recovery_);
  recovery_.reset();
  exec_.cancel_timer(r.timer);

  // Become the sequencer of the rebuilt group, with each survivor's
  // horizon where its vote put it.
  inc_ = r.incarnation;
  seq_id_ = my_id_;
  members_.clear();
  for (const auto& [id, v] : r.votes) {
    members_.push_back(MemberInfo{id, v.address});
    next_member_id_ = std::max(next_member_id_, id + 1);
  }
  std::sort(members_.begin(), members_.end(),
            [](const MemberInfo& a, const MemberInfo& b) { return a.id < b.id; });
  state_ = State::running;
  seq_take_role(true);
  for (const auto& [id, v] : r.votes) seq_->horizon[id] = v.next_deliver;

  // Promote the rebuilt stream: everything in [next_deliver_, target) is
  // now accepted; deliver it locally in order.
  for (SeqNum s = next_deliver_; seq_lt(s, r.target); ++s) {
    auto it = ooo_.find(s);
    if (it != ooo_.end() && it->second.have_data) {
      it->second.tentative = false;
      GTRACE(accept, .mkind = it->second.kind, .peer = it->second.sender,
             .seq = s, .msg_id = it->second.msg_id);
      continue;
    }
    const auto rec = r.recovered.find(s);
    assert(rec != r.recovered.end());
    PendingMsg p;
    p.sender = rec->second.sender;
    p.kind = rec->second.kind;
    p.msg_id = rec->second.msg_id;
    p.data = std::move(rec->second.data);
    p.tentative = false;
    p.have_data = true;
    GTRACE(accept, .mkind = p.kind, .peer = p.sender, .seq = s,
           .msg_id = p.msg_id);
    ooo_.insert_or_assign(s, std::move(p));
  }
  // Anything beyond the target did not survive: it was never accepted and
  // its sender never got a completion. Drop it consistently everywhere.
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    it = seq_ge(it->first, r.target) ? ooo_.erase(it) : ++it;
  }
  clear_bb_stash();
  // A coordinator that lagged behind a hand-off delivers it just now; the
  // floor keeps the role here, where the result says it is.
  reset_floor_ = r.target;
  drain_deliverable();
  assert(next_deliver_ == r.target);
  // Only our own departure in the drained stream takes the role from us.
  if (i_am_sequencer()) {
    seq_->next_assign = r.target;
    // Prime duplicate suppression from the recovered history so a survivor
    // re-sending its in-flight message does not get it ordered twice.
    for (std::size_t i = 0; i < history_.size(); ++i) {
      const GroupMessage& h = history_.at(i);
      if (h.kind == MessageKind::app && h.sender != kInvalidMember) {
        SenderState& ss = seq_->sender_state[h.sender];
        ss.recent.emplace(h.sender_msg_id, h.seq);
        ss.expected = std::max(ss.expected, h.sender_msg_id + 1);
      }
    }
  }

  ++stats_.resets_completed;
  GTRACE(reset_done, .peer = my_id_, .seq = r.target,
         .a = members_.size());

  // Publish the new view; a few rebroadcasts cover lost frames, and the
  // per-member snapshot answers stragglers.
  Snapshot snap;
  snap.incarnation = inc_;
  snap.sequencer = my_id_;
  snap.next_member_id = next_member_id_;
  snap.next_seq = r.target;
  snap.members = members_;
  for (int i = 0; i < kResultRebroadcasts; ++i) {
    WireMsg m;
    m.type = WireType::reset_result;
    m.incarnation = inc_;
    m.sender = my_id_;
    m.payload = encode_snapshot(snap);
    if (i == 0) {
      flip_.send(gaddr_, my_addr_, encode_wire(m));
    } else {
      exec_.set_timer(cfg_.invite_interval * i,
                      [this, m = std::move(m)]() mutable {
                        if (state_ == State::running) {
                          flip_.send(gaddr_, my_addr_, encode_wire(m));
                        }
                      });
    }
  }

  start_status_timer();
  if (r.done) r.done(Status::ok, static_cast<std::uint32_t>(members_.size()));
  install_view(true);
}

void GroupMember::on_reset_result(const WireMsg& m) {
  if (state_ == State::idle || state_ == State::left ||
      state_ == State::joining) {
    return;
  }
  if (m.incarnation <= inc_) return;  // already installed / stale
  auto snap = decode_snapshot(m.payload);
  if (!snap.has_value()) return;
  max_inc_seen_ = std::max(max_inc_seen_, m.incarnation);

  ResetCb done;
  if (recovery_.has_value()) {
    exec_.cancel_timer(recovery_->timer);
    done = std::move(recovery_->done);
    recovery_.reset();
  }

  const bool included =
      std::any_of(snap->members.begin(), snap->members.end(),
                  [&](const MemberInfo& mi) { return mi.id == my_id_; });
  if (!included) {
    // Declared dead (or unrepairable). We are out; rejoining is a fresh
    // JoinGroup, which the application decides on.
    if (done) done(Status::not_member, 0);
    enter_failed(Status::not_member);
    return;
  }

  inc_ = snap->incarnation;
  seq_id_ = snap->sequencer;
  members_ = snap->members;
  std::sort(members_.begin(), members_.end(),
            [](const MemberInfo& a, const MemberInfo& b) { return a.id < b.id; });
  next_member_id_ = snap->next_member_id;
  state_ = State::running;
  clear_bb_stash();

  // The rebuilt stream ends (exclusively) at next_seq: promote what we
  // buffered below it, discard what was above it, and NACK the rest from
  // the new sequencer. A hand-off below it that we deliver only now leaves
  // the role where the result puts it.
  const SeqNum target = snap->next_seq;
  reset_floor_ = target;
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (seq_ge(it->first, target)) {
      it = ooo_.erase(it);
    } else {
      it->second.tentative = false;
      GTRACE(accept, .mkind = it->second.kind, .peer = it->second.sender,
             .seq = it->first, .msg_id = it->second.msg_id);
      ++it;
    }
  }
  drain_deliverable();
  if (seq_lt(next_deliver_, target)) {
    catchup_to_ = target;
    schedule_nack();
  }

  ++stats_.resets_completed;
  GTRACE(reset_done, .peer = seq_id_, .seq = target, .a = members_.size());
  start_status_timer();
  if (done) done(Status::ok, static_cast<std::uint32_t>(members_.size()));
  install_view(true);
}

void GroupMember::coord_fail(Status why) {
  Recovery r = std::move(*recovery_);
  recovery_.reset();
  exec_.cancel_timer(r.timer);
  state_ = State::failed;
  GTRACE(fail, .a = static_cast<std::uint64_t>(why));
  if (r.done) r.done(why, 0);
}

void GroupMember::abandon_recovery() {
  if (!recovery_.has_value()) return;
  exec_.cancel_timer(recovery_->timer);
  auto done = std::move(recovery_->done);
  recovery_.reset();
  if (done) done(Status::timeout, 0);
}

}  // namespace amoeba::group
