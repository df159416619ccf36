// GroupMember: lifecycle, sender side, and receiver side.
// The sequencer role lives in sequencer.cpp; recovery in recovery.cpp.
#include "group/member.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/logging.hpp"
#include "group/backoff.hpp"
#include "group/durable_log.hpp"
#include "group/trace_events.hpp"

namespace amoeba::group {

namespace {
/// Order-sensitive hash of a membership list (members_ is sorted by id),
/// so two members install_view-ing the same view trace the same value.
/// Only referenced from GTRACE, which AMOEBA_TRACE=OFF compiles out.
[[maybe_unused]] std::uint64_t view_hash(
    const std::vector<MemberInfo>& members) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const MemberInfo& m : members) {
    h ^= m.id;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Method::dynamic sends messages strictly larger than this with BB: what
/// still fits one Ethernet fragment's user payload.
constexpr std::size_t kBbThreshold = 1398;
/// With flow control on, messages strictly larger than this need a grant:
/// two Ethernet fragments' worth of user payload.
constexpr std::size_t kFcThreshold = 2 * kBbThreshold;

// Retry backoff: the send/NACK/join/leave timers grow base * 2^(attempt-1)
// up to a per-timer cap, with a deterministic ±25% multiplicative spread
// (backoff.hpp). The send and leave timers cap at
// GroupConfig::send_backoff_cap.
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffJitter = 0.25;
/// NACKs cap lower: a receiver with a gap must keep asking briskly or
/// delivery latency for everything behind the gap balloons.
constexpr Duration kNackBackoffCap = Duration::millis(200);
constexpr Duration kJoinBackoffCap = Duration::seconds(1);
}  // namespace

GroupMember::GroupMember(flip::FlipStack& flip, transport::Executor& exec,
                         flip::Address my_address, GroupConfig config,
                         Callbacks cbs, std::optional<std::uint32_t> node_shard)
    : flip_(flip),
      exec_(exec),
      my_addr_(my_address),
      cfg_(config),
      group_tag_(node_shard.value_or(0)),
      cross_shard_(node_shard.has_value()),
      cbs_(std::move(cbs)),
      // Slack over the admission limit: system messages (join/leave/expel)
      // may push the history past cfg.history_size before trimming.
      history_(config.history_size + 64),
      detector_(exec,
                FailureDetector::Callbacks{
                    .probe =
                        [this](MemberId suspect) {
                          if (!i_am_sequencer()) return;
                          const MemberInfo* info = find_member(suspect);
                          if (info == nullptr) return;
                          ++stats_.status_polls;
                          WireMsg req;
                          req.type = WireType::status_req;
                          req.sender = my_id_;
                          req.piggyback = next_deliver_;
                          send_to_address(info->address, std::move(req));
                        },
                    .declare_dead =
                        [this](MemberId suspect) {
                          if (!i_am_sequencer()) return;
                          const MemberInfo* info = find_member(suspect);
                          if (info == nullptr) return;
                          // Its expulsion is already in the stream.
                          if (seq_->pending_leaves.count(suspect) > 0) return;
                          MembershipChange c;
                          c.member = suspect;
                          c.address = info->address;
                          ++stats_.expels_issued;
                          seq_issue_membership(MessageKind::expel, c);
                        },
                }) {
  detector_.configure(config.status_poll, config.status_retries);
  flip_.register_endpoint(my_addr_, [this](flip::Address src, flip::Address,
                                           BufView bytes) {
    on_member_packet(src, std::move(bytes));
  });
}

GroupMember::~GroupMember() {
  exec_.cancel_timer(nack_timer_);
  exec_.cancel_timer(status_timer_);
  exec_.cancel_timer(join_timer_);
  exec_.cancel_timer(tentative_sweep_timer_);
  exec_.cancel_timer(log_sync_timer_);
  exec_.cancel_timer(fsync_timer_);
  exec_.cancel_timer(xrelease_timer_);
  if (recovery_.has_value()) exec_.cancel_timer(recovery_->timer);
  for (Outgoing& o : outs_) exec_.cancel_timer(o.timer);
  flip_.unregister_endpoint(my_addr_);
  if (!gaddr_.is_null()) flip_.leave_group(gaddr_);
}

// --------------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------------

void GroupMember::create_group(flip::Address group, StatusCb done) {
  if (state_ != State::idle || !flip::is_group_address(group)) {
    done(Status::invalid_argument);
    return;
  }
  if (const Status s = check_config(); s != Status::ok) {
    done(s);
    return;
  }
  gaddr_ = group;
  inc_ = 0;
  my_id_ = 0;
  seq_id_ = 0;
  next_member_id_ = 1;
  members_ = {MemberInfo{my_id_, my_addr_}};
  next_deliver_ = cfg_.first_seq;
  hist_base_ = cfg_.first_seq;
  state_ = State::running;
  seq_take_role(false);
  flip_.join_group(gaddr_, [this](flip::Address src, flip::Address,
                                  BufView bytes) {
    on_group_packet(src, std::move(bytes));
  });
  start_status_timer();
  install_view(false);
  done(Status::ok);
}

void GroupMember::join_group(flip::Address group, StatusCb done) {
  if (state_ != State::idle || !flip::is_group_address(group)) {
    done(Status::invalid_argument);
    return;
  }
  if (const Status s = check_config(); s != Status::ok) {
    done(s);
    return;
  }
  gaddr_ = group;
  state_ = State::joining;
  join_done_ = std::move(done);
  join_attempts_ = 0;
  on_join_timer();
}

void GroupMember::on_join_timer() {
  if (state_ != State::joining) return;
  if (join_attempts_++ >= cfg_.join_retries) {
    state_ = State::idle;
    auto done = std::move(join_done_);
    join_done_ = nullptr;
    if (done) done(Status::timeout);
    return;
  }
  if (join_attempts_ > 1) ++stats_.join_retries_fired;
  WireMsg m;
  m.type = WireType::join_req;
  m.addr = my_addr_;
  // Reaches the sequencer via the group's multicast address; we are not a
  // member yet, so we cannot unicast (we know nobody).
  flip_.send(gaddr_, my_addr_, encode_wire(m));
  join_timer_ = exec_.set_timer(
      backoff_delay(cfg_.join_retry, join_attempts_, kBackoffFactor,
                    kJoinBackoffCap, kBackoffJitter,
                    my_addr_.id ^ 0x6A6F696EULL),
      [this] { on_join_timer(); });
}

void GroupMember::finish_join(const Snapshot& snap) {
  if (state_ != State::joining) return;
  exec_.cancel_timer(join_timer_);
  inc_ = snap.incarnation;
  my_id_ = snap.your_id;
  seq_id_ = snap.sequencer;
  next_member_id_ = snap.next_member_id;
  members_ = snap.members;
  std::sort(members_.begin(), members_.end(),
            [](const MemberInfo& a, const MemberInfo& b) { return a.id < b.id; });
  next_deliver_ = snap.next_seq;
  hist_base_ = snap.next_seq;
  history_.clear();
  state_ = State::running;
  flip_.join_group(gaddr_, [this](flip::Address src, flip::Address,
                                  BufView bytes) {
    on_group_packet(src, std::move(bytes));
  });
  start_status_timer();
  install_view(false);
  auto done = std::move(join_done_);
  join_done_ = nullptr;
  if (done) done(Status::ok);
}

void GroupMember::leave_group(StatusCb done) {
  if (state_ != State::running) {
    // Leaving a failed/recovering group is a purely local matter.
    if (state_ == State::failed || state_ == State::recovering) {
      abandon_recovery();
      state_ = State::left;
      flip_.leave_group(gaddr_);
      done(Status::ok);
      return;
    }
    done(Status::invalid_argument);
    return;
  }
  leave_done_ = std::move(done);
  leaving_ = true;
  if (i_am_sequencer()) {
    // Hand off once every survivor has everything; checked on each
    // piggyback update and status reply.
    check_sequencer_handoff();
  } else {
    leave_attempts_ = 1;
    send_leave_req();
  }
}

void GroupMember::send_leave_req() {
  WireMsg m;
  m.type = WireType::leave_req;
  m.sender = my_id_;
  m.piggyback = next_deliver_;
  send_to_sequencer(std::move(m));
  // Re-request with send-retry backoff until our leave is ordered.
  join_timer_ = exec_.set_timer(
      backoff_delay(cfg_.send_retry, leave_attempts_, kBackoffFactor,
                    cfg_.send_backoff_cap, kBackoffJitter,
                    (static_cast<std::uint64_t>(my_id_) << 8) ^ 0x6C656176ULL),
      [this] { on_leave_timer(); });
}

void GroupMember::on_leave_timer() {
  if (!leaving_ || state_ != State::running || i_am_sequencer()) return;
  ++leave_attempts_;
  send_leave_req();
}

void GroupMember::finish_leave() {
  if (i_am_sequencer()) seq_drop_role();
  leaving_ = false;
  exec_.cancel_timer(join_timer_);
  state_ = State::left;
  flip_.leave_group(gaddr_);
  auto done = std::move(leave_done_);
  leave_done_ = nullptr;
  if (done) done(Status::ok);
}

Status GroupMember::check_config() {
  if (const Status s = cfg_.normalize(); s != Status::ok) return s;
  if (cross_shard_) {
    // Shard tags travel as bits of a 32-bit destination mask.
    if (cfg_.xshard_retries < 1 || group_tag_ >= 32) return Status::bad_config;
  }
  return Status::ok;
}

GroupInfo GroupMember::info() const {
  GroupInfo g;
  g.group = gaddr_;
  g.incarnation = inc_;
  g.my_id = my_id_;
  g.sequencer = seq_id_;
  g.resilience = cfg_.resilience;
  g.next_seq = next_deliver_;
  g.members = members_;
  return g;
}

std::optional<flip::Address> GroupMember::member_address(MemberId id) const {
  const MemberInfo* m = find_member(id);
  if (m == nullptr) return std::nullopt;
  return m->address;
}

const MemberInfo* GroupMember::find_member(MemberId id) const {
  for (const MemberInfo& m : members_) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

const MemberInfo* GroupMember::find_member_by_addr(
    const flip::Address& a) const {
  for (const MemberInfo& m : members_) {
    if (m.address == a) return &m;
  }
  return nullptr;
}

void GroupMember::install_view(bool from_recovery) {
  // A departed member's last heartbeat horizon must not linger: a stale
  // lagging entry would keep matching its next (never-arriving) heartbeat
  // and trigger spurious catch-up pushes toward a reused id.
  if (i_am_sequencer()) {
    std::erase_if(seq_->last_status_horizon, [this](const auto& e) {
      return find_member(e.first) == nullptr;
    });
  }
  GTRACE(view, .flags = from_recovery ? std::uint8_t{1} : std::uint8_t{0},
         .peer = seq_id_, .seq = next_deliver_,
         .msg_id = static_cast<std::uint32_t>(members_.size()),
         .a = view_hash(members_));
  if (cbs_.on_view) {
    ViewChange v;
    v.incarnation = inc_;
    v.sequencer = seq_id_;
    v.members = members_;
    v.from_recovery = from_recovery;
    cbs_.on_view(v);
  }
  // A sender whose request was in flight re-targets the (possibly new)
  // sequencer; duplicate suppression makes the re-send idempotent. A new
  // sequencer holds no flow-control state, so large messages re-request.
  if (!outs_.empty() && state_ == State::running) {
    transmit_all_outstanding();
  }
  if (log_active() && state_ == State::running) {
    // Identity + view epoch on disk: what recover_from_log restores.
    log_persist_view();
    if (fsync_timer_ == transport::kInvalidTimer) start_fsync_timer();
  }
}

void GroupMember::enter_failed(Status why) {
  if (state_ == State::failed || state_ == State::left) return;
  state_ = State::failed;
  // Discard (never flush) anything the sequencer still batched: recovery
  // rebuilds from the delivered prefix, and a half-flushed tail would
  // leave survivors with inconsistent views of where the stream stopped.
  seq_drop_role();
  GTRACE(fail, .a = static_cast<std::uint64_t>(why));
  exec_.cancel_timer(status_timer_);
  status_timer_ = transport::kInvalidTimer;
  exec_.cancel_timer(nack_timer_);
  nack_timer_ = transport::kInvalidTimer;
  exec_.cancel_timer(fsync_timer_);
  fsync_timer_ = transport::kInvalidTimer;
  exec_.cancel_timer(log_sync_timer_);
  log_sync_timer_ = transport::kInvalidTimer;
  // Deferred group-commit completions are still in outs_; the sweep below
  // finishes them with `why`.
  pending_durable_.clear();
  auto outstanding = std::move(outs_);
  outs_.clear();
  for (Outgoing& o : outstanding) {
    exec_.cancel_timer(o.timer);
    if (o.done) o.done(why);
  }
  auto queued = std::move(send_queue_);
  send_queue_.clear();
  for (auto& [data, done] : queued) {
    if (done) done(Status::aborted);
  }
  if (cbs_.on_fault) cbs_.on_fault(why);
}

// --------------------------------------------------------------------------
// Wire plumbing
// --------------------------------------------------------------------------

void GroupMember::on_group_packet(flip::Address src, BufView bytes) {
  auto m = decode_wire(std::move(bytes));
  if (!m.has_value()) return;
  exec_.post(dispatch_cost(*m), [this, src, m = std::move(*m)]() mutable {
    dispatch(src, std::move(m));
  });
}

void GroupMember::on_member_packet(flip::Address src, BufView bytes) {
  auto m = decode_wire(std::move(bytes));
  if (!m.has_value()) return;
  exec_.post(dispatch_cost(*m), [this, src, m = std::move(*m)]() mutable {
    dispatch(src, std::move(m));
  });
}

Duration GroupMember::dispatch_cost(const WireMsg& m) const {
  const auto& c = exec_.costs();
  switch (m.type) {
    case WireType::data_pb:
    case WireType::data_bb:
      // Request processing at the sequencer: ordering work plus the
      // per-member bookkeeping and the copy into the history buffer. The
      // emission half (group_emit) is charged per broadcast frame at flush
      // time, which is what lets packed frames amortize it.
      return c.group_order +
             c.group_per_member * static_cast<std::int64_t>(members_.size()) +
             c.copy_time(m.payload.size());
    case WireType::seq_data:
    case WireType::retransmit:
      // Receiver-side group work: copy from the Lance into the history
      // buffer plus protocol processing.
      return c.group_deliver + c.copy_time(m.payload.size());
    case WireType::seq_accept:
      return c.group_deliver;
    case WireType::seq_packed:
      // One frame's fixed receive work plus the incremental unpack cost of
      // each additional message it carries (the batching win: the fixed
      // per-frame interrupt/header path is paid once).
      return c.group_deliver +
             c.group_unpack *
                 static_cast<std::int64_t>(
                     m.range_count > 0 ? m.range_count - 1 : 0) +
             c.copy_time(m.payload.size());
    case WireType::seq_accept_range:
      return c.group_deliver +
             c.group_unpack *
                 static_cast<std::int64_t>(
                     m.range_count > 0 ? m.range_count - 1 : 0);
    case WireType::resil_ack:
      return c.group_ack;
    default:
      return c.group_deliver;
  }
}

void GroupMember::send_to_sequencer(WireMsg m) {
  m.incarnation = inc_;
  if (i_am_sequencer()) {
    // Local short-circuit through the same dispatch path (and the same
    // CPU cost) as a remote request.
    exec_.post(dispatch_cost(m), [this, m = std::move(m)]() mutable {
      dispatch(my_addr_, std::move(m));
    });
    return;
  }
  const MemberInfo* seq = find_member(seq_id_);
  if (seq == nullptr) return;
  flip_.send(seq->address, my_addr_, encode_wire(m));
}

void GroupMember::send_to_address(const flip::Address& to, WireMsg m) {
  m.incarnation = inc_;
  flip_.send(to, my_addr_, encode_wire(m));
}

BufView GroupMember::multicast(WireMsg m) {
  m.incarnation = inc_;
  BufView frame = encode_wire(m);
  flip_.send(gaddr_, my_addr_, frame);  // lvalue: +1 ref, frame survives
  return frame;
}

BufView GroupMember::multicast_packed(WireMsg header,
                                      std::span<const AcceptRec> accepts,
                                      std::span<const PackedEntry> entries) {
  header.incarnation = inc_;
  BufView frame = encode_packed_wire(header, accepts, entries);
  flip_.send(gaddr_, my_addr_, frame);
  return frame;
}

BufView GroupMember::multicast_accept_range(WireMsg header,
                                            std::span<const AcceptRec> recs) {
  header.incarnation = inc_;
  BufView frame = encode_accept_range_wire(header, recs);
  flip_.send(gaddr_, my_addr_, frame);
  return frame;
}

void GroupMember::dispatch(const flip::Address& src, WireMsg m) {
  if (m.type == WireType::retransmit) ++stats_.retransmits_received;
  // Incarnation fencing: recovery messages carry their own rules; all
  // regular traffic must match the current incarnation.
  switch (m.type) {
    case WireType::reset_invite:
      on_reset_invite(src, m);
      return;
    case WireType::reset_vote:
      on_reset_vote(m);
      return;
    case WireType::reset_retrieve:
      on_reset_retrieve(src, m);
      return;
    case WireType::reset_missing:
      on_reset_missing(m);
      return;
    case WireType::reset_result:
      on_reset_result(m);
      return;
    case WireType::join_snapshot: {
      auto snap = decode_snapshot(m.payload);
      if (snap.has_value()) finish_join(*snap);
      return;
    }
    default:
      break;
  }

  if (state_ != State::running) return;

  if (m.type == WireType::join_req) {
    if (i_am_sequencer()) seq_on_join(m);
    return;
  }

  if (m.incarnation != inc_) return;

  // Piggybacked delivery horizon: the positive half of the protocol.
  // Sequencer-emitted frames are excluded — their `sender`/`piggyback`
  // describe the sequencer's own stream, not a member's delivery progress.
  if (i_am_sequencer() && m.sender != kInvalidMember &&
      m.type != WireType::seq_data && m.type != WireType::seq_accept &&
      m.type != WireType::seq_packed &&
      m.type != WireType::seq_accept_range) {
    seq_note_horizon(m.sender, m.piggyback);
  }

  switch (m.type) {
    case WireType::data_pb:
      if (i_am_sequencer()) seq_on_request(src, std::move(m), false);
      break;
    case WireType::data_bb:
      on_bb_payload(m);  // may deliver, and so change our membership
      if (state_ == State::running && i_am_sequencer()) {
        seq_on_request(src, std::move(m), true);
      }
      break;
    case WireType::seq_data:
    case WireType::retransmit:
      on_seq_data(m);
      break;
    case WireType::seq_accept:
      on_seq_accept(m);
      break;
    case WireType::seq_packed:
      on_seq_packed(m);
      break;
    case WireType::seq_accept_range:
      on_seq_accept_range(m);
      break;
    case WireType::resil_ack:
      if (i_am_sequencer()) seq_on_resil_ack(m);
      break;
    case WireType::nack:
      if (i_am_sequencer()) seq_on_nack(m);
      break;
    case WireType::status_req: {
      WireMsg rep;
      rep.type = WireType::status_rep;
      rep.sender = my_id_;
      rep.piggyback = next_deliver_;
      // Checkpoint horizon rides along: keeps the sequencer's compaction
      // ack map fresh even when the explicit ckpt_horizon message is lost.
      rep.range_from = my_ckpt_horizon_;
      rep.range_count = have_ckpt_ ? 1 : 0;
      send_to_sequencer(std::move(rep));
      break;
    }
    case WireType::status_rep:
      if (i_am_sequencer() && m.range_count != 0) {
        seq_note_ckpt_horizon(m.sender, m.range_from);
      }
      // Horizon already noted above. Two consecutive heartbeats reporting
      // the same lagging horizon mean the member lost the tail of the
      // stream (nothing in flight will fill its gap): serve it. A single
      // lagging heartbeat is normal when traffic is in flight.
      if (i_am_sequencer() && seq_lt(m.piggyback, seq_->next_assign)) {
        auto [it, inserted] =
            seq_->last_status_horizon.try_emplace(m.sender, m.piggyback);
        if (!inserted && it->second == m.piggyback) {
          seq_catch_up(m.sender, m.piggyback);
        }
        it->second = m.piggyback;
      }
      break;
    case WireType::leave_req:
      if (i_am_sequencer()) seq_on_leave(m);
      break;
    case WireType::ckpt_horizon:
      if (i_am_sequencer()) seq_note_ckpt_horizon(m.sender, m.seq);
      break;
    case WireType::compaction_notice:
      // Group-agreed horizon: every member's checkpoint covers [.., seq),
      // so log segments entirely below it may be deleted everywhere.
      stats_.compaction_horizon.store(m.seq);
      if (log_ != nullptr && log_->compact(m.seq) == Status::ok &&
          !log_->empty() && seq_le(log_->lo(), log_->durable_hi())) {
        // Re-report the durable range: the oracle's restart obligation
        // anchors at the last log_sync event, and compaction just moved
        // its floor (the dropped records live on in checkpoints, not as
        // log records).
        GTRACE(log_sync, .seq = log_->durable_hi(), .a = log_->lo());
      }
      break;
    case WireType::fc_rts:
      if (i_am_sequencer()) seq_on_rts(m);
      break;
    case WireType::xshard_send:
      if (i_am_sequencer() && cross_shard_) seq_on_xshard_send(m);
      break;
    case WireType::xshard_commit:
      if (i_am_sequencer() && cross_shard_) seq_on_xshard_commit(m);
      break;
    case WireType::fc_cts:
      if (Outgoing* o = find_outgoing(m.msg_id);
          o != nullptr && !o->granted) {
        o->granted = true;
        transmit_entry(*o);  // the actual data goes out now
      }
      break;
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// Sender side
// --------------------------------------------------------------------------

bool GroupMember::use_bb(std::size_t size) const {
  switch (cfg_.method) {
    case Method::pb: return false;
    case Method::bb: return true;
    case Method::dynamic: return size > kBbThreshold;
  }
  return false;
}

void GroupMember::send_to_group(Buffer data, StatusCb done) {
  if (state_ == State::failed) {
    done(Status::failure);
    return;
  }
  if (state_ != State::running && state_ != State::recovering) {
    done(Status::not_member);
    return;
  }
  if (data.size() > kMaxMessage) {
    done(Status::overflow);
    return;
  }
  send_queue_.emplace_back(std::move(data), std::move(done));
  fill_pipeline();
}

void GroupMember::fill_pipeline() {
  // Admit queued sends up to the pipeline depth (1 = the paper's blocking
  // semantics; the sequencer enforces per-sender FIFO for deeper windows).
  while (static_cast<int>(outs_.size()) < std::max(1, cfg_.max_outstanding) &&
         !send_queue_.empty()) {
    auto [data, done] = std::move(send_queue_.front());
    send_queue_.pop_front();
    Outgoing o;
    o.msg_id = next_msg_id_++;
    o.data = std::move(data);
    o.done = std::move(done);
    o.via_bb = use_bb(o.data.size());
    o.deliver_mark = next_deliver_;
    o.deadline = cfg_.send_budget.ns > 0 ? exec_.now() + cfg_.send_budget
                                         : Time::infinity();
    // Sender-side copy: user buffer into the kernel.
    exec_.charge(exec_.costs().copy_time(o.data.size()));
    GTRACE(send, .flags = o.via_bb ? std::uint8_t{1} : std::uint8_t{0},
           .msg_id = o.msg_id, .a = o.data.size());
    outs_.push_back(std::move(o));
    if (state_ == State::running) transmit_entry(outs_.back());
    // While recovering, the request stays parked and is transmitted when
    // the new view is installed.
  }
}

GroupMember::Outgoing* GroupMember::find_outgoing(std::uint32_t msg_id) {
  for (Outgoing& o : outs_) {
    if (o.msg_id == msg_id) return &o;
  }
  return nullptr;
}

void GroupMember::transmit_entry(Outgoing& o) {
  o.needs_grant = cfg_.flow_control && o.data.size() > kFcThreshold;
  if (o.needs_grant && !o.granted) {
    // Flow control: ask for a transmission slot first. The regular send
    // timer re-issues the RTS if the CTS is lost.
    WireMsg rts;
    rts.type = WireType::fc_rts;
    rts.sender = my_id_;
    rts.msg_id = o.msg_id;
    rts.piggyback = next_deliver_;
    rts.range_count = static_cast<std::uint32_t>(o.data.size());
    send_to_sequencer(std::move(rts));
  } else {
    WireMsg m;
    m.type = o.via_bb ? WireType::data_bb : WireType::data_pb;
    m.sender = my_id_;
    m.msg_id = o.msg_id;
    m.piggyback = next_deliver_;
    m.kind = MessageKind::app;
    // Window base: our oldest outstanding msg_id. A sequencer whose
    // per-sender state is younger than our pipeline (fresh after recovery
    // or hand-off, with the history already trimmed) fast-forwards to it
    // instead of waiting forever for messages we already completed.
    m.range_from = outs_.empty() ? o.msg_id : outs_.front().msg_id;
    m.payload = o.data;
    if (o.via_bb) {
      ++stats_.sends_bb;
      multicast(std::move(m));
    } else {
      ++stats_.sends_pb;
      send_to_sequencer(std::move(m));
    }
  }
  // Exponential backoff with deterministic per-(member, message) jitter so
  // that many senders whose requests were dropped together (sequencer ring
  // overflow) do not retry as a synchronized herd and overflow it again.
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(my_id_) << 32) ^ o.msg_id;
  const Duration retry =
      backoff_delay(cfg_.send_retry, o.attempts + 1, kBackoffFactor,
                    cfg_.send_backoff_cap, kBackoffJitter, salt);
  exec_.cancel_timer(o.timer);
  o.timer = exec_.set_timer(
      retry, [this, msg_id = o.msg_id] { on_send_timer(msg_id); });
}

void GroupMember::transmit_all_outstanding() {
  for (Outgoing& o : outs_) {
    o.granted = false;  // a new sequencer holds no flow-control state
    transmit_entry(o);
  }
}

void GroupMember::on_send_timer(std::uint32_t msg_id) {
  if (state_ != State::running) return;
  Outgoing* o = find_outgoing(msg_id);
  if (o == nullptr) return;
  ++stats_.send_retries_fired;
  if (o->deadline != Time::infinity() && !(exec_.now() < o->deadline)) {
    // Per-send budget exhausted. If the group is alive (deliveries keep
    // arriving), fail only this call with a typed, retry-safe error rather
    // than declaring the whole group dead. Abandoning the entry is safe:
    // the sequencer fast-forwards its per-sender window to our next
    // range_from, so a successor send is not stuck behind this one.
    ++stats_.send_budget_exhausted;
    if (seq_gt(next_deliver_, o->deliver_mark)) {
      complete_entry(msg_id, Status::retry_exhausted);
    } else {
      enter_failed(Status::timeout);
    }
    return;
  }
  if (++o->attempts > cfg_.send_retries) {
    if (seq_gt(next_deliver_, o->deliver_mark)) {
      // The group IS progressing — the sequencer is alive but swamped
      // (our requests drown in its receive ring or history). That is
      // congestion, not failure: keep retrying. "The protocol continues
      // working, but the performance drops" (Section 4).
      ++stats_.congestion_resets;
      o->deliver_mark = next_deliver_;
      o->attempts = 1;
    } else {
      // No deliveries either: the sequencer is unreachable and the group
      // has failed for us. The application decides whether to ResetGroup
      // (Section 2.1).
      enter_failed(Status::timeout);
      return;
    }
  }
  transmit_entry(*o);
}

void GroupMember::complete_entry(std::uint32_t msg_id, Status s) {
  for (auto it = outs_.begin(); it != outs_.end(); ++it) {
    if (it->msg_id != msg_id) continue;
    exec_.cancel_timer(it->timer);
    auto done = std::move(it->done);
    outs_.erase(it);
    if (s == Status::ok) ++stats_.sends_completed;
    GTRACE(send_done,
           .flags = s == Status::ok ? std::uint8_t{1} : std::uint8_t{0},
           .msg_id = msg_id, .a = static_cast<std::uint64_t>(s));
    if (done) done(s);
    if (state_ == State::running) fill_pipeline();
    return;
  }
}

// --------------------------------------------------------------------------
// Receiver side
// --------------------------------------------------------------------------

void GroupMember::on_seq_data(const WireMsg& m) {
  if (seq_lt(m.seq, next_deliver_)) {
    ++stats_.duplicates_dropped;
    return;
  }
  auto [it, inserted] = ooo_.try_emplace(m.seq);
  PendingMsg& p = it->second;
  if (!inserted && p.have_data && !p.tentative) {
    ++stats_.duplicates_dropped;
    return;
  }
  const bool was_accepted = !inserted && !p.tentative;
  p.sender = m.sender;
  p.kind = m.kind;
  p.msg_id = m.msg_id;
  p.data = m.payload;
  p.have_data = true;
  p.arrived = exec_.now();
  const bool tentative_now = (m.flags & kFlagTentative) != 0 && !was_accepted;
  p.tentative = tentative_now;
  if (tentative_now) {
    GTRACE(tentative, .mkind = p.kind, .peer = p.sender, .seq = m.seq,
           .msg_id = p.msg_id);
    maybe_send_resil_ack(m.seq, m.sender);
  } else if (!was_accepted) {
    GTRACE(accept, .mkind = p.kind, .peer = p.sender, .seq = m.seq,
           .msg_id = p.msg_id);
  }
  drain_deliverable();
  if (missing_anything()) schedule_nack();
}

void GroupMember::on_seq_accept(const WireMsg& m) {
  if (seq_lt(m.seq, next_deliver_)) {
    ++stats_.duplicates_dropped;
    return;
  }
  auto [it, inserted] = ooo_.try_emplace(m.seq);
  PendingMsg& p = it->second;
  p.arrived = exec_.now();
  if (inserted || !p.have_data) {
    p.sender = m.sender;
    p.kind = m.kind;
    p.msg_id = m.msg_id;
    // BB method: the payload travelled separately; look in the stash.
    const auto stash = bb_stash_.find({m.sender, m.msg_id});
    if (stash != bb_stash_.end()) {
      p.data = std::move(stash->second);
      p.have_data = true;
      bb_stash_.erase(stash);
    }
  }
  const bool tentative_now = (m.flags & kFlagTentative) != 0;
  if (!tentative_now) {
    if (p.tentative || inserted) {
      GTRACE(accept, .mkind = p.kind, .peer = p.sender, .seq = m.seq,
             .msg_id = p.msg_id);
    }
    p.tentative = false;
  } else {
    if (inserted) {
      GTRACE(tentative, .mkind = p.kind, .peer = p.sender, .seq = m.seq,
             .msg_id = p.msg_id);
    }
    if (p.tentative) maybe_send_resil_ack(m.seq, m.sender);
  }
  drain_deliverable();
  if (missing_anything()) schedule_nack();
}

void GroupMember::on_seq_packed(const WireMsg& m) {
  std::vector<AcceptRec> accepts;
  std::vector<PackedEntry> entries;
  if (!decode_packed_payload(m, accepts, entries)) return;
  // Data entries first, then the piggybacked accepts: a same-flush
  // finalization (resilience satisfied before the batch flushed) must see
  // its tentative entry registered before its accept lands, exactly as the
  // unbatched tentative-then-accept frame pair would have.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // A packed entry may change our own membership (expel) mid-frame.
    if (state_ != State::running) return;
    PackedEntry& e = entries[i];
    WireMsg w;
    w.incarnation = m.incarnation;
    w.sender = e.sender;
    w.msg_id = e.msg_id;
    w.kind = e.kind;
    w.seq = m.range_from + static_cast<SeqNum>(i);
    w.piggyback = m.piggyback;
    w.flags = e.flags & kFlagTentative;
    if ((e.flags & kFlagAcceptOnly) != 0) {
      // BB: the payload travelled with the sender's own multicast.
      w.type = WireType::seq_accept;
      on_seq_accept(w);
    } else {
      w.type = WireType::seq_data;
      w.payload = std::move(e.payload);
      on_seq_data(w);
    }
  }
  for (const AcceptRec& a : accepts) {
    if (state_ != State::running) return;
    WireMsg w;
    w.type = WireType::seq_accept;
    w.incarnation = m.incarnation;
    w.sender = a.sender;
    w.msg_id = a.msg_id;
    w.kind = a.kind;
    w.seq = a.seq;
    w.piggyback = m.piggyback;
    w.flags = a.flags;
    on_seq_accept(w);
  }
}

void GroupMember::on_seq_accept_range(const WireMsg& m) {
  std::vector<AcceptRec> recs;
  if (!decode_accept_range_payload(m, recs)) return;
  for (const AcceptRec& a : recs) {
    if (state_ != State::running) return;
    WireMsg w;
    w.type = WireType::seq_accept;
    w.incarnation = m.incarnation;
    w.sender = a.sender;
    w.msg_id = a.msg_id;
    w.kind = a.kind;
    w.seq = a.seq;
    w.piggyback = m.piggyback;
    w.flags = a.flags;
    on_seq_accept(w);
  }
}

void GroupMember::on_bb_payload(const WireMsg& m) {
  // Everyone (sender included, via loopback) holds the payload until the
  // sequencer's accept names its sequence number. No stash entry may
  // outlive its message: a copy of a message already delivered (a late
  // frame, a sender's retry) is dropped, and one whose accept overtook it
  // goes straight into the accept's slot.
  const auto mark = bb_delivered_.find(m.sender);
  if (mark != bb_delivered_.end() && m.msg_id <= mark->second) return;
  for (auto& [seq, p] : ooo_) {
    if (p.sender != m.sender || p.msg_id != m.msg_id ||
        p.kind != MessageKind::app) {
      continue;
    }
    if (!p.have_data) {
      p.data = m.payload;
      p.have_data = true;
      if (p.tentative) maybe_send_resil_ack(seq, p.sender);
      drain_deliverable();
    }
    return;
  }
  if (bb_stash_.size() < cfg_.history_size * 2) {
    bb_stash_[{m.sender, m.msg_id}] = m.payload;
  }
}

void GroupMember::clear_bb_stash() {
  bb_stash_.clear();
  bb_delivered_.clear();
}

void GroupMember::maybe_send_resil_ack(SeqNum seq, MemberId sender) {
  // "if its member identifier is lower than r, it sends an
  // acknowledgement" — excluding the sending kernel, whose copy is
  // implicit: we ack iff we rank among the r lowest-numbered members
  // besides the sender (mirrors resil_ackers — when the sender itself
  // holds one of the r lowest ids, the next member up substitutes).
  // Only ack what we actually buffered.
  if (my_id_ == sender) return;
  std::uint32_t rank = 0;
  for (const MemberInfo& m : members_) {
    if (m.id != sender && m.id < my_id_) ++rank;
  }
  if (rank >= cfg_.resilience) return;
  const auto it = ooo_.find(seq);
  if (it == ooo_.end() || !it->second.have_data) return;
  WireMsg ack;
  ack.type = WireType::resil_ack;
  ack.sender = my_id_;
  ack.seq = seq;
  ack.piggyback = next_deliver_;
  ++stats_.resil_acks_sent;
  send_to_sequencer(std::move(ack));
}

void GroupMember::drain_deliverable() {
  while (true) {
    const auto it = ooo_.find(next_deliver_);
    if (it == ooo_.end() || it->second.tentative || !it->second.have_data) {
      break;
    }
    PendingMsg msg = std::move(it->second);
    ooo_.erase(it);
    deliver(next_deliver_, std::move(msg));
  }
}

void GroupMember::deliver(SeqNum seq, PendingMsg msg) {
  assert(seq == next_deliver_);
  ++next_deliver_;
  nack_attempts_ = 0;  // progress: reset the giving-up counter
  if (catchup_to_.has_value() && seq_ge(next_deliver_, *catchup_to_)) {
    catchup_to_.reset();
  }
  if (reset_floor_.has_value() && seq_ge(seq, *reset_floor_)) {
    reset_floor_.reset();
  }

  GroupMessage gm;
  gm.seq = seq;
  gm.sender = msg.sender;
  gm.kind = msg.kind;
  gm.sender_msg_id = msg.msg_id;
  gm.data = std::move(msg.data);

  append_history(seq, msg);
  history_.back()->data = gm.data;  // share the payload with the app copy

  if (gm.kind == MessageKind::app) {
    // Per-sender FIFO: no payload of this sender at or below this msg_id
    // is still needed.
    bb_delivered_[gm.sender] = gm.sender_msg_id;
    bb_stash_.erase(bb_stash_.lower_bound({gm.sender, 0}),
                    bb_stash_.upper_bound({gm.sender, gm.sender_msg_id}));
  }

  ++stats_.messages_delivered;
  GTRACE(deliver, .mkind = gm.kind, .peer = gm.sender, .seq = seq,
         .msg_id = gm.sender_msg_id, .a = check::fingerprint(gm.data));

  bool appended = false;
  if (log_active()) appended = log_append_delivery(gm);

  if (i_am_sequencer()) {
    seq_->horizon[my_id_] = next_deliver_;
    seq_trim_history();
  }

  // Our own message coming back ordered is the accept signal for
  // SendToGroup (r = 0: the broadcast itself; r > 0: the final accept).
  // Under group_commit the signal is deferred to the covering fsync: an
  // `ok` completion then implies the message survives our own
  // crash-with-disk, not just r other kernels' memory.
  if (gm.sender == my_id_) {
    if (log_active() && cfg_.durability == Durability::group_commit &&
        gm.kind == MessageKind::app) {
      if (appended) {
        pending_durable_.push_back({gm.sender_msg_id, seq});
      } else {
        // The record never reached the log (write fault): honest typed
        // failure rather than a durability promise we cannot keep.
        complete_entry(gm.sender_msg_id, Status::io_error);
      }
    } else {
      complete_entry(gm.sender_msg_id, Status::ok);
    }
  }

  // Cross-shard entries are data, not membership: they ride the ordered
  // stream but must not go anywhere near apply_membership / install_view.
  // Every member (not just the sequencer) tracks the shard clock from the
  // delivered final timestamps: a follower later promoted by a reset or
  // hand-off must propose above everything already released into the
  // history it has seen, or a post-crash round could order below an
  // already-delivered message and invert the cross-shard order.
  if (gm.kind == MessageKind::xshard && cross_shard_) {
    XShardCommit xc;
    if (decode_xshard_commit_payload(gm.data, xc) && xc.final_ts > xclock_) {
      xclock_ = xc.final_ts;
    }
  }
  if (gm.kind != MessageKind::app && gm.kind != MessageKind::xshard) {
    apply_membership(gm);
  }
  if (leaving_ && i_am_sequencer()) check_sequencer_handoff();
  if (cbs_.on_message) cbs_.on_message(gm);
}

void GroupMember::append_history(SeqNum seq, const PendingMsg& msg) {
  if (history_.empty()) hist_base_ = seq;
  GroupMessage h;
  h.seq = seq;
  h.sender = msg.sender;
  h.kind = msg.kind;
  h.sender_msg_id = msg.msg_id;
  if (history_.full()) {
    // The slack over cfg.history_size filled too (sustained system-message
    // overshoot): evict the oldest entry rather than losing the newest.
    history_.try_pop();
    ++hist_base_;
    ++stats_.history_evictions;
  }
  history_.try_push(std::move(h));
  // Non-sequencer members keep a bounded ring purely for recovery; the
  // sequencer's copy is trimmed by the piggybacked horizons instead.
  if (!i_am_sequencer()) {
    while (history_.size() > cfg_.history_size) {
      history_.try_pop();
      ++hist_base_;
    }
  }
}

bool GroupMember::missing_anything() const {
  if (catchup_to_.has_value() && seq_lt(next_deliver_, *catchup_to_)) {
    return true;
  }
  if (ooo_.empty()) return false;
  const Time now = exec_.now();
  const SeqNum last = ooo_.rbegin()->first;
  for (SeqNum s = next_deliver_; seq_le(s, last); ++s) {
    const auto it = ooo_.find(s);
    if (it == ooo_.end() || entry_missing(it->second, now)) return true;
  }
  return false;
}

void GroupMember::schedule_nack() {
  if (nack_timer_ != transport::kInvalidTimer) return;
  // "It sends a negative acknowledgement as soon as it discovers that it
  // has missed a message" — a short fuse lets an in-flight ordering
  // resolve without spurious NACKs.
  nack_timer_ = exec_.set_timer(Duration::millis(1), [this] { fire_nack(); });
}

void GroupMember::fire_nack() {
  nack_timer_ = transport::kInvalidTimer;
  if (state_ != State::running || !missing_anything()) return;
  if (++nack_attempts_ > cfg_.send_retries * 4) {
    if (leaving_) {
      // We cannot catch up, and we were leaving anyway — the group has
      // almost certainly already removed us. Finish the leave locally.
      finish_leave();
      return;
    }
    enter_failed(Status::timeout);
    return;
  }
  // First missing run from the head.
  const Time nnow = exec_.now();
  SeqNum last = ooo_.empty() ? next_deliver_ : ooo_.rbegin()->first;
  if (catchup_to_.has_value()) last = seq_max(last, *catchup_to_ - 1);
  SeqNum from = next_deliver_;
  while (seq_le(from, last)) {
    const auto it = ooo_.find(from);
    if (it == ooo_.end() || entry_missing(it->second, nnow)) break;
    ++from;
  }
  std::uint32_t count = 0;
  for (SeqNum s = from; seq_le(s, last) && count < nack_limit(); ++s) {
    const auto it = ooo_.find(s);
    if (it == ooo_.end() || entry_missing(it->second, nnow)) {
      count = (s - from) + 1;
    }
  }
  WireMsg m;
  m.type = WireType::nack;
  m.sender = my_id_;
  m.piggyback = next_deliver_;
  m.range_from = from;
  m.range_count = count;
  ++stats_.nacks_sent;
  if (nack_attempts_ > 1) ++stats_.nack_retries_fired;
  GTRACE(nack, .seq = from, .a = count);
  send_to_sequencer(std::move(m));
  // Back off while the gap persists (capped low: everything behind the gap
  // waits on this timer), desynchronized across members by id.
  const Duration retry = backoff_delay(
      cfg_.nack_retry, nack_attempts_, kBackoffFactor, kNackBackoffCap,
      kBackoffJitter,
      (static_cast<std::uint64_t>(my_id_) << 8) ^ 0x6E61636BULL);
  nack_timer_ = exec_.set_timer(retry, [this] { fire_nack(); });
}

void GroupMember::start_status_timer() {
  exec_.cancel_timer(status_timer_);
  status_timer_ = exec_.set_timer(cfg_.status_interval,
                                  [this] { on_status_timer(); });
}

void GroupMember::on_status_timer() {
  status_timer_ = transport::kInvalidTimer;
  if (state_ != State::running) return;
  if (!i_am_sequencer()) {
    WireMsg m;
    m.type = WireType::status_rep;
    m.sender = my_id_;
    m.piggyback = next_deliver_;
    m.range_from = my_ckpt_horizon_;
    m.range_count = have_ckpt_ ? 1 : 0;
    send_to_sequencer(std::move(m));
  }
  start_status_timer();
}

void GroupMember::apply_membership(const GroupMessage& msg) {
  auto change = decode_membership_change(msg.data);
  if (!change.has_value()) return;
  switch (msg.kind) {
    case MessageKind::join: {
      if (find_member(change->member) == nullptr) {
        members_.push_back(MemberInfo{change->member, change->address});
        std::sort(members_.begin(), members_.end(),
                  [](const MemberInfo& a, const MemberInfo& b) {
                    return a.id < b.id;
                  });
        if (change->member >= next_member_id_) {
          next_member_id_ = change->member + 1;
        }
      }
      if (i_am_sequencer()) {
        const auto pending = seq_->pending_joins.find(change->address.id);
        if (pending != seq_->pending_joins.end()) {
          seq_send_snapshot(change->member, change->address);
          seq_->pending_joins.erase(pending);
        }
      }
      break;
    }
    case MessageKind::handoff: {
      // The sequencer role moves; nobody departs.
      if (!reset_floor_.has_value()) pass_role(change->new_sequencer);
      if (change->member == my_id_) {
        // We were the old sequencer: the transfer is complete.
        leaving_ = false;
        transfer_to_.reset();
        auto done = std::move(transfer_done_);
        transfer_done_ = nullptr;
        if (done) done(Status::ok);
      }
      break;
    }
    case MessageKind::leave:
    case MessageKind::expel: {
      members_.erase(std::remove_if(members_.begin(), members_.end(),
                                    [&](const MemberInfo& m) {
                                      return m.id == change->member;
                                    }),
                     members_.end());
      detector_.forget(change->member);
      bb_delivered_.erase(change->member);
      bb_stash_.erase(bb_stash_.lower_bound({change->member, 0}),
                      bb_stash_.upper_bound({change->member, UINT32_MAX}));
      if (i_am_sequencer()) {
        Regime& r = *seq_;
        r.horizon.erase(change->member);
        r.last_status_horizon.erase(change->member);
        r.pending_leaves.erase(change->member);
        r.sender_state.erase(change->member);
        // A departed member's checkpoint ack must not pin (or count
        // toward) the group's compaction horizon, and it must not hold (or
        // wait for) a flow-control slot.
        r.ckpt_acks.erase(change->member);
        std::erase_if(r.fc_queue, [&](const auto& e) {
          return e.first == change->member;
        });
        seq_release_fc_slot(change->member);
      }
      // Remember where to reach the departed member until it has caught up
      // to its own departure event (bounded set).
      departed_[change->member] = {change->address, msg.seq + 1};
      while (departed_.size() > 32) departed_.erase(departed_.begin());
      if (change->member == my_id_) {
        if (msg.kind == MessageKind::leave && leaving_) {
          finish_leave();
        } else {
          // Expelled: the failure detector declared us dead while we were
          // alive (Section 2.1 allows this). We are out.
          enter_failed(Status::not_member);
        }
        return;
      }
      if (change->new_sequencer != kInvalidMember) {
        // The departing sequencer drained the group first.
        if (!reset_floor_.has_value()) pass_role(change->new_sequencer);
      } else if (i_am_sequencer()) {
        // A member left: its horizon no longer constrains the history, and
        // tentative messages waiting on its ack can settle.
        std::map<SeqNum, Tentative>& tentative = seq_->tentative;
        for (auto it = tentative.begin(); it != tentative.end();) {
          it->second.awaiting.erase(change->member);
          const SeqNum s = it->first;
          const bool ready = it->second.awaiting.empty();
          ++it;
          if (ready) seq_finalize(s);
        }
        seq_trim_history();
        // The departed member may have been the straggler holding the
        // compaction horizon back.
        seq_maybe_announce_compaction();
      }
      break;
    }
    default:
      break;
  }
  install_view(false);
}

// --------------------------------------------------------------------------
// Durable log (EXTENSION: ROADMAP item 4; see docs/DURABILITY.md)
// --------------------------------------------------------------------------

bool GroupMember::log_active() const {
  return log_ != nullptr && cfg_.durability != Durability::off;
}

void GroupMember::set_durable_log(DurableLog* log) {
  log_ = log;
  if (log_ == nullptr) return;
  stats_.log_appends.store(log_->appends());
  stats_.log_fsyncs.store(log_->fsyncs());
  // Attaching a recovered (non-empty) log to an idle member: announce what
  // the disk brought back so the oracle can hold it against the pre-crash
  // sync horizon, even when the app skips recover_from_log.
  if (state_ == State::idle && !log_->empty()) {
    emit_log_recovery_events(*log_);
  }
  if (state_ == State::running && cfg_.durability != Durability::off) {
    start_fsync_timer();
  }
}

bool GroupMember::log_append_delivery(const GroupMessage& gm) {
  const Status s = log_->append_message(
      gm.seq, inc_, gm.sender, gm.kind, gm.sender_msg_id,
      std::span<const std::uint8_t>(gm.data.data(), gm.data.size()));
  stats_.log_appends.store(log_->appends());
  if (cfg_.durability == Durability::group_commit) schedule_log_sync();
  return s == Status::ok;
}

void GroupMember::log_persist_view() {
  LogViewRecord v;
  v.group = gaddr_;
  v.inc = inc_;
  v.my_id = my_id_;
  v.sequencer = seq_id_;
  v.next_deliver = next_deliver_;
  v.members = members_;
  (void)log_->append_view(v);
  if (cfg_.durability == Durability::group_commit) schedule_log_sync();
}

void GroupMember::schedule_log_sync() {
  // Group commit: one fsync covers every append of this executor round
  // (the Accept boundary) — deliveries batch into a single barrier instead
  // of paying one fsync per message.
  if (log_sync_scheduled_) return;
  log_sync_scheduled_ = true;
  exec_.post_idle([this] {
    log_sync_scheduled_ = false;
    flush_log();
  });
}

void GroupMember::flush_log() {
  if (log_ == nullptr) return;
  if (log_->dirty()) {
    const Status s = log_->sync();
    stats_.log_fsyncs.store(log_->fsyncs());
    if (s != Status::ok) {
      // Failed barrier: nothing new became durable, completions stay
      // pending. Retry shortly — a transient fault heals, a persistent one
      // keeps sends pending until their own budget surfaces the failure.
      if (log_sync_timer_ == transport::kInvalidTimer) {
        log_sync_timer_ = exec_.set_timer(Duration::millis(1), [this] {
          log_sync_timer_ = transport::kInvalidTimer;
          flush_log();
        });
      }
      return;
    }
    GTRACE(log_sync, .seq = log_->durable_hi(), .a = log_->lo());
  }
  if (pending_durable_.empty()) return;
  const SeqNum durable_hi = log_->durable_hi();
  const SeqNum lo = log_->lo();
  const bool log_empty = log_->empty();
  auto pending = std::move(pending_durable_);
  pending_durable_.clear();
  std::vector<PendingDurable> still;
  for (const PendingDurable& p : pending) {
    if (!log_empty && seq_ge(p.seq, lo) && seq_lt(p.seq, durable_hi)) {
      complete_entry(p.msg_id, Status::ok);
    } else if (log_empty || seq_lt(p.seq, lo)) {
      // The record fell out of the log before it became durable (write
      // fault consumed by a log reset): typed failure, never a hang.
      complete_entry(p.msg_id, Status::io_error);
    } else {
      still.push_back(p);
    }
  }
  for (const PendingDurable& p : still) pending_durable_.push_back(p);
}

void GroupMember::start_fsync_timer() {
  if (log_ == nullptr || cfg_.durability != Durability::async) return;
  exec_.cancel_timer(fsync_timer_);
  fsync_timer_ = exec_.set_timer(cfg_.fsync_interval, [this] {
    fsync_timer_ = transport::kInvalidTimer;
    if (state_ != State::running) return;
    if (log_ != nullptr && log_->dirty()) flush_log();
    start_fsync_timer();
  });
}

void GroupMember::emit_log_recovery_events(DurableLog& log) {
  GTRACE(restart, .seq = log.hi(), .a = log.lo());
  for (SeqNum s = log.lo(); seq_lt(s, log.hi()); ++s) {
    auto rec = log.read_message(s);
    if (!rec.has_value()) continue;
    GTRACE_AT_INC(log_recover, rec->inc, .mkind = rec->kind,
                  .peer = rec->sender, .seq = rec->seq,
                  .msg_id = rec->msg_id, .a = check::fingerprint(rec->data));
  }
}

void GroupMember::note_checkpoint(SeqNum as_of) {
  ++stats_.checkpoints_taken;
  if (!have_ckpt_ || seq_gt(as_of, my_ckpt_horizon_)) {
    my_ckpt_horizon_ = as_of;  // horizons only advance
  }
  have_ckpt_ = true;
  if (state_ != State::running) return;
  if (i_am_sequencer()) {
    seq_note_ckpt_horizon(my_id_, my_ckpt_horizon_);
    return;
  }
  WireMsg m;
  m.type = WireType::ckpt_horizon;
  m.sender = my_id_;
  m.seq = my_ckpt_horizon_;
  m.piggyback = next_deliver_;
  // Best effort: loss is repaired by the horizon riding every subsequent
  // status heartbeat.
  send_to_sequencer(std::move(m));
}

Status GroupMember::recover_from_log(DurableLog* log) {
  if (state_ != State::idle || log == nullptr) {
    return Status::invalid_argument;
  }
  const auto& view = log->recovered_view();
  if (!view.has_value()) return Status::no_such_group;
  if (const Status s = check_config(); s != Status::ok) return s;
  log_ = log;
  gaddr_ = view->group;
  inc_ = view->inc;
  my_id_ = view->my_id;
  seq_id_ = view->sequencer;
  members_ = view->members;
  std::sort(members_.begin(), members_.end(),
            [](const MemberInfo& a, const MemberInfo& b) { return a.id < b.id; });
  for (const MemberInfo& m : members_) {
    if (m.id >= next_member_id_) next_member_id_ = m.id + 1;
  }
  // Delivered prefix: the persisted view's position, advanced over any
  // messages logged after that view was written.
  next_deliver_ = view->next_deliver;
  if (!log->empty() && seq_gt(log->hi(), next_deliver_)) {
    next_deliver_ = log->hi();
  }
  hist_base_ = next_deliver_;
  history_.clear();
  recovered_from_log_ = true;
  stats_.log_appends.store(log->appends());
  stats_.log_fsyncs.store(log->fsyncs());
  emit_log_recovery_events(*log);
  // Failed, not running: the group moved on without us. From here the
  // application either joins a ResetGroup (our durable suffix counts as
  // retrievable history) or calls rejoin_group().
  state_ = State::failed;
  flip_.join_group(gaddr_, [this](flip::Address src, flip::Address,
                                  BufView bytes) {
    on_group_packet(src, std::move(bytes));
  });
  return Status::ok;
}

void GroupMember::rejoin_group(StatusCb done) {
  if (state_ != State::failed || !recovered_from_log_) {
    done(Status::invalid_argument);
    return;
  }
  // Shed the recovered membership and rejoin through the ordinary join
  // path: the sequencer answers with a snapshot positioning us at the live
  // stream (checkpoint + log-suffix state transfer fills the app state).
  abandon_recovery();
  const flip::Address group = gaddr_;
  flip_.leave_group(gaddr_);
  gaddr_ = flip::Address{};
  members_.clear();
  ooo_.clear();
  clear_bb_stash();
  catchup_to_.reset();
  reset_floor_.reset();
  leaving_ = false;
  state_ = State::idle;
  join_group(group, std::move(done));
}

}  // namespace amoeba::group
