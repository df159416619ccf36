// GroupMember: the sequencer role.
//
// "The sequencer performs a simple and computationally unintensive task":
// stamp each request with the next sequence number and re-emit it (PB) or
// emit a short accept (BB); keep a history buffer for retransmission; trim
// it using the horizons members piggyback; detect and expel dead members;
// order membership changes into the same stream as data.
#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "group/durable_log.hpp"
#include "group/member.hpp"
#include "group/trace_events.hpp"

namespace amoeba::group {

namespace {
/// Per-entry wire overhead inside a seq_packed frame (sender, msg_id,
/// payload_len, kind, flags) — mirrors the codec's entry head in
/// message.cpp; used for the kBatchBytes budget.
constexpr std::size_t kPackedEntryOverhead = 14;
/// Byte budget for one packed frame's payload: 1398 bytes of FLIP payload
/// (one Ethernet fragment) minus the 60-byte group header, so packing
/// never induces fragmentation. A message larger than the budget still
/// travels — it simply gets a frame of its own, exactly as without
/// batching.
constexpr std::size_t kBatchBytes = 1338;
}  // namespace

void GroupMember::seq_take_role(bool from_predecessor) {
  seq_.emplace(cfg_.history_size);
  seq_->next_assign = next_deliver_;
  for (const MemberInfo& m : members_) seq_->horizon[m.id] = next_deliver_;
  detector_.reset();
  // Members re-report their checkpoint horizons on the next status
  // exchange; ours we know.
  if (have_ckpt_) seq_note_ckpt_horizon(my_id_, my_ckpt_horizon_);
  if (cross_shard_ && from_predecessor) {
    // The predecessor's cross-shard pending table died with its regime:
    // hold releases until origin retries have repopulated ours.
    seq_->xquarantine_until = exec_.now() + kXShardRetry * 4;
    ++stats_.xshard_quarantines;
    xshard_schedule_release();
  }
}

void GroupMember::seq_drop_role() {
  seq_.reset();
  detector_.reset();
  exec_.cancel_timer(xrelease_timer_);
  xrelease_timer_ = transport::kInvalidTimer;
}

void GroupMember::pass_role(MemberId successor) {
  const bool held = i_am_sequencer();
  seq_id_ = successor;
  if (successor == my_id_) {
    // The old sequencer drained the group before handing off, so every
    // member has everything: we start with a clean history.
    hist_base_ = next_deliver_;
    history_.clear();
    seq_take_role(true);
  } else if (held) {
    seq_drop_role();
  }
}

void GroupMember::seq_on_request(const flip::Address&, WireMsg m,
                                 bool via_bb) {
  seq_note_horizon(m.sender, m.piggyback);
  if (find_member(m.sender) == nullptr) return;  // stale / not a member
  if (m.kind != MessageKind::app) {
    seq_assign(m.sender, m.msg_id, m.kind, std::move(m.payload), via_bb);
    return;
  }

  // Per-sender FIFO: requests are sequenced strictly in msg_id order so
  // pipelined sends (max_outstanding > 1) keep the paper's FIFO-total
  // ordering; duplicates are answered from the recent-assignment map.
  SenderState& ss = seq_->sender_state[m.sender];
  if (m.range_from > ss.expected) {
    // The sender's whole pipeline starts past our expectation: everything
    // below its window base completed under a previous sequencer (or was
    // recovered and trimmed). Fast-forward; FIFO still holds from here.
    ss.expected = m.range_from;
  }
  if (m.msg_id < ss.expected) {
    const auto it = ss.recent.find(m.msg_id);
    if (it != ss.recent.end()) seq_serve_retransmit(m.sender, it->second);
    return;
  }
  if (m.msg_id > ss.expected) {
    // Early arrival (an earlier message of the pipeline was dropped):
    // hold it; the sender's retry fills the gap. Bounded.
    if (ss.held.size() < 32) {
      ss.held.emplace(m.msg_id, std::make_pair(std::move(m.payload), via_bb));
    }
    return;
  }
  // In order: sequence it and drain any held successors.
  if (!seq_assign(m.sender, m.msg_id, MessageKind::app, std::move(m.payload),
                  via_bb)) {
    return;  // stalled (capacity/drain); expected unchanged, sender retries
  }
  ++ss.expected;
  while (true) {
    const auto held = ss.held.find(ss.expected);
    if (held == ss.held.end()) break;
    BufView data = std::move(held->second.first);
    const bool held_bb = held->second.second;
    ss.held.erase(held);
    if (!seq_assign(m.sender, ss.expected, MessageKind::app, std::move(data),
                    held_bb)) {
      break;  // re-held? dropped: the sender's retry re-offers it
    }
    ++ss.expected;
  }
}

bool GroupMember::seq_assign(MemberId sender, std::uint32_t msg_id,
                             MessageKind kind, BufView data, bool via_bb) {
  const bool app = kind == MessageKind::app;
  if (app && (seq_->handoff_issued || leaving_)) {
    // Draining for a hand-off (leave or transfer): refuse new work so the
    // group can quiesce; the sender's retry reaches the next sequencer.
    return false;
  }
  // Capacity: the span of undiscarded messages (next_assign - hist_base_)
  // covers delivered history, tentatives, and in-flight local loopbacks.
  const auto span = static_cast<std::size_t>(seq_->next_assign - hist_base_);
  if (app && span >= cfg_.history_size) {
    // No room: drop the request; the sender's retransmission timer owns
    // recovery. This is the overload behaviour behind Figure 4's
    // throughput collapse ("the protocol waits until timers expire to
    // send retransmissions").
    ++stats_.history_stalls;
    seq_check_laggards();
    return false;
  }

  const SeqNum s = seq_->next_assign++;
  if (app && sender != kInvalidMember) {
    SenderState& ss = seq_->sender_state[sender];
    ss.recent.emplace(msg_id, s);
    while (ss.recent.size() > 32) ss.recent.erase(ss.recent.begin());
    // Flow control: sequencing the message releases its transmission slot.
    if (cfg_.flow_control) seq_release_fc_slot(sender);
  }
  ++stats_.messages_sequenced;
  GTRACE(stamp, .mkind = kind,
         .flags = via_bb ? std::uint8_t{1} : std::uint8_t{0}, .peer = sender,
         .seq = s, .msg_id = msg_id, .a = check::fingerprint(data));
  // The sequencer's re-emit copy: history buffer -> Lance for the broadcast.
  exec_.charge(exec_.costs().copy_time(data.size()));

  // Batching: the stamped message joins the pending frame instead of being
  // multicast immediately. The flush below (inline when the batch fills or
  // the message is a membership event; otherwise a zero-delay event that
  // lands behind the current CPU backlog) packs everything stamped in the
  // meantime into one frame — so an idle sequencer still emits per-message
  // with unchanged timing, and a busy one amortizes the emission cost over
  // exactly its backlog.
  PendingStamp ps;
  ps.seq = s;
  ps.sender = sender;
  ps.msg_id = msg_id;
  ps.kind = kind;
  ps.accept_only = via_bb;  // BB: data travelled with the sender's multicast

  bool none_needed = false;
  if (cfg_.resilience > 0 && app) {
    Tentative t;
    t.msg.sender = sender;
    t.msg.kind = kind;
    t.msg.msg_id = msg_id;
    t.msg.data = data;
    t.msg.have_data = true;
    t.awaiting = resil_ackers(sender);
    t.created = exec_.now();
    none_needed = t.awaiting.empty();
    seq_->tentative.emplace(s, std::move(t));
    if (tentative_sweep_timer_ == transport::kInvalidTimer) {
      tentative_sweep_timer_ = exec_.set_timer(
          cfg_.send_retry / 2, [this] { seq_tentative_sweep(); });
    }
    ps.flags = kFlagTentative;
  }
  if (!via_bb) ps.payload = std::move(data);
  seq_->batch_bytes_pending += kPackedEntryOverhead + ps.payload.size();
  seq_->batch.push_back(std::move(ps));
  // Resilience satisfied immediately (no acker ranks below r): the final
  // accept rides the same frame as the tentative entry.
  if (none_needed) seq_finalize(s);

  if (!app || seq_->batch.size() >= cfg_.batch_count ||
      seq_->batch_bytes_pending >= kBatchBytes) {
    seq_flush_emit();  // membership events and full batches go out now
  } else {
    seq_schedule_flush();
  }

  if (span + 1 >= cfg_.history_size * 3 / 4) seq_check_laggards();
  return true;
}

std::set<MemberId> GroupMember::resil_ackers(MemberId sender) const {
  // "Any r members besides the sending kernel would be fine, but to
  // simplify the implementation we pick the r lowest-numbered" — besides
  // the sending kernel: when the sender itself holds one of the r lowest
  // ids the next member up substitutes, or an ok completion would rest on
  // fewer than r remote copies and r crashes could lose the message. The
  // sequencer's own member may be among them; its acknowledgement takes
  // the local dispatch path (no wire traffic, but real processing).
  std::set<MemberId> eligible;
  for (const MemberInfo& m : members_) {
    // A member whose leave/expel is already sequenced (pending_leaves)
    // will never ack again; picking it would wedge the message until the
    // change delivers — which itself sits behind the wedge.
    if (m.id != sender && seq_->pending_leaves.count(m.id) == 0) {
      eligible.insert(m.id);
    }
  }
  std::set<MemberId> out;
  for (const MemberId id : eligible) {
    if (out.size() >= cfg_.resilience) break;
    out.insert(id);
  }
  return out;
}

void GroupMember::seq_on_resil_ack(const WireMsg& m) {
  const auto it = seq_->tentative.find(m.seq);
  if (it == seq_->tentative.end()) return;
  it->second.awaiting.erase(m.sender);
  if (it->second.awaiting.empty()) seq_finalize(m.seq);
}

void GroupMember::seq_finalize(SeqNum seq) {
  const auto it = seq_->tentative.find(seq);
  if (it == seq_->tentative.end()) return;
  Tentative t = std::move(it->second);
  seq_->tentative.erase(it);
  // The short accept: members (and our own loopback) may now deliver. It
  // piggybacks on the next packed data frame when one is pending;
  // otherwise consecutive accepts coalesce into one seq_accept_range.
  AcceptRec a;
  a.seq = seq;
  a.sender = t.msg.sender;
  a.msg_id = t.msg.msg_id;
  a.kind = t.msg.kind;
  a.flags = 0;
  seq_->pending_accepts.push_back(a);
  seq_schedule_flush();
}

void GroupMember::seq_schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Zero added delay: the event fires at the same virtual time, but only
  // after every frame already buffered in the receive ring has been
  // dispatched — which is exactly the backlog the frame should pack. With
  // no backlog it degrades to an immediate post, so a lone message pays
  // nothing.
  exec_.post_idle([this] {
    flush_scheduled_ = false;
    // The role may have moved (hand-off, failure) since scheduling; the
    // takeover/failure paths already discarded the batch.
    if (state_ != State::running || !i_am_sequencer()) return;
    seq_flush_emit();
  });
}

void GroupMember::seq_drain_pending() {
  if (seq_->batch.empty() && seq_->pending_accepts.empty()) return;
  seq_flush_emit();
}

void GroupMember::seq_flush_emit() {
  if (seq_->batch.empty() && seq_->pending_accepts.empty()) return;
  std::vector<PendingStamp> batch = std::move(seq_->batch);
  seq_->batch.clear();
  std::vector<AcceptRec> accepts = std::move(seq_->pending_accepts);
  seq_->pending_accepts.clear();
  seq_->batch_bytes_pending = 0;
  const auto& costs = exec_.costs();

  if (batch.empty()) {
    seq_emit_accepts(accepts);
    return;
  }

  // Data frames. The batch is consecutive in seq (stamped in arrival
  // order), so chunk greedily under the count/byte budgets; the first
  // frame carries every pending accept. An oversize message gets a frame
  // of its own (the first entry of a chunk is always admitted). When the
  // accepts would push that first entry past FLIP's message limit, they
  // follow the data on frames of their own instead.
  const bool piggyback =
      kWireHeaderBytes + 4 + (accepts.size() + 1) * kPackedEntryOverhead +
          batch.front().payload.size() <=
      flip::kMaxMessage;
  std::vector<PackedEntry> entries;
  std::size_t i = 0;
  bool first = piggyback;
  while (i < batch.size()) {
    std::size_t bytes = 4 + (first ? accepts.size() * kPackedEntryOverhead : 0);
    std::size_t j = i;
    while (j < batch.size() && (j - i) < cfg_.batch_count) {
      const std::size_t need = kPackedEntryOverhead + batch[j].payload.size();
      if (j > i && bytes + need > kBatchBytes) break;
      bytes += need;
      ++j;
    }
    const std::span<const AcceptRec> frame_accepts =
        first ? std::span<const AcceptRec>(accepts)
              : std::span<const AcceptRec>();
    first = false;
    exec_.charge(costs.group_emit);

    if (j - i == 1 && frame_accepts.empty()) {
      // Singleton with nothing to piggyback: emit the seed's unbatched
      // wire frame, bit-identical to batch_count = 1.
      PendingStamp& e = batch[i];
      WireMsg bc;
      bc.seq = e.seq;
      bc.sender = e.sender;
      bc.msg_id = e.msg_id;
      bc.kind = e.kind;
      bc.flags = e.flags;
      bc.piggyback = next_deliver_;
      if (e.accept_only) {
        bc.type = WireType::seq_accept;
        multicast(std::move(bc));
        // No payload in the frame: NACKs for this seq take the encoding
        // fallback (which caches the full retransmit it builds).
        seq_cache_store(e.seq, BufView(), false);
      } else {
        bc.type = WireType::seq_data;
        bc.payload = std::move(e.payload);
        seq_cache_store(e.seq, multicast(std::move(bc)),
                        (e.flags & kFlagTentative) != 0);
      }
    } else {
      entries.clear();
      entries.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) {
        PackedEntry pe;
        pe.sender = batch[k].sender;
        pe.msg_id = batch[k].msg_id;
        pe.kind = batch[k].kind;
        pe.flags = static_cast<std::uint8_t>(
            batch[k].flags | (batch[k].accept_only ? kFlagAcceptOnly : 0));
        pe.payload = batch[k].payload;
        entries.push_back(std::move(pe));
      }
      WireMsg h;
      h.type = WireType::seq_packed;
      h.seq = batch[i].seq;
      h.range_from = batch[i].seq;
      h.range_count = static_cast<std::uint32_t>(j - i);
      h.piggyback = next_deliver_;
      ++stats_.batch_frames_emitted;
      stats_.batch_messages_packed += j - i;
      BufView frame = multicast_packed(h, frame_accepts, entries);
      for (std::size_t k = i; k < j; ++k) {
        const PendingStamp& e = batch[k];
        // Accept-only entries carry no payload, so the packed frame cannot
        // serve a member that missed the BB data itself.
        seq_cache_store(e.seq, e.accept_only ? BufView() : frame,
                        (e.flags & kFlagTentative) != 0);
      }
    }
    i = j;
  }
  if (!piggyback) seq_emit_accepts(accepts);
}

void GroupMember::seq_emit_accepts(std::vector<AcceptRec>& accepts) {
  const auto& costs = exec_.costs();
  // Finalization order need not be contiguous (acks race), so sort and
  // emit each consecutive run as one range frame; a run of one is the
  // seed's plain seq_accept.
  std::sort(accepts.begin(), accepts.end(),
            [](const AcceptRec& x, const AcceptRec& y) {
              return seq_lt(x.seq, y.seq);
            });
  std::size_t i = 0;
  while (i < accepts.size()) {
    std::size_t j = i + 1;
    while (j < accepts.size() && accepts[j].seq == accepts[j - 1].seq + 1) {
      ++j;
    }
    exec_.charge(costs.group_emit);
    if (j - i == 1) {
      const AcceptRec& a = accepts[i];
      WireMsg acc;
      acc.type = WireType::seq_accept;
      acc.seq = a.seq;
      acc.sender = a.sender;
      acc.msg_id = a.msg_id;
      acc.kind = a.kind;
      acc.flags = a.flags;
      acc.piggyback = next_deliver_;
      multicast(std::move(acc));
    } else {
      WireMsg h;
      h.type = WireType::seq_accept_range;
      h.seq = accepts[i].seq;
      h.range_from = accepts[i].seq;
      h.range_count = static_cast<std::uint32_t>(j - i);
      h.piggyback = next_deliver_;
      ++stats_.accept_ranges_emitted;
      multicast_accept_range(
          h, std::span<const AcceptRec>(accepts).subspan(i, j - i));
    }
    i = j;
  }
}

void GroupMember::seq_cache_store(SeqNum seq, BufView frame,
                                  bool tentative_form) {
  // The cache mirrors a contiguous run of broadcast seqs; any
  // discontinuity (role takeover, recovery) restarts it at `seq`.
  RingBuffer<CachedFrame>& cache = seq_->frame_cache;
  if (cache.empty()) {
    seq_->cache_base = seq;
  } else if (seq != seq_->cache_base + static_cast<SeqNum>(cache.size())) {
    cache.clear();
    seq_->cache_base = seq;
  }
  if (cache.full()) {
    cache.try_pop();
    ++seq_->cache_base;
  }
  cache.try_push(CachedFrame{std::move(frame), tentative_form});
}

void GroupMember::seq_tentative_sweep() {
  tentative_sweep_timer_ = transport::kInvalidTimer;
  if (!i_am_sequencer() || seq_->tentative.empty()) return;
  // A lost tentative broadcast or a lost acknowledgement would otherwise
  // stall the message forever: re-offer stale tentatives to the members
  // whose acks are still missing (they re-ack on duplicate tentatives).
  const Time now = exec_.now();
  for (const auto& [seq, t] : seq_->tentative) {
    if (now - t.created < cfg_.send_retry / 2) continue;
    for (const MemberId m : t.awaiting) {
      seq_serve_retransmit(m, seq);
      // "If after a certain number of trials a process does not respond,
      // the process is declared dead" (Section 2.1). An acker that stays
      // silent across repeated re-offers wedges the whole stream (nothing
      // past this seq can deliver), so hand it to the failure detector:
      // a live-but-slow member answers the probe and is cleared.
      if (now - t.created >= cfg_.send_retry * 2) detector_.suspect(m);
    }
  }
  tentative_sweep_timer_ =
      exec_.set_timer(cfg_.send_retry / 2, [this] { seq_tentative_sweep(); });
}

void GroupMember::seq_catch_up(MemberId member, SeqNum from) {
  // An idle status report revealed a member that never saw the tail of the
  // stream (the lost broadcast had no successor to expose the gap). Push
  // the missing messages; duplicates are harmless.
  std::uint32_t served = 0;
  for (SeqNum s = from;
       seq_lt(s, seq_->next_assign) && served < nack_limit(); ++s, ++served) {
    seq_serve_retransmit(member, s);
  }
}

void GroupMember::seq_on_nack(const WireMsg& m) {
  for (SeqNum s = m.range_from;
       seq_lt(s, m.range_from + m.range_count); ++s) {
    seq_serve_retransmit(m.sender, s);
  }
}

void GroupMember::seq_serve_retransmit(MemberId to, SeqNum seq) {
  const MemberInfo* member = find_member(to);
  flip::Address target;
  if (member != nullptr) {
    target = member->address;
  } else {
    // A departed member may still need the stream up to its own
    // leave/expel event before it can finish leaving.
    const auto dep = departed_.find(to);
    if (dep == departed_.end() || seq_ge(seq, dep->second.second)) return;
    target = dep->second.first;
  }

  // O(1) fast path: the cache holds the exact wire frame that carried this
  // seq (a seq_data, seq_accept, or seq_packed broadcast, pre-encoded).
  // Serving is an index plus a resend — no payload copy, no re-encode. A
  // cached tentative-form frame is only valid while the seq is still
  // tentative; after finalization it would re-offer a tentative the
  // requester could never resolve, so fall through to the encoding path
  // (which refreshes the cache with the final form).
  if (const CachedFrame* e = seq_->cached(seq);
      e != nullptr && !e->frame.empty() &&
      (!e->tentative_form || seq_->tentative.count(seq) > 0)) {
    ++stats_.retransmits_served;
    ++stats_.retransmit_cache_hits;
    GTRACE(retransmit, .peer = to, .seq = seq);
    if (to == my_id_) return;  // we obviously have it
    flip_.send(target, my_addr_, e->frame);  // lvalue: frame stays cached
    return;
  }

  WireMsg m;
  m.type = WireType::retransmit;
  m.seq = seq;
  m.piggyback = next_deliver_;

  if (const auto t = seq_->tentative.find(seq); t != seq_->tentative.end()) {
    m.sender = t->second.msg.sender;
    m.msg_id = t->second.msg.msg_id;
    m.kind = t->second.msg.kind;
    m.flags = kFlagTentative;
    m.payload = t->second.msg.data;
  } else if (seq_ge(seq, hist_base_) &&
             seq_lt(seq, hist_base_ + static_cast<SeqNum>(history_.size()))) {
    const GroupMessage& h = history_.at(seq - hist_base_);
    m.sender = h.sender;
    m.msg_id = h.sender_msg_id;
    m.kind = h.kind;
    m.payload = h.data;
  } else if (const auto o = ooo_.find(seq);
             o != ooo_.end() && o->second.have_data) {
    // Accepted, our own loopback delivery still in flight.
    m.sender = o->second.sender;
    m.msg_id = o->second.msg_id;
    m.kind = o->second.kind;
    m.payload = o->second.data;
  } else if (auto rec = log_ != nullptr ? log_->read_message(seq)
                                        : std::optional<LogRecord>{};
             rec.has_value()) {
    // Durable-log fallback: the memory history already trimmed past this
    // seq but the log still holds it (compaction lags the history window).
    m.sender = rec->sender;
    m.msg_id = rec->msg_id;
    m.kind = rec->kind;
    m.payload = rec->data;  // shares the record's buffer; outlives `rec`
  } else {
    ++stats_.retransmit_misses;
    return;
  }
  ++stats_.retransmits_served;
  GTRACE(retransmit, .peer = to, .seq = seq);
  exec_.charge(exec_.costs().copy_time(m.payload.size()));
  if (to == my_id_) return;  // we obviously have it
  ++stats_.retransmit_payload_encodes;
  m.incarnation = inc_;
  const bool final_form = (m.flags & kFlagTentative) == 0;
  BufView frame = encode_wire(m);
  CachedFrame* slot = seq_->cached(seq);
  if (final_form && slot != nullptr) {
    // Refresh: subsequent NACKs for this seq hit the cache with the final
    // form (the common case after a finalized tentative or a BB accept).
    *slot = CachedFrame{frame, false};
  }
  flip_.send(target, my_addr_, std::move(frame));
}

void GroupMember::seq_note_horizon(MemberId member, SeqNum piggyback) {
  if (!i_am_sequencer() || member == kInvalidMember) return;
  auto [it, inserted] = seq_->horizon.try_emplace(member, piggyback);
  if (!inserted) {
    if (seq_le(piggyback, it->second)) return;
    it->second = piggyback;
  }
  detector_.clear(member);  // it answered; not a laggard
  seq_trim_history();
  if (leaving_ && !seq_->handoff_issued) check_sequencer_handoff();
}

void GroupMember::seq_note_ckpt_horizon(MemberId member, SeqNum as_of) {
  if (!i_am_sequencer() || member == kInvalidMember) return;
  if (find_member(member) == nullptr) return;  // departed / stale
  auto [it, inserted] = seq_->ckpt_acks.try_emplace(member, as_of);
  if (!inserted) {
    if (seq_le(as_of, it->second)) return;  // horizons only advance
    it->second = as_of;
  }
  seq_maybe_announce_compaction();
}

void GroupMember::seq_maybe_announce_compaction() {
  if (!i_am_sequencer() || members_.empty()) return;
  // The horizon is the minimum over *current* members; a member that has
  // never checkpointed pins compaction entirely (its log still needs the
  // full suffix should it have to serve recovery or state transfer).
  SeqNum min_h = 0;
  bool first = true;
  for (const MemberInfo& m : members_) {
    const auto it = seq_->ckpt_acks.find(m.id);
    if (it == seq_->ckpt_acks.end()) return;
    min_h = first ? it->second : seq_min(min_h, it->second);
    first = false;
  }
  if (seq_->announced_any && seq_le(min_h, seq_->announced_compaction)) return;
  seq_->announced_compaction = min_h;
  seq_->announced_any = true;
  WireMsg m;
  m.type = WireType::compaction_notice;
  m.sender = my_id_;
  m.seq = min_h;
  m.piggyback = next_deliver_;
  // Loops back to us like any group frame, so our own log compacts through
  // the same dispatch path as everyone else's. Loss is repaired by the
  // next announcement (horizons keep advancing).
  multicast(std::move(m));
}

void GroupMember::seq_trim_history() {
  if (!i_am_sequencer() || history_.empty()) return;
  // A message may leave the history once every horizon has passed it:
  // everyone delivered it, nobody can NACK it, and (for recovery) every
  // survivor already applied it.
  SeqNum min_h = next_deliver_;
  for (const auto& [id, h] : seq_->horizon) min_h = seq_min(min_h, h);
  while (!history_.empty() && seq_lt(hist_base_, min_h)) {
    history_.try_pop();
    ++hist_base_;
  }
  // The retransmit cache follows the history window: below min_h nobody
  // can NACK.
  while (!seq_->frame_cache.empty() && seq_lt(seq_->cache_base, min_h)) {
    seq_->frame_cache.try_pop();
    ++seq_->cache_base;
  }
}

void GroupMember::seq_check_laggards() {
  if (!i_am_sequencer()) return;

  // Who is holding the history back?
  MemberId laggard = kInvalidMember;
  SeqNum min_h = seq_->next_assign;
  for (const auto& [id, h] : seq_->horizon) {
    if (id == my_id_) continue;
    if (seq_lt(h, min_h)) {
      min_h = h;
      laggard = id;
    }
  }
  // Only a member pinning the history base is worth suspecting. The
  // detector module owns the probe cadence and the declared-dead verdict
  // (its callbacks send the status_req and issue the ordered expel).
  if (laggard == kInvalidMember || seq_gt(min_h, hist_base_)) return;
  detector_.suspect(laggard);
}

void GroupMember::seq_issue_membership(MessageKind kind,
                                       const MembershipChange& change) {
  assert(i_am_sequencer());
  if (kind == MessageKind::leave || kind == MessageKind::expel) {
    // The departing member must stop gating resilience NOW, not when the
    // change delivers: the leave/expel itself is sequenced after any
    // wedged tentative, so waiting for delivery would deadlock. Scrub it
    // from every pending tentative (finalizing any now satisfied) and —
    // via pending_leaves, cleared when the change applies — from the
    // acker choice for messages stamped in the interim.
    seq_->pending_leaves.insert(change.member);
    std::vector<SeqNum> ready;
    for (auto& [seq, t] : seq_->tentative) {
      if (t.awaiting.erase(change.member) > 0 && t.awaiting.empty()) {
        ready.push_back(seq);
      }
    }
    for (const SeqNum s : ready) seq_finalize(s);
  }
  seq_assign(my_id_, 0, kind, encode_membership_change(change),
             /*via_bb=*/false);
}

void GroupMember::seq_on_join(const WireMsg& m) {
  const flip::Address joiner = m.addr;
  if (joiner.is_null() || joiner == my_addr_) return;

  if (const MemberInfo* existing = find_member_by_addr(joiner)) {
    // The snapshot got lost; resend. The joiner's horizon entry has kept
    // everything it might still need in the history.
    seq_send_snapshot(existing->id, joiner);
    return;
  }
  if (seq_->pending_joins.count(joiner.id) > 0) return;  // join in flight

  const MemberId id = next_member_id_++;
  seq_->pending_joins[joiner.id] = id;
  MembershipChange c;
  c.member = id;
  c.address = joiner;
  const SeqNum join_seq = seq_->next_assign;  // the seq the join will get
  seq_issue_membership(MessageKind::join, c);
  // The joiner delivers from just past its own join event; pin the history
  // there until it reports progress.
  seq_->horizon[id] = join_seq + 1;
}

void GroupMember::seq_send_snapshot(MemberId to_id, const flip::Address& to) {
  Snapshot s;
  s.incarnation = inc_;
  s.your_id = to_id;
  s.sequencer = my_id_;
  s.next_member_id = next_member_id_;
  const auto h = seq_->horizon.find(to_id);
  s.next_seq = h != seq_->horizon.end() ? h->second : seq_->next_assign;
  s.members = members_;
  WireMsg m;
  m.type = WireType::join_snapshot;
  m.sender = my_id_;
  m.payload = encode_snapshot(s);
  send_to_address(to, std::move(m));
}

void GroupMember::seq_on_leave(const WireMsg& m) {
  const MemberId who = m.sender;
  if (find_member(who) == nullptr) return;      // already gone
  if (!seq_->pending_leaves.insert(who).second) return;  // leave in flight
  const MemberInfo* info = find_member(who);
  MembershipChange c;
  c.member = who;
  c.address = info->address;
  seq_issue_membership(MessageKind::leave, c);
}

void GroupMember::transfer_sequencer(MemberId to, StatusCb done) {
  if (state_ != State::running || !i_am_sequencer() || leaving_) {
    done(Status::invalid_argument);
    return;
  }
  if (to == my_id_) {
    done(Status::ok);  // already there
    return;
  }
  if (find_member(to) == nullptr) {
    done(Status::not_member);
    return;
  }
  leaving_ = true;  // drain exactly like a departing sequencer
  transfer_to_ = to;
  transfer_done_ = std::move(done);
  check_sequencer_handoff();
}

// --- Multicast flow control (extension) ------------------------------------

void GroupMember::seq_on_rts(const WireMsg& m) {
  if (find_member(m.sender) == nullptr) return;
  if (seq_->fc_granted.count(m.sender) > 0) {
    seq_send_cts(m.sender, m.msg_id);  // CTS was lost: re-grant
    return;
  }
  for (const auto& [member, msg_id] : seq_->fc_queue) {
    if (member == m.sender) return;  // already waiting
  }
  if (seq_->fc_granted.size() < static_cast<std::size_t>(cfg_.fc_slots)) {
    seq_->fc_granted.insert(m.sender);
    seq_send_cts(m.sender, m.msg_id);
  } else {
    seq_->fc_queue.emplace_back(m.sender, m.msg_id);
  }
}

void GroupMember::seq_send_cts(MemberId to, std::uint32_t msg_id) {
  const MemberInfo* member = find_member(to);
  if (member == nullptr) return;
  WireMsg cts;
  cts.type = WireType::fc_cts;
  cts.sender = my_id_;
  cts.msg_id = msg_id;
  cts.piggyback = next_deliver_;
  send_to_address(member->address, std::move(cts));
}

void GroupMember::seq_release_fc_slot(MemberId member) {
  if (seq_->fc_granted.erase(member) > 0) seq_grant_next_fc();
}

void GroupMember::seq_grant_next_fc() {
  while (seq_->fc_granted.size() < static_cast<std::size_t>(cfg_.fc_slots) &&
         !seq_->fc_queue.empty()) {
    const auto [member, msg_id] = seq_->fc_queue.front();
    seq_->fc_queue.pop_front();
    if (find_member(member) == nullptr) continue;  // departed while queued
    seq_->fc_granted.insert(member);
    seq_send_cts(member, msg_id);
  }
}

void GroupMember::check_sequencer_handoff() {
  if (!leaving_ || !i_am_sequencer() || seq_->handoff_issued) return;

  if (members_.size() == 1 && !transfer_to_.has_value()) {
    finish_leave();  // last member out: the group dissolves
    return;
  }

  // Hand off only when the group is drained: everything assigned has been
  // delivered everywhere, so the successor can start with a clean history.
  if (!seq_->tentative.empty() || !outs_.empty()) return;
  if (next_deliver_ != seq_->next_assign) return;
  for (const MemberInfo& m : members_) {
    const auto h = seq_->horizon.find(m.id);
    if (h == seq_->horizon.end() || seq_lt(h->second, seq_->next_assign)) {
      // Prod the stragglers.
      if (m.id != my_id_) {
        WireMsg req;
        req.type = WireType::status_req;
        req.sender = my_id_;
        req.piggyback = next_deliver_;
        send_to_address(m.address, std::move(req));
      }
      return;
    }
  }

  MemberId successor = kInvalidMember;
  if (transfer_to_.has_value()) {
    if (find_member(*transfer_to_) == nullptr) {
      // The designated successor vanished while we drained.
      leaving_ = false;
      transfer_to_.reset();
      auto done = std::move(transfer_done_);
      transfer_done_ = nullptr;
      if (done) done(Status::not_member);
      return;
    }
    successor = *transfer_to_;
  } else {
    for (const MemberInfo& m : members_) {
      if (m.id != my_id_ &&
          (successor == kInvalidMember || m.id < successor)) {
        successor = m.id;
      }
    }
  }
  seq_->handoff_issued = true;
  MembershipChange c;
  c.member = my_id_;
  c.address = my_addr_;
  c.new_sequencer = successor;
  seq_issue_membership(
      transfer_to_.has_value() ? MessageKind::handoff : MessageKind::leave, c);
}

}  // namespace amoeba::group
