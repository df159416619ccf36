// The Amoeba group protocol state machine.
//
// One GroupMember embodies one process's membership in one group: the
// sender side of SendToGroup (PB and BB methods, dynamic switching), the
// receiver side (sequence-gap detection, negative acknowledgements,
// in-order delivery), the sequencer role (ordering, history buffer,
// retransmission service, resilience-degree bookkeeping, membership), and
// the recovery protocol behind ResetGroup.
//
// The class is sans-I/O: every external effect flows through the injected
// FlipStack (wire) and Executor (time, CPU cost, timers). On the simulator
// the Executor advances virtual time by the paper's Table-3 layer costs;
// on the UDP runtime costs are zero and time is the steady clock. The
// protocol logic is byte-identical in both worlds.
//
// All methods must be called from the Executor's serialized context (the
// simulation loop / the runtime's locked loop thread). Blocking wrappers
// for application threads live in group/blocking.hpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "check/trace.hpp"
#include "common/relaxed_counter.hpp"
#include "common/result.hpp"
#include "common/ring_buffer.hpp"
#include "flip/stack.hpp"
#include "group/config.hpp"
#include "group/failure_detector.hpp"
#include "group/message.hpp"
#include "group/types.hpp"
#include "transport/runtime.hpp"

namespace amoeba::group {

/// Retry cadence of each phase of a Node's cross-shard round (xshard_send /
/// xshard_commit, one unicast + one reply each). A shard sequencer derives
/// its quarantine after a role change (4 x) and, with
/// GroupConfig::xshard_retries, its proposal expiry from the same value.
inline constexpr Duration kXShardRetry = Duration::millis(100);

/// Counters exposed for tests, benches, and GetInfoGroup diagnostics.
/// RelaxedCounter so monitors and tests may read them live while the
/// executor thread increments (each counter individually coherent; no
/// cross-counter snapshot ordering).
struct GroupStats {
  RelaxedCounter sends_pb;
  RelaxedCounter sends_bb;
  RelaxedCounter sends_completed;
  RelaxedCounter messages_delivered;
  RelaxedCounter messages_sequenced;
  RelaxedCounter nacks_sent;
  RelaxedCounter retransmits_served;
  RelaxedCounter retransmits_received;
  RelaxedCounter retransmit_misses;
  RelaxedCounter resil_acks_sent;
  RelaxedCounter duplicates_dropped;
  RelaxedCounter history_stalls;  // sequencer dropped a request: no room
  RelaxedCounter status_polls;
  RelaxedCounter expels_issued;
  RelaxedCounter resets_started;
  RelaxedCounter resets_completed;
  // Recovery-under-adversity observability: every retry the live path
  // takes, and every time a budget ran out, is countable.
  RelaxedCounter send_retries_fired;  // send retry timer fired
  RelaxedCounter nack_retries_fired;  // NACK re-asked after a silence
  RelaxedCounter join_retries_fired;  // join_req re-broadcast
  RelaxedCounter congestion_resets;   // retry counter reset: group alive
  RelaxedCounter send_budget_exhausted;  // send failed retry_exhausted
  // Sequencer batching / retransmit-cache observability.
  RelaxedCounter batch_frames_emitted;    // seq_packed frames multicast
  RelaxedCounter batch_messages_packed;   // messages carried by those frames
  RelaxedCounter accept_ranges_emitted;   // seq_accept_range frames multicast
  RelaxedCounter retransmit_cache_hits;   // NACKs served from cached frames
  RelaxedCounter retransmit_payload_encodes;  // NACKs that had to re-encode
  RelaxedCounter history_evictions;  // ring overwrote its oldest entry
  // Durable log / checkpoint / compaction observability (ROADMAP item 4).
  RelaxedCounter log_appends;        // records appended to the durable log
  RelaxedCounter log_fsyncs;         // fsync barriers issued
  RelaxedCounter checkpoints_taken;  // note_checkpoint() calls
  /// Gauge: latest group-agreed compaction horizon this member applied.
  RelaxedCounter compaction_horizon;
  // Cross-shard atomic multicast (EXTENSION: sharded Node layer).
  RelaxedCounter xshard_proposals;   // timestamp proposals issued (sequencer)
  RelaxedCounter xshard_commits;     // commits received (incl. duplicates)
  RelaxedCounter xshard_injected;    // committed messages entered the stream
  RelaxedCounter xshard_expired;     // uncommitted pendings timed out
  RelaxedCounter xshard_quarantines; // release holds after a role change
};

class DurableLog;

class GroupMember {
 public:
  using StatusCb = std::function<void(Status)>;
  using ResetCb = std::function<void(Status, std::uint32_t new_size)>;

  struct Callbacks {
    /// Totally-ordered delivery stream (application data and membership
    /// events alike; `kind` distinguishes them).
    std::function<void(const GroupMessage&)> on_message;
    /// A new view was installed (join/leave/expel applied, or recovery).
    std::function<void(const ViewChange&)> on_view;
    /// The group failed locally (sequencer unreachable / we were expelled).
    /// The application decides whether to call reset_group (Section 2.1:
    /// recovery is at the user's request).
    std::function<void(Status)> on_fault;
  };

  enum class State {
    idle,        // not in any group
    joining,     // join_req sent, waiting for snapshot
    running,     // normal operation
    recovering,  // ResetGroup in progress
    failed,      // lost the group; reset_group or leave
    left,        // left voluntarily
  };

  /// Largest application message: FLIP's limit minus the group header.
  static constexpr std::size_t kMaxMessage =
      flip::kMaxMessage - kWireHeaderBytes;

  /// Lifetime: completion and delivery callbacks run on the member's own
  /// call stack — never destroy the GroupMember from inside one (defer
  /// destruction to a fresh executor event instead).
  ///
  /// `node_shard` is passed only by Node::add_shard: the tag of the shard
  /// this member serves. A hosted member stamps the tag into every
  /// TraceEvent it emits and its sequencer serves cross-shard traffic
  /// (xshard_send / xshard_commit). A bare member (no tag) keeps the
  /// classic single-group trace shape and ignores the xshard wire types.
  GroupMember(flip::FlipStack& flip, transport::Executor& exec,
              flip::Address my_address, GroupConfig config, Callbacks cbs,
              std::optional<std::uint32_t> node_shard = std::nullopt);
  ~GroupMember();
  GroupMember(const GroupMember&) = delete;
  GroupMember& operator=(const GroupMember&) = delete;

  // --- Table 1 primitives -------------------------------------------------
  /// CreateGroup: become the group's first member and its sequencer.
  void create_group(flip::Address group, StatusCb done);
  /// JoinGroup: locate the sequencer through the group address and enter.
  void join_group(flip::Address group, StatusCb done);
  /// LeaveGroup: totally-ordered departure; sequencer hands off if needed.
  void leave_group(StatusCb done);
  /// SendToGroup: reliable, totally-ordered broadcast. Completion fires
  /// when the message is accepted (r = 0) or r-stable (r > 0). Sends are
  /// queued FIFO; each member has one message outstanding at a time,
  /// matching the blocking primitive. A message over kMaxMessage fails at
  /// once with Status::overflow.
  void send_to_group(Buffer data, StatusCb done);
  /// ResetGroup: rebuild after a processor failure. Fails with
  /// quorum_unreachable when fewer than `min_size` members respond.
  void reset_group(std::uint32_t min_size, ResetCb done);
  /// GetInfoGroup.
  GroupInfo info() const;

  /// Extension (Section 5 retrospective): migrate the sequencer role to
  /// another member without anyone leaving. Callable only on the current
  /// sequencer; the group is drained first so the successor starts with a
  /// clean history, then the hand-off is ordered like any membership
  /// event. Completion fires once the hand-off is delivered locally.
  void transfer_sequencer(MemberId to, StatusCb done);

  State state() const { return state_; }
  const GroupStats& stats() const { return stats_; }
  const GroupConfig& config() const { return cfg_; }
  /// BB payloads waiting for the accept that names them.
  std::size_t bb_stash_size() const { return bb_stash_.size(); }

  /// Structured event tracing (src/check): when a ring is attached, the
  /// protocol's semantic transitions (send/stamp/accept/deliver/view/...)
  /// are recorded for the ConformanceOracle. Null detaches. One
  /// null-check per site when unset; compiled out with AMOEBA_TRACE=OFF.
  void set_trace_ring(check::TraceRing* ring) { trace_ring_ = ring; }
  check::TraceRing* trace_ring() const { return trace_ring_; }

  // --- Durable log (EXTENSION: ROADMAP item 4; see docs/DURABILITY.md) ----
  /// Attach an opened durable log. With cfg.durability != off every
  /// delivery is appended; group_commit additionally defers own-send `ok`
  /// completions to the covering fsync. If the log holds recovered
  /// content, a `restart` event plus one `log_recover` event per message
  /// are emitted for the oracle's durability-across-restart obligations.
  void set_durable_log(DurableLog* log);
  DurableLog* durable_log() const { return log_; }
  /// Crash-restart-with-disk: restore identity, view epoch, and
  /// delivered-seq from a recovered log. Leaves the member in State::failed
  /// under its old identity, listening on the recovered group address — the
  /// application then either participates in ResetGroup (its durable
  /// suffix counts as retrievable history) or calls rejoin_group().
  Status recover_from_log(DurableLog* log);
  /// From failed-after-recover_from_log: shed the recovered membership and
  /// rejoin the (still live) group through the ordinary join path.
  void rejoin_group(StatusCb done);
  /// Application checkpoint notification: deliveries < as_of are covered
  /// by a persisted snapshot. Acked to the sequencer; once every member's
  /// ack covers a horizon, a compaction_notice lets all logs drop
  /// segments below it.
  void note_checkpoint(SeqNum as_of);

  flip::Address address() const { return my_addr_; }
  bool i_am_sequencer() const {
    const bool held = state_ == State::running && my_id_ == seq_id_;
    assert(held == seq_.has_value());
    return held;
  }
  /// Address of a member by id (RPC ForwardRequest uses this).
  std::optional<flip::Address> member_address(MemberId id) const;

 private:
  // --- Message plumbing -----------------------------------------------------
  void on_group_packet(flip::Address src, BufView bytes);   // multicast path
  void on_member_packet(flip::Address src, BufView bytes);  // unicast path
  void dispatch(const flip::Address& src, WireMsg m);
  void send_to_sequencer(WireMsg m);
  void send_to_address(const flip::Address& to, WireMsg m);
  /// Encode once, broadcast, and return the wire frame so the sequencer
  /// can cache the exact bytes for O(1) retransmission.
  BufView multicast(WireMsg m);
  BufView multicast_packed(WireMsg header, std::span<const AcceptRec> accepts,
                           std::span<const PackedEntry> entries);
  BufView multicast_accept_range(WireMsg header,
                                 std::span<const AcceptRec> recs);
  Duration dispatch_cost(const WireMsg& m) const;

  // --- Sender side ------------------------------------------------------------
  struct Outgoing;  // defined with the data members below
  void fill_pipeline();
  void transmit_entry(Outgoing& o);
  void transmit_all_outstanding();
  void on_send_timer(std::uint32_t msg_id);
  void complete_entry(std::uint32_t msg_id, Status s);
  Outgoing* find_outgoing(std::uint32_t msg_id);
  bool use_bb(std::size_t size) const;

  // --- Receiver side -----------------------------------------------------------
  struct PendingMsg {
    MemberId sender{kInvalidMember};
    MessageKind kind{MessageKind::app};
    std::uint32_t msg_id{0};
    BufView data;
    bool tentative{true};
    bool have_data{false};
    Time arrived{};  // when we first heard of this seq (NACK aging)
  };
  /// True when `p` should be (re-)requested from the sequencer: we lack
  /// its data, or it has sat tentative long enough that the final accept
  /// was probably lost.
  bool entry_missing(const PendingMsg& p, Time now) const {
    if (!p.have_data) return true;
    return p.tentative && (now - p.arrived) > cfg_.nack_retry;
  }
  /// How many missing messages one NACK, or one catch-up push from the
  /// sequencer, covers: kNackBatch, but never more than the history
  /// retains.
  static constexpr std::size_t kNackBatch = 16;
  std::size_t nack_limit() const {
    return std::min(kNackBatch, cfg_.history_size);
  }
  void on_seq_data(const WireMsg& m);
  void on_seq_accept(const WireMsg& m);
  /// Unpack a batched frame into the per-message events the unbatched
  /// frames would have produced (in seq order: data entries, then accepts).
  void on_seq_packed(const WireMsg& m);
  void on_seq_accept_range(const WireMsg& m);
  /// A BB payload from the sender's own multicast: fill its accept's slot,
  /// stash it until the accept comes, or drop it if already delivered.
  void on_bb_payload(const WireMsg& m);
  void clear_bb_stash();
  void maybe_send_resil_ack(SeqNum seq, MemberId sender);
  void drain_deliverable();
  void deliver(SeqNum seq, PendingMsg msg);
  void apply_membership(const GroupMessage& msg);
  void schedule_nack();
  void fire_nack();
  bool missing_anything() const;
  void append_history(SeqNum seq, const PendingMsg& msg);
  void start_status_timer();
  void on_status_timer();

  // --- Durable log hooks (member.cpp) --------------------------------------
  bool log_active() const;
  /// True iff the record reached the log (not necessarily synced yet).
  bool log_append_delivery(const GroupMessage& gm);
  void log_persist_view();
  void schedule_log_sync();
  void flush_log();
  void start_fsync_timer();
  void emit_log_recovery_events(DurableLog& log);

  // --- Sequencer side ---------------------------------------------------------
  /// Every change of role goes through these two. Taking the role builds a
  /// fresh Regime: next_assign and every member's horizon start at
  /// next_deliver_, the failure detector starts empty, our own checkpoint
  /// horizon is noted and, unless the group was just created
  /// (`from_predecessor` false), the cross-shard quarantine opens.
  /// Dropping it destroys the Regime, empties the detector and cancels the
  /// cross-shard release timer.
  void seq_take_role(bool from_predecessor);
  void seq_drop_role();
  /// A delivered hand-off names `successor`: take the role with a clean
  /// history if that is us, drop it if we held it.
  void pass_role(MemberId successor);
  void seq_on_request(const flip::Address& src, WireMsg m, bool via_bb);
  /// Core assignment; returns false when the request was refused
  /// (draining or history full) — the caller must not advance FIFO state.
  bool seq_assign(MemberId sender, std::uint32_t msg_id, MessageKind kind,
                  BufView data, bool via_bb);
  void seq_on_resil_ack(const WireMsg& m);
  void seq_finalize(SeqNum seq);
  // Batching: stamped messages and accepts accumulate and are flushed as
  // one packed frame once the batch fills or the CPU backlog drains.
  void seq_schedule_flush();
  void seq_flush_emit();
  /// Emit accepts with no data frame to ride: one range frame per
  /// consecutive run, a plain seq_accept for a run of one.
  void seq_emit_accepts(std::vector<AcceptRec>& accepts);
  /// Emit anything still batched (role hand-off / recovery boundaries).
  void seq_drain_pending();
  void seq_cache_store(SeqNum seq, BufView frame, bool tentative_form);
  void seq_tentative_sweep();
  void seq_catch_up(MemberId member, SeqNum from);
  void seq_on_nack(const WireMsg& m);
  void seq_serve_retransmit(MemberId to, SeqNum seq);
  void seq_note_horizon(MemberId member, SeqNum piggyback);
  /// Compaction protocol: record a member's checkpoint horizon and, when
  /// every current member has acked one, announce the group minimum.
  void seq_note_ckpt_horizon(MemberId member, SeqNum as_of);
  void seq_maybe_announce_compaction();
  void seq_trim_history();
  void seq_check_laggards();
  void seq_issue_membership(MessageKind kind, const MembershipChange& change);
  void seq_on_join(const WireMsg& m);
  void seq_send_snapshot(MemberId to_id, const flip::Address& to);
  void seq_on_leave(const WireMsg& m);
  void seq_on_rts(const WireMsg& m);
  void seq_send_cts(MemberId to, std::uint32_t msg_id);
  void seq_release_fc_slot(MemberId member);
  void seq_grant_next_fc();
  std::set<MemberId> resil_ackers(MemberId sender) const;
  bool history_full() const { return history_.size() >= cfg_.history_size; }

  // --- Cross-shard atomic multicast (xshard.cpp) ----------------------------
  void seq_on_xshard_send(const WireMsg& m);
  void seq_on_xshard_commit(const WireMsg& m);
  /// Release every committed cross-shard message whose position is decided:
  /// minimal by (final_ts, xid) among commits AND not possibly preceded by
  /// any still-uncommitted proposal. Injects releasable messages into the
  /// ordinary total order and re-arms the release timer while blocked.
  void xshard_try_release();
  void xshard_schedule_release();

  // --- Membership / views -------------------------------------------------------
  /// cfg_.normalize() plus the checks a Node-hosted member adds.
  Status check_config();
  const MemberInfo* find_member(MemberId id) const;
  const MemberInfo* find_member_by_addr(const flip::Address& a) const;
  void install_view(bool from_recovery);
  void enter_failed(Status why);
  void finish_join(const Snapshot& snap);
  void on_join_timer();
  void send_leave_req();  // and arm its retry
  void on_leave_timer();
  /// Our own departure is complete (or the group dissolved with us).
  void finish_leave();
  void check_sequencer_handoff();

  // --- Recovery (recovery.cpp) ----------------------------------------------
  void on_reset_invite(const flip::Address& src, const WireMsg& m);
  void on_reset_vote(const WireMsg& m);
  void on_reset_retrieve(const flip::Address& src, const WireMsg& m);
  void on_reset_missing(const WireMsg& m);
  void on_reset_result(const WireMsg& m);
  void coord_invite_round();
  void coord_try_conclude();
  void coord_request_missing();
  void coord_finish();
  void coord_fail(Status why);
  void send_my_vote();
  Vote local_vote() const;
  void abandon_recovery();

  // --- Data members ------------------------------------------------------------
  flip::FlipStack& flip_;
  transport::Executor& exec_;
  flip::Address my_addr_;
  GroupConfig cfg_;
  /// Node wiring (constructor's `node_shard`): the shard tag, and whether
  /// a Node hosts this member at all.
  std::uint32_t group_tag_;
  bool cross_shard_;
  Callbacks cbs_;
  GroupStats stats_;
  check::TraceRing* trace_ring_{nullptr};

  State state_{State::idle};
  flip::Address gaddr_;
  Incarnation inc_{0};
  std::vector<MemberInfo> members_;  // sorted by id
  MemberId my_id_{kInvalidMember};
  MemberId seq_id_{kInvalidMember};
  MemberId next_member_id_{0};

  // Receiver.
  SeqNum next_deliver_{0};
  std::map<SeqNum, PendingMsg> ooo_;
  std::map<std::pair<MemberId, std::uint32_t>, BufView> bb_stash_;
  /// Per sender, the msg_id of its latest delivered app message. Per-sender
  /// FIFO makes it a watermark: a BB payload at or below it is a late or
  /// repeated copy, and no stash entry below it will ever be used.
  std::map<MemberId, std::uint32_t> bb_delivered_;
  /// Contiguous delivered suffix; front has seq hist_base_. Ring-buffered
  /// so appends and trims are O(1) with no steady-state allocation. Sized
  /// with slack over cfg.history_size because system messages may overshoot
  /// the admission limit; when even the slack fills, the oldest entry is
  /// evicted (observable via stats_.history_evictions).
  RingBuffer<GroupMessage> history_;
  SeqNum hist_base_{0};
  transport::TimerId nack_timer_{transport::kInvalidTimer};
  int nack_attempts_{0};
  /// After recovery: the rebuilt stream extends to here; NACK our way up
  /// even though nothing sits in the out-of-order buffer yet.
  std::optional<SeqNum> catchup_to_;
  /// After a ResetGroup: the rebuilt stream's end. The reset's result names
  /// the rebuilt group's sequencer, so a hand-off (or a sequencer's leave)
  /// stamped below this and delivered only now is superseded: it must not
  /// move the role. Cleared by the first delivery at or above it.
  std::optional<SeqNum> reset_floor_;
  transport::TimerId status_timer_{transport::kInvalidTimer};

  // Sender.
  struct Outgoing {
    std::uint32_t msg_id{0};
    BufView data;
    StatusCb done;
    int attempts{0};
    bool via_bb{false};
    /// Flow control: a large message waits for the sequencer's CTS.
    bool needs_grant{false};
    bool granted{false};
    /// Delivery horizon when the retry counter last reset: congestion
    /// (group still progressing) must not be mistaken for sequencer death.
    SeqNum deliver_mark{0};
    /// Absolute give-up time (cfg.send_budget past admission); infinity
    /// when the budget is disabled.
    Time deadline{Time::infinity()};
    transport::TimerId timer{transport::kInvalidTimer};
  };
  /// In-flight sends, FIFO by msg_id (size <= cfg_.max_outstanding).
  std::deque<Outgoing> outs_;
  std::deque<std::pair<Buffer, StatusCb>> send_queue_;
  std::uint32_t next_msg_id_{1};

  // Joining.
  StatusCb join_done_;
  transport::TimerId join_timer_{transport::kInvalidTimer};
  int join_attempts_{0};

  // Leaving / sequencer hand-off. `leaving_` covers both: the sequencer
  // drains the group before giving up the role, whether it departs
  // (leave) or stays (transfer).
  StatusCb leave_done_;
  bool leaving_{false};
  int leave_attempts_{0};  // leave_req retries ride join_timer_
  std::optional<MemberId> transfer_to_;  // set: hand off, do not depart
  StatusCb transfer_done_;

  // Sequencer. What only the sequencer keeps lives in one Regime, built
  // when this member takes the role (CreateGroup, hand-off, ResetGroup) and
  // destroyed when the role goes, so no state outlives its regime.
  struct Tentative {
    PendingMsg msg;
    std::set<MemberId> awaiting;  // acks still missing
    Time created{};
  };
  /// Per-sender sequencing state: enforces FIFO across pipelined sends
  /// (requests sequenced strictly in msg_id order, gaps buffered) and
  /// remembers recent assignments for duplicate suppression.
  struct SenderState {
    std::uint32_t expected{1};  // next msg_id to sequence
    /// Early arrivals waiting for a gap: msg_id -> (payload, via_bb, kind).
    std::map<std::uint32_t, std::pair<BufView, bool>> held;
    /// Recently assigned msg_id -> seq (bounded; newest last).
    std::map<std::uint32_t, SeqNum> recent;
  };
  /// A stamped message not yet multicast (see Regime::batch).
  struct PendingStamp {
    SeqNum seq{0};
    MemberId sender{kInvalidMember};
    std::uint32_t msg_id{0};
    MessageKind kind{MessageKind::app};
    std::uint8_t flags{0};     // kFlagTentative when resilience > 0
    bool accept_only{false};   // BB: payload travelled with the multicast
    BufView payload;
  };
  /// One retransmit-cache slot. An empty frame (BB accept-only entries)
  /// and a stale cached form (tentative frame after finalization) fall
  /// back to the encoding path, which refreshes the slot.
  struct CachedFrame {
    BufView frame;
    bool tentative_form{false};
  };
  /// A cross-shard message this shard has proposed a timestamp for, or
  /// whose commit it holds (xshard.cpp walks through the protocol).
  struct XPending {
    std::uint64_t xid{0};
    std::uint64_t proposed{0};  // our timestamp proposal
    std::uint64_t final_ts{0};  // agreed max (committed only)
    bool committed{false};
    std::uint32_t mask{0};
    flip::Address reply_to;  // origin node endpoint (re-propose target)
    BufView payload;         // commit payload (committed entries only)
    Time created{};          // admission time (uncommitted expiry)
  };
  struct Regime {
    explicit Regime(std::size_t history_size)
        : frame_cache(std::max<std::size_t>(1, history_size)) {}
    SeqNum next_assign{0};
    std::map<SeqNum, Tentative> tentative;
    std::map<MemberId, SeqNum> horizon;  // per-member delivered prefix
    std::map<MemberId, SenderState> sender_state;
    std::map<std::uint64_t, MemberId> pending_joins;  // addr.id -> assigned id
    /// Leaves and expels already in the stream but not yet delivered.
    std::set<MemberId> pending_leaves;
    /// Flow-control slots (extension, Section 4's open problem): members
    /// currently cleared to transmit a large message, and those waiting.
    std::set<MemberId> fc_granted;
    std::deque<std::pair<MemberId, std::uint32_t>> fc_queue;
    /// Horizon reported by each member's previous idle heartbeat; a repeat
    /// of the same lagging value means the member is stuck, not just
    /// behind in-flight traffic.
    std::map<MemberId, SeqNum> last_status_horizon;
    bool handoff_issued{false};
    /// Batching. Stamped-but-not-yet-multicast messages and pending
    /// accepts; flushed inline when the batch fills (or a system message
    /// needs immediate emission) and otherwise by a zero-delay event that
    /// lands after the CPU backlog — so batching adds no latency when the
    /// sequencer is idle and packs exactly the backlog when it is busy.
    std::vector<PendingStamp> batch;
    std::size_t batch_bytes_pending{0};
    std::vector<AcceptRec> pending_accepts;
    /// O(1) retransmit cache: the exact pre-encoded wire frame for each
    /// history seq, aligned with the history window (cache_base = seq of
    /// slot 0). Serving a NACK is an index plus a resend — zero re-encodes.
    RingBuffer<CachedFrame> frame_cache;
    SeqNum cache_base{0};
    /// The cache slot for `seq`; null outside the cached window.
    CachedFrame* cached(SeqNum seq) {
      const auto n = static_cast<SeqNum>(frame_cache.size());
      if (frame_cache.empty() || !seq_ge(seq, cache_base) ||
          !seq_lt(seq, cache_base + n)) {
        return nullptr;
      }
      return &frame_cache.at(seq - cache_base);
    }
    /// Per-member checkpoint horizons. Entries for departed members are
    /// erased in apply_membership — a stale ack must never pin (or falsely
    /// advance) the group's compaction horizon.
    std::map<MemberId, SeqNum> ckpt_acks;
    SeqNum announced_compaction{0};
    bool announced_any{false};
    /// Cross-shard messages by xid (EXTENSION: sharded Node layer;
    /// followers see committed messages as ordinary stream entries).
    std::map<std::uint64_t, XPending> xpending;
    /// No cross-shard releases before this instant, so origin retries can
    /// repopulate the pending table a predecessor lost.
    Time xquarantine_until{};
  };
  /// Engaged exactly while i_am_sequencer() holds (asserted in Debug).
  std::optional<Regime> seq_;
  /// Recently departed members still catching up to their own leave/expel
  /// event: id -> (address, first seq they no longer receive). The
  /// sequencer serves their NACKs below that bound so a lagging leaver can
  /// reach its departure point (bounded; stale entries are evicted).
  std::map<MemberId, std::pair<flip::Address, SeqNum>> departed_;
  /// The unreliable failure detector (its own module — the Section 5
  /// lesson). Suspects are fed by history pressure; probes are
  /// status_reqs; death is an ordered expel.
  FailureDetector detector_;
  transport::TimerId tentative_sweep_timer_{transport::kInvalidTimer};
  bool flush_scheduled_{false};

  // Recovery.
  struct Recovery {
    bool coordinator{false};
    Incarnation incarnation{0};
    MemberId coord_id{kInvalidMember};
    flip::Address coord_addr;
    std::uint32_t min_size{0};
    ResetCb done;
    // Coordinator state:
    std::map<MemberId, Vote> votes;
    int invite_rounds{0};
    transport::TimerId timer{transport::kInvalidTimer};
    SeqNum target{0};           // rebuild delivers up to (not incl.) target
    std::set<SeqNum> missing;   // messages the coordinator still needs
    std::map<SeqNum, RecoveredMessage> recovered;
    int retrieve_attempts{0};
  };
  std::optional<Recovery> recovery_;
  /// Highest incarnation seen in any recovery message; a fresh coordinacy
  /// must outbid every earlier attempt.
  Incarnation max_inc_seen_{0};

  // Cross-shard atomic multicast (EXTENSION: sharded Node layer).
  /// Lamport-style shard clock: max(own proposals, observed finals).
  std::uint64_t xclock_{0};
  /// xids already injected into the stream (bounded FIFO memory so a
  /// re-sent commit after the injection is answered, not re-ordered).
  std::set<std::uint64_t> xreleased_;
  std::deque<std::uint64_t> xreleased_fifo_;
  transport::TimerId xrelease_timer_{transport::kInvalidTimer};

  // Durable log (EXTENSION: ROADMAP item 4). Owned by the embedder (test
  // harness / application); null means memory-only, the paper's protocol.
  DurableLog* log_{nullptr};
  bool log_sync_scheduled_{false};
  transport::TimerId log_sync_timer_{transport::kInvalidTimer};
  transport::TimerId fsync_timer_{transport::kInvalidTimer};
  /// group_commit: own sends delivered but awaiting the covering fsync.
  struct PendingDurable {
    std::uint32_t msg_id{0};
    SeqNum seq{0};
  };
  std::vector<PendingDurable> pending_durable_;
  /// Did recover_from_log restore a crashed identity (enables rejoin)?
  bool recovered_from_log_{false};
  /// Our own latest checkpoint horizon (acked to the sequencer).
  SeqNum my_ckpt_horizon_{0};
  bool have_ckpt_{false};
};

}  // namespace amoeba::group
