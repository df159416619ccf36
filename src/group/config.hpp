// Tunables of the group protocol.
//
// Only settings some caller varies are fields here. Values nothing varies
// are named constants beside the code that reads them: the PB/BB switch
// point, the flow-control threshold and the retry backoff shape in
// member.cpp, the NACK batch and the cross-shard retry cadence in
// member.hpp, the packed-frame byte budget in sequencer.cpp, and the
// ResetGroup retry counts and timeouts in recovery.cpp. The largest
// message is FLIP's limit minus the group header (GroupMember::
// kMaxMessage). Which shard a member serves is not a setting either: only
// Node::add_shard decides it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/result.hpp"
#include "common/seqnum.hpp"
#include "common/types.hpp"

namespace amoeba::group {

/// Which broadcast method SendToGroup uses (Section 3.1).
enum class Method : std::uint8_t {
  /// Choose by message size: small messages PB (fewer interrupts), large
  /// messages BB (half the bandwidth). This is what the Amoeba kernel does
  /// ("switches dynamically between the PB and BB methods depending on
  /// message size").
  dynamic = 0,
  pb,  // force point-to-point -> sequencer -> broadcast
  bb,  // force broadcast -> sequencer accept broadcast
};

/// EXTENSION (ROADMAP item 4): durability of the delivery stream.
enum class Durability : std::uint8_t {
  /// Paper behavior: memory-only. The history ring and resilience degree r
  /// are the only storage; a crashed member rejoins as an amnesiac.
  off = 0,
  /// Deliveries are appended to the durable log; fsync runs on a timer
  /// (`fsync_interval`). Cheap, but the tail since the last sync can be
  /// lost with a crash.
  async,
  /// One fsync per delivery batch, on the Accept boundary: a member's own
  /// send completes `ok` only after the covering fsync, so an acked
  /// message survives its sender's crash-with-disk.
  group_commit,
};

struct GroupConfig {
  /// Resilience degree r: SendToGroup returns only when >= r other kernels
  /// hold the message, so it survives any r member crashes (Section 3.1).
  std::uint32_t resilience = 0;

  Method method = Method::dynamic;

  /// History buffer length in messages (the paper's setup used 128).
  std::size_t history_size = 128;
  /// First sequence number assigned by a fresh group. Default 0; tests
  /// set values near 2^32 to exercise serial-number wraparound.
  SeqNum first_seq = 0;

  // --- Sender retransmission ---------------------------------------------
  /// Base delay before the first retransmission; subsequent retries back
  /// off exponentially (see the backoff block below).
  Duration send_retry = Duration::millis(100);
  int send_retries = 5;
  /// EXTENSION (the Section 5 "nonblocking primitives" discussion): how
  /// many sends one member may have in flight. 1 = the paper's blocking
  /// semantics. With k > 1 the sequencer still enforces per-sender FIFO
  /// (requests are sequenced in msg_id order, buffering gaps), so the
  /// ordering guarantees are unchanged; completions fire in send order.
  /// Throughput benches raise this to a real send window so concurrent
  /// senders stop serializing on the request/broadcast RTT.
  int max_outstanding = 1;

  // --- Sequencer batching (EXTENSION: Ring-Paxos-style packing) ----------
  /// While requests are queued at the sequencer, consecutive stamped
  /// messages are packed into one `seq_packed` multicast and pending
  /// accepts piggyback on it (or coalesce into one `seq_accept_range`).
  /// `batch_count` caps the messages per packed frame; 1 disables packing
  /// and reproduces the paper's one-multicast-per-message wire behaviour
  /// exactly (the ablation mode the benches compare against).
  std::size_t batch_count = 16;

  // --- Negative acknowledgements ------------------------------------------
  /// Retry cadence while a gap persists.
  Duration nack_retry = Duration::millis(25);

  // --- Join -----------------------------------------------------------------
  Duration join_retry = Duration::millis(100);
  int join_retries = 10;

  // --- Retry backoff (EXTENSION: live-path hardening) ----------------------
  // The send/NACK/join/leave retry timers double per attempt up to a cap,
  // with a deterministic ±25% multiplicative spread (hash of member id and
  // attempt — replayable in the simulator, desynchronized on real sockets);
  // see member.cpp. The send and leave timers cap here.
  Duration send_backoff_cap = Duration::seconds(1);
  /// Total wall/virtual-time budget for one SendToGroup. When the group is
  /// making progress but OUR message keeps losing (congestion, unlucky
  /// loss), the send completes with Status::retry_exhausted once the
  /// budget elapses instead of retrying forever — bounded degradation,
  /// surfaced through the blocking API as a typed error. zero = unbounded
  /// (the seed's behavior). A dead sequencer still fails the whole group
  /// with Status::timeout via the per-attempt budget above.
  Duration send_budget = Duration::seconds(60);

  // --- History trimming / failure detection --------------------------------
  /// Members proactively report their delivery horizon this often even
  /// when silent (piggybacking covers the active case).
  Duration status_interval = Duration::millis(250);
  /// When the history is >= 3/4 full the sequencer polls laggards; after
  /// `status_retries` unanswered polls a member is declared dead and
  /// expelled ("if after a certain number of trials a process does not
  /// respond, the process is declared dead", Section 2.1).
  Duration status_poll = Duration::millis(100);
  int status_retries = 4;

  // --- Recovery (ResetGroup) -------------------------------------------------
  Duration invite_interval = Duration::millis(100);

  // --- Multicast flow control (EXTENSION) -----------------------------------
  // The paper leaves multi-packet flow control open ("it is not
  // immediately clear how these should be extended to multicast
  // communication", Section 4) and shows the consequence: Figure 4's
  // throughput collapse when concurrent multi-fragment messages overflow
  // the sequencer's 32-frame Lance ring. This scheme closes the gap: a
  // sender whose message spans more than two Ethernet fragments first
  // requests a transmission slot (RTS); the sequencer grants at most
  // `fc_slots` concurrently (CTS), releasing each slot when the message is
  // sequenced. Small messages are unaffected.
  bool flow_control = false;
  /// Concurrent large transfers the sequencer admits.
  int fc_slots = 2;

  // --- Sharding / cross-shard multicast (EXTENSION: ROADMAP item 1) ---------
  /// Retry budget for each phase of the Node's xshard_send / xshard_commit
  /// exchanges (each is one unicast + one reply, retried every
  /// kXShardRetry). The sequencer derives its proposal expiry
  /// (2 x kXShardRetry x retries) from it, so every shard a Node hosts
  /// carries the same value. Read only by Node-hosted members.
  int xshard_retries = 10;

  // --- Durable log (EXTENSION: ROADMAP item 4) ------------------------------
  // Off by default so the paper-reproduction tables keep running the
  // memory-only protocol; see docs/DURABILITY.md.
  Durability durability = Durability::off;
  /// Segment rotation threshold for the durable log. Whole segments are
  /// deleted once the group's compaction horizon passes them.
  std::size_t log_segment_bytes = 1 << 20;
  /// `async` mode: cadence of the background fsync timer.
  Duration fsync_interval = Duration::millis(25);

  /// Validate and clamp the tunables. Called once by CreateGroup/JoinGroup
  /// so a nonsensical configuration surfaces as a typed Status::bad_config
  /// instead of silent misbehaviour (a zero-capacity history, ...).
  /// Over-large derived knobs are clamped to their anchors rather than
  /// rejected.
  Status normalize() {
    if (history_size == 0 || batch_count == 0) return Status::bad_config;
    if (max_outstanding < 1) max_outstanding = 1;
    // A packed frame can never usefully cover more messages than the
    // history retains.
    if (batch_count > history_size) batch_count = history_size;
    if (durability != Durability::off) {
      if (log_segment_bytes == 0) return Status::bad_config;
      if (durability == Durability::async && fsync_interval.ns <= 0) {
        return Status::bad_config;
      }
      // A segment that cannot hold even a handful of records would rotate
      // (and fsync) on nearly every append; clamp to a sane floor.
      if (log_segment_bytes < 4096) log_segment_bytes = 4096;
    }
    return Status::ok;
  }
};

}  // namespace amoeba::group
