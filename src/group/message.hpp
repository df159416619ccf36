// Group protocol wire messages.
//
// Every group-layer message shares one fixed header whose encoded size is
// padded to exactly kGroupHeaderBytes + kUserHeaderBytes = 60 bytes, so
// that together with the link (16) and FLIP (40) headers a minimal group
// frame costs the paper's 116 header bytes on the simulated wire.
//
// The `piggyback` field is the negative-acknowledgement scheme's positive
// half: every message a member sends toward the sequencer carries the
// highest sequence number it has delivered, which is what lets the
// sequencer trim its history buffer without explicit ack traffic
// (Section 3.1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.hpp"
#include "common/seqnum.hpp"
#include "flip/address.hpp"
#include "flip/wire.hpp"
#include "group/types.hpp"

namespace amoeba::group {

/// Padded encoded header size: the paper's 28-byte group header plus the
/// 32-byte Amoeba user header. A decoded payload view starts exactly this
/// many bytes into the received datagram.
inline constexpr std::size_t kWireHeaderBytes =
    flip::kGroupHeaderBytes + flip::kUserHeaderBytes;

enum class WireType : std::uint8_t {
  data_pb = 1,    // sender -> sequencer (point-to-point request, PB method)
  data_bb,        // sender -> group (multicast request, BB method)
  seq_data,       // sequencer -> group: full message stamped with seq
  seq_accept,     // sequencer -> group: short accept (BB / resilience final)
  resil_ack,      // member -> sequencer: tentative seq received & buffered
  nack,           // member -> sequencer: retransmit [range_from, +count)
  retransmit,     // sequencer -> member: unicast seq_data replay
  status_req,     // sequencer -> member: report your horizon
  status_rep,     // member -> sequencer: piggyback-only heartbeat
  join_req,       // prospective member -> group address
  join_snapshot,  // sequencer -> joiner: full group state
  leave_req,      // member -> sequencer
  reset_invite,   // coordinator -> group: rebuild under (incarnation, id)
  reset_vote,     // member -> coordinator
  reset_retrieve, // coordinator -> member: send me these messages
  reset_missing,  // member -> coordinator: replay for recovery
  reset_result,   // coordinator -> group: new view installed
  fc_rts,         // sender -> sequencer: request slot for a large message
  fc_cts,         // sequencer -> sender: slot granted, transmit
  seq_packed,     // sequencer -> group: several consecutive stamped messages
  seq_accept_range,  // sequencer -> group: accepts for [range_from, +count)
  ckpt_horizon,      // member -> sequencer: checkpoint covers [.., seq)
  compaction_notice, // sequencer -> group: all members checkpointed < seq
  // --- Cross-shard atomic multicast (EXTENSION: sharded Node layer) -------
  xshard_send,     // node -> shard sequencer: propose a timestamp for xid
  xshard_propose,  // shard sequencer -> node: proposed timestamp
  xshard_commit,   // node -> shard sequencer: final timestamp + payload
};

/// Flag bits in WireMsg::flags.
constexpr std::uint8_t kFlagTentative = 0x01;  // resilience: not yet stable
/// Packed-entry flag: the payload travelled with the sender's BB multicast,
/// so this entry is a short accept (payload_len 0), not a data message.
constexpr std::uint8_t kFlagAcceptOnly = 0x02;

struct WireMsg {
  WireType type{WireType::data_pb};
  Incarnation incarnation{0};
  MemberId sender{kInvalidMember};
  /// Highest contiguous seq the sender has delivered (piggybacked ack).
  SeqNum piggyback{0};
  /// Sender-local id of a data message (duplicate suppression).
  std::uint32_t msg_id{0};
  SeqNum seq{0};
  std::uint8_t flags{0};
  MessageKind kind{MessageKind::app};
  /// nack / reset_retrieve range.
  SeqNum range_from{0};
  std::uint32_t range_count{0};
  /// join_req: joiner's process address; reset_invite: coordinator address.
  flip::Address addr;
  /// Payload view. On receive this aliases the datagram's backing buffer
  /// (zero-copy); on send it aliases the user's adopted buffer or the
  /// sequencer's history entry.
  BufView payload;
};

/// Encode to a FLIP message. Header is padded to 60 bytes, so the wire
/// accounting size of the result is 60 + payload bytes (FLIP adds 40, the
/// link adds 16: total 116 + payload). Header and payload are written into
/// one pooled allocation; the payload bytes are copied exactly once here.
BufView encode_wire(const WireMsg& m);
/// Decode a datagram. Takes the view by value: the returned message's
/// payload is a sub-view of `bytes` (zero-copy) — pass an rvalue to hand
/// over the reference without touching the refcount.
std::optional<WireMsg> decode_wire(BufView bytes);

// --- Batched sequencer frames (seq_packed / seq_accept_range) -------------
//
// seq_packed carries `range_count` consecutive stamped messages whose
// sequence numbers start at the header's `range_from` (each entry's seq is
// implicit), preceded by any accepts the sequencer had pending (explicit
// seqs — finalization order need not be contiguous). seq_accept_range
// carries accepts for the consecutive run [range_from, range_from + count).
// Receivers unpack both into the exact per-message events the unbatched
// seq_data / seq_accept frames would have produced, so every downstream
// invariant (and the conformance oracle) is untouched by batching.

/// One data message inside a seq_packed frame. Its seq is implicit:
/// header.range_from + its index. kFlagAcceptOnly marks a BB message whose
/// payload travelled with the sender's multicast (payload empty here).
struct PackedEntry {
  MemberId sender{kInvalidMember};
  std::uint32_t msg_id{0};
  MessageKind kind{MessageKind::app};
  std::uint8_t flags{0};  // kFlagTentative | kFlagAcceptOnly
  BufView payload;
};

/// One accept, either piggybacked on a seq_packed frame (explicit seq) or
/// part of a seq_accept_range run (seq implied by position; filled in by
/// the decoder).
struct AcceptRec {
  SeqNum seq{0};
  MemberId sender{kInvalidMember};
  std::uint32_t msg_id{0};
  MessageKind kind{MessageKind::app};
  std::uint8_t flags{0};
};

/// Encode a full seq_packed wire frame in one allocation (header + accept
/// section + entries; every payload byte is written exactly once).
/// `header.type` must be seq_packed and `header.range_count` must equal
/// `entries.size()`; `header.range_from` names the first entry's seq.
BufView encode_packed_wire(const WireMsg& header,
                           std::span<const AcceptRec> accepts,
                           std::span<const PackedEntry> entries);
/// Parse a decoded seq_packed message's payload. Entry payloads alias the
/// datagram (zero-copy); accept seqs are explicit in the encoding. Returns
/// false on any malformed input: truncated sections, counts that disagree
/// with the header or the payload length, or trailing garbage.
bool decode_packed_payload(const WireMsg& m, std::vector<AcceptRec>& accepts,
                           std::vector<PackedEntry>& entries);

/// Encode a seq_accept_range frame. `recs` must be ordered, consecutive in
/// seq, and match header.range_from/range_count (seqs are implicit on the
/// wire).
BufView encode_accept_range_wire(const WireMsg& header,
                                 std::span<const AcceptRec> recs);
/// Parse a decoded seq_accept_range payload; fills each rec's seq from
/// header.range_from + index. False on length/count mismatch.
bool decode_accept_range_payload(const WireMsg& m,
                                 std::vector<AcceptRec>& recs);

// --- Cross-shard atomic multicast frames (xshard_*) ------------------------
//
// A multi-shard send is coordinated by the origin Node (Skeen's algorithm,
// the FlexCast / Generic Multicast lineage): the node asks every addressed
// shard's sequencer for a timestamp proposal (xshard_send -> xshard_propose),
// takes the maximum, and commits it back (xshard_commit, which carries the
// payload again so a retried commit is self-contained after a sequencer
// change). The committed frame's payload bytes double as the in-stream
// representation: the sequencer injects them verbatim as a MessageKind::
// xshard entry of its ordinary total order, so followers, resilience,
// NACK/retransmit, and recovery treat it like any other stream message.

/// Payload of xshard_send: xid (origin node id << 32 | counter), the
/// addressed-shard bitmask, the origin node id, and the user bytes (carried
/// so a proposal re-request after sequencer loss is self-contained).
struct XShardSend {
  std::uint64_t xid{0};
  std::uint32_t mask{0};
  std::uint32_t origin{0};
  BufView data;
};

/// Payload of xshard_propose: one shard's timestamp proposal for xid.
struct XShardPropose {
  std::uint64_t xid{0};
  std::uint32_t shard{0};
  std::uint64_t ts{0};
};

/// Payload of xshard_commit AND of the injected MessageKind::xshard stream
/// entry: the agreed final timestamp plus everything a shard that lost its
/// pending state needs to deliver correctly.
struct XShardCommit {
  std::uint64_t xid{0};
  std::uint32_t mask{0};
  std::uint32_t origin{0};
  std::uint64_t final_ts{0};
  BufView data;
};
/// Encoded XShardCommit ahead of its user bytes (xid, mask, origin,
/// final_ts): the envelope a cross-shard payload adds to a group message.
inline constexpr std::size_t kXShardCommitHeadBytes = 24;

/// Encode full wire frames in one allocation (header + payload; user bytes
/// copied exactly once). `header.type` must match.
BufView encode_xshard_send_wire(const WireMsg& header, const XShardSend& x);
BufView encode_xshard_propose_wire(const WireMsg& header,
                                   const XShardPropose& x);
BufView encode_xshard_commit_wire(const WireMsg& header, const XShardCommit& x);

/// Parse payloads. `data` fields alias the input view (zero-copy). False on
/// truncated or size-mismatched input.
bool decode_xshard_send_payload(const BufView& payload, XShardSend& out);
bool decode_xshard_propose_payload(const BufView& payload, XShardPropose& out);
bool decode_xshard_commit_payload(const BufView& payload, XShardCommit& out);

// --- Structured payload helpers ------------------------------------------

/// join_snapshot / reset_result payload.
struct Snapshot {
  Incarnation incarnation{0};
  MemberId your_id{kInvalidMember};  // receiver's id (snapshot only)
  MemberId sequencer{kInvalidMember};
  MemberId next_member_id{0};
  SeqNum next_seq{0};  // first sequence number of the new regime
  std::vector<MemberInfo> members;
};
Buffer encode_snapshot(const Snapshot& s);
std::optional<Snapshot> decode_snapshot(std::span<const std::uint8_t> bytes);

/// reset_vote payload: what this member can contribute to recovery.
struct Vote {
  MemberId member{kInvalidMember};
  flip::Address address;
  SeqNum next_deliver{0};  // delivered prefix is [.., next_deliver)
  /// Contiguous span of messages this member still buffers: [lo, hi).
  SeqNum hist_lo{0};
  SeqNum hist_hi{0};
  /// Tentative (not yet accepted) sequence numbers buffered beyond hi.
  std::vector<SeqNum> tentative;
  /// Contiguous span held on this member's durable log: [durable_lo,
  /// durable_hi). Empty (lo == hi) when the member runs without a log.
  /// Recovery treats it like a second history range, which is what lets
  /// ResetGroup prefer the longest durable suffix among survivors.
  SeqNum durable_lo{0};
  SeqNum durable_hi{0};
};
Buffer encode_vote(const Vote& v);
std::optional<Vote> decode_vote(std::span<const std::uint8_t> bytes);

/// join/leave/expel system-message payload.
Buffer encode_membership_change(const MembershipChange& c);
std::optional<MembershipChange> decode_membership_change(
    std::span<const std::uint8_t> bytes);

/// reset_missing payload: a batch of recovered messages.
struct RecoveredMessage {
  SeqNum seq{0};
  MemberId sender{kInvalidMember};
  MessageKind kind{MessageKind::app};
  std::uint32_t msg_id{0};
  BufView data;
};
Buffer encode_recovered(const std::vector<RecoveredMessage>& msgs);
std::optional<std::vector<RecoveredMessage>> decode_recovered(
    std::span<const std::uint8_t> bytes);

}  // namespace amoeba::group
