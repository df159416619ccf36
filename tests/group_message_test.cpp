// Wire-format tests for the group protocol messages.
#include <gtest/gtest.h>

#include <cstring>

#include "flip/wire.hpp"
#include "group/message.hpp"

namespace amoeba::group {
namespace {

TEST(GroupWire, DataMessageRoundTrip) {
  WireMsg m;
  m.type = WireType::seq_data;
  m.incarnation = 3;
  m.sender = 7;
  m.piggyback = 41;
  m.msg_id = 99;
  m.seq = 42;
  m.flags = kFlagTentative;
  m.kind = MessageKind::app;
  m.payload = make_pattern_buffer(333);
  BufView bytes = encode_wire(m);
  auto d = decode_wire(std::move(bytes));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, WireType::seq_data);
  EXPECT_EQ(d->incarnation, 3u);
  EXPECT_EQ(d->sender, 7u);
  EXPECT_EQ(d->piggyback, 41u);
  EXPECT_EQ(d->msg_id, 99u);
  EXPECT_EQ(d->seq, 42u);
  EXPECT_EQ(d->flags, kFlagTentative);
  EXPECT_EQ(d->kind, MessageKind::app);
  EXPECT_EQ(d->payload, m.payload);
}

TEST(GroupWire, HeaderAccountsForPapersByteBudget) {
  WireMsg m;
  m.type = WireType::seq_accept;
  const BufView bytes = encode_wire(m);
  // Group (28) + user (32) header bytes; with FLIP (40) and link (16) this
  // makes the paper's 116-byte header budget.
  EXPECT_EQ(bytes.size(),
            flip::kGroupHeaderBytes + flip::kUserHeaderBytes);
}

TEST(GroupWire, EveryTypeRoundTrips) {
  for (std::uint8_t t = 1;
       t <= static_cast<std::uint8_t>(WireType::xshard_commit); ++t) {
    WireMsg m;
    m.type = static_cast<WireType>(t);
    m.sender = t;
    m.range_from = 5;
    m.range_count = 3;
    m.addr = flip::process_address(123);
    const auto d = decode_wire(encode_wire(m));
    ASSERT_TRUE(d.has_value()) << "type " << int(t);
    EXPECT_EQ(static_cast<std::uint8_t>(d->type), t);
    EXPECT_EQ(d->range_from, 5u);
    EXPECT_EQ(d->range_count, 3u);
    EXPECT_EQ(d->addr, flip::process_address(123));
  }
}

TEST(GroupWire, RejectsGarbage) {
  EXPECT_FALSE(decode_wire(Buffer{}).has_value());
  EXPECT_FALSE(decode_wire(Buffer(10, 0xFF)).has_value());
  WireMsg m;
  m.payload = make_pattern_buffer(100);
  const BufView enc = encode_wire(m);
  Buffer bytes(enc.begin(), enc.end());
  bytes.resize(bytes.size() - 20);  // truncated payload
  EXPECT_FALSE(decode_wire(std::move(bytes)).has_value());
  Buffer zero(60, 0);  // type 0 is invalid
  EXPECT_FALSE(decode_wire(std::move(zero)).has_value());
  // One past the last defined type (xshard_commit) must be rejected too:
  // this pins the decode bound to the end of the enum, so adding a wire type
  // without raising the bound fails here instead of silently dropping frames.
  WireMsg last;
  last.type = WireType::xshard_commit;
  const BufView le = encode_wire(last);
  Buffer past(le.begin(), le.end());
  past[0] = static_cast<std::uint8_t>(WireType::xshard_commit) + 1;
  EXPECT_FALSE(decode_wire(std::move(past)).has_value());
}

TEST(GroupWire, SnapshotRoundTrip) {
  Snapshot s;
  s.incarnation = 9;
  s.your_id = 4;
  s.sequencer = 0;
  s.next_member_id = 5;
  s.next_seq = 777;
  for (MemberId i = 0; i < 5; ++i) {
    s.members.push_back(MemberInfo{i, flip::process_address(i + 100)});
  }
  const auto d = decode_snapshot(encode_snapshot(s));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->incarnation, 9u);
  EXPECT_EQ(d->your_id, 4u);
  EXPECT_EQ(d->sequencer, 0u);
  EXPECT_EQ(d->next_member_id, 5u);
  EXPECT_EQ(d->next_seq, 777u);
  ASSERT_EQ(d->members.size(), 5u);
  EXPECT_EQ(d->members[3].address, flip::process_address(103));
}

TEST(GroupWire, SnapshotRejectsAbsurdMemberCount) {
  BufWriter w;
  w.u32(1);
  w.u32(1);
  w.u32(1);
  w.u32(1);
  w.u32(1);
  w.u32(1'000'000);  // claims a million members
  EXPECT_FALSE(decode_snapshot(std::move(w).take()).has_value());
}

TEST(GroupWire, VoteRoundTrip) {
  Vote v;
  v.member = 3;
  v.address = flip::process_address(42);
  v.next_deliver = 100;
  v.hist_lo = 80;
  v.hist_hi = 100;
  v.tentative = {100, 101, 103};
  v.durable_lo = 40;
  v.durable_hi = 100;
  const auto d = decode_vote(encode_vote(v));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->member, 3u);
  EXPECT_EQ(d->next_deliver, 100u);
  EXPECT_EQ(d->hist_lo, 80u);
  EXPECT_EQ(d->hist_hi, 100u);
  EXPECT_EQ(d->tentative, (std::vector<SeqNum>{100, 101, 103}));
  EXPECT_EQ(d->durable_lo, 40u);
  EXPECT_EQ(d->durable_hi, 100u);
}

TEST(GroupWire, VoteWithoutLogHasEmptyDurableRange) {
  // A member running without a durable log reports lo == hi; the decoded
  // vote must preserve that emptiness rather than invent a range.
  Vote v;
  v.member = 1;
  v.next_deliver = 7;
  const auto d = decode_vote(encode_vote(v));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->durable_lo, d->durable_hi);
  // Truncating the durable-range tail makes the vote malformed.
  const Buffer enc = encode_vote(v);
  EXPECT_FALSE(
      decode_vote(std::span(enc.data(), enc.size() - 4)).has_value());
}

TEST(GroupWire, MembershipChangeRoundTrip) {
  MembershipChange c;
  c.member = 6;
  c.address = flip::process_address(66);
  c.new_sequencer = 2;
  const auto d = decode_membership_change(encode_membership_change(c));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->member, 6u);
  EXPECT_EQ(d->address, flip::process_address(66));
  EXPECT_EQ(d->new_sequencer, 2u);
  EXPECT_FALSE(decode_membership_change(Buffer{1, 2}).has_value());
}

TEST(GroupWire, RecoveredBatchRoundTrip) {
  std::vector<RecoveredMessage> msgs;
  for (SeqNum s = 10; s < 13; ++s) {
    RecoveredMessage m;
    m.seq = s;
    m.sender = s % 2;
    m.kind = s == 11 ? MessageKind::join : MessageKind::app;
    m.msg_id = s * 7;
    m.data = make_pattern_buffer(s);
    msgs.push_back(std::move(m));
  }
  const auto d = decode_recovered(encode_recovered(msgs));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->size(), 3u);
  EXPECT_EQ((*d)[1].kind, MessageKind::join);
  EXPECT_EQ((*d)[2].msg_id, 84u);
  EXPECT_TRUE(check_pattern_buffer((*d)[2].data));
  EXPECT_FALSE(decode_recovered(Buffer{9, 9}).has_value());
}

// --- Batched frames (seq_packed / seq_accept_range) ------------------------

WireMsg packed_header(SeqNum from, std::uint32_t count) {
  WireMsg h;
  h.type = WireType::seq_packed;
  h.incarnation = 2;
  h.piggyback = 17;
  h.seq = from;
  h.range_from = from;
  h.range_count = count;
  return h;
}

TEST(GroupWire, PackedFrameRoundTrip) {
  std::vector<AcceptRec> accepts(2);
  accepts[0] = AcceptRec{297, 1, 7, MessageKind::app, 0};
  accepts[1] = AcceptRec{298, 2, 9, MessageKind::app, 0};

  const BufView big = make_pattern_buffer(100);
  const BufView small = make_pattern_buffer(9);
  std::vector<PackedEntry> entries(3);
  entries[0] = PackedEntry{4, 11, MessageKind::app, 0, big};
  entries[1] = PackedEntry{5, 12, MessageKind::app, kFlagTentative, small};
  // A BB message whose payload travelled with the sender's own multicast.
  entries[2] = PackedEntry{6, 13, MessageKind::app, kFlagAcceptOnly, {}};

  auto d = decode_wire(encode_packed_wire(packed_header(300, 3), accepts,
                                          entries));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, WireType::seq_packed);
  EXPECT_EQ(d->range_from, 300u);
  EXPECT_EQ(d->range_count, 3u);
  EXPECT_EQ(d->piggyback, 17u);

  std::vector<AcceptRec> da;
  std::vector<PackedEntry> de;
  ASSERT_TRUE(decode_packed_payload(*d, da, de));
  ASSERT_EQ(da.size(), 2u);
  EXPECT_EQ(da[0].seq, 297u);  // piggybacked accepts carry explicit seqs
  EXPECT_EQ(da[1].msg_id, 9u);
  ASSERT_EQ(de.size(), 3u);
  EXPECT_EQ(de[0].sender, 4u);
  EXPECT_EQ(de[0].payload, big);
  EXPECT_EQ(de[1].flags, kFlagTentative);
  EXPECT_EQ(de[1].payload, small);
  EXPECT_EQ(de[2].flags, kFlagAcceptOnly);
  EXPECT_TRUE(de[2].payload.empty());
}

TEST(GroupWire, PackedFrameRejectsMalformedInput) {
  std::vector<AcceptRec> accepts(1);
  accepts[0] = AcceptRec{5, 1, 2, MessageKind::app, 0};
  std::vector<PackedEntry> entries(2);
  const BufView pay = make_pattern_buffer(40);
  entries[0] = PackedEntry{3, 8, MessageKind::app, 0, pay};
  entries[1] = PackedEntry{4, 9, MessageKind::app, 0, {}};
  auto good = decode_wire(encode_packed_wire(packed_header(10, 2), accepts,
                                             entries));
  ASSERT_TRUE(good.has_value());
  std::vector<AcceptRec> da;
  std::vector<PackedEntry> de;
  ASSERT_TRUE(decode_packed_payload(*good, da, de));

  // Zero-count header.
  WireMsg zero = *good;
  zero.range_count = 0;
  EXPECT_FALSE(decode_packed_payload(zero, da, de));

  // Header claims more entries than the payload holds.
  WireMsg over = *good;
  over.range_count = 3;
  EXPECT_FALSE(decode_packed_payload(over, da, de));

  // Absurd count (above the sanity bound).
  WireMsg absurd = *good;
  absurd.range_count = 1u << 20;
  EXPECT_FALSE(decode_packed_payload(absurd, da, de));

  // Truncations at every section: accept table, entry head, entry payload,
  // and one byte short of a clean end.
  for (const std::size_t cut : {std::size_t{2}, std::size_t{17},
                                std::size_t{30}, good->payload.size() - 1}) {
    WireMsg t = *good;
    t.payload = good->payload.subview(0, cut);
    EXPECT_FALSE(decode_packed_payload(t, da, de)) << "cut=" << cut;
  }

  // Trailing garbage after the last entry is malformed, not ignored.
  Buffer longer(good->payload.size() + 1);
  std::memcpy(longer.data(), good->payload.data(), good->payload.size());
  WireMsg trailing = *good;
  trailing.payload = std::move(longer);
  EXPECT_FALSE(decode_packed_payload(trailing, da, de));

  // A lying accept_count that would overrun into the entry section.
  Buffer lie(good->payload.size());
  std::memcpy(lie.data(), good->payload.data(), good->payload.size());
  lie[0] = 0xff;
  lie[1] = 0xff;
  WireMsg lying = *good;
  lying.payload = std::move(lie);
  EXPECT_FALSE(decode_packed_payload(lying, da, de));
}

TEST(GroupWire, AcceptRangeRoundTrip) {
  WireMsg h;
  h.type = WireType::seq_accept_range;
  h.seq = 50;
  h.range_from = 50;
  h.range_count = 4;
  h.piggyback = 49;
  std::vector<AcceptRec> recs(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    recs[i] = AcceptRec{50 + i, i, 100 + i, MessageKind::app, 0};
  }
  auto d = decode_wire(encode_accept_range_wire(h, recs));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, WireType::seq_accept_range);
  std::vector<AcceptRec> out;
  ASSERT_TRUE(decode_accept_range_payload(*d, out));
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].seq, 50 + i);  // seqs implicit from range_from + index
    EXPECT_EQ(out[i].sender, i);
    EXPECT_EQ(out[i].msg_id, 100 + i);
  }
}

TEST(GroupWire, AcceptRangeRejectsMalformedInput) {
  WireMsg h;
  h.type = WireType::seq_accept_range;
  h.range_from = 50;
  h.range_count = 3;
  std::vector<AcceptRec> recs(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    recs[i] = AcceptRec{50 + i, i, i, MessageKind::app, 0};
  }
  auto good = decode_wire(encode_accept_range_wire(h, recs));
  ASSERT_TRUE(good.has_value());
  std::vector<AcceptRec> out;
  ASSERT_TRUE(decode_accept_range_payload(*good, out));

  WireMsg zero = *good;
  zero.range_count = 0;
  EXPECT_FALSE(decode_accept_range_payload(zero, out));

  WireMsg absurd = *good;
  absurd.range_count = 5000;  // above the sanity bound
  EXPECT_FALSE(decode_accept_range_payload(absurd, out));

  WireMsg mismatch = *good;
  mismatch.range_count = 2;  // payload length disagrees with the count
  EXPECT_FALSE(decode_accept_range_payload(mismatch, out));

  WireMsg cut = *good;
  cut.payload = good->payload.subview(0, good->payload.size() - 1);
  EXPECT_FALSE(decode_accept_range_payload(cut, out));
}

TEST(GroupWire, OverlappingAcceptRangesDecodeIndependently) {
  // Overlapping ranges are legal on the wire (retransmitted range frames
  // overlap what a receiver already delivered); each decodes standalone and
  // the receiver's duplicate suppression (seq < next_deliver) makes
  // re-application a no-op. Here: [50,54) and [52,56) share 52 and 53.
  for (const SeqNum from : {SeqNum{50}, SeqNum{52}}) {
    WireMsg h;
    h.type = WireType::seq_accept_range;
    h.range_from = from;
    h.range_count = 4;
    std::vector<AcceptRec> recs(4);
    for (std::uint32_t i = 0; i < 4; ++i) {
      recs[i] = AcceptRec{from + i, 1, from + i, MessageKind::app, 0};
    }
    auto d = decode_wire(encode_accept_range_wire(h, recs));
    ASSERT_TRUE(d.has_value());
    std::vector<AcceptRec> out;
    ASSERT_TRUE(decode_accept_range_payload(*d, out));
    EXPECT_EQ(out.front().seq, from);
    EXPECT_EQ(out.back().seq, from + 3);
  }
}

// --- Cross-shard frames (xshard_send / xshard_propose / xshard_commit) -----

WireMsg xshard_header(WireType t) {
  WireMsg h;
  h.type = t;
  h.incarnation = 4;
  h.sender = kInvalidMember;
  h.addr = flip::process_address(0x5001);
  return h;
}

TEST(GroupWire, XShardSendRoundTrip) {
  XShardSend s;
  s.xid = (std::uint64_t{7} << 32) | 19;
  s.mask = 0b1010;
  s.origin = 7;
  const BufView pay = make_pattern_buffer(57);
  s.data = pay;
  auto d = decode_wire(
      encode_xshard_send_wire(xshard_header(WireType::xshard_send), s));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, WireType::xshard_send);
  EXPECT_EQ(d->incarnation, 4u);
  EXPECT_EQ(d->sender, kInvalidMember);
  EXPECT_EQ(d->addr, flip::process_address(0x5001));
  XShardSend out;
  ASSERT_TRUE(decode_xshard_send_payload(d->payload, out));
  EXPECT_EQ(out.xid, s.xid);
  EXPECT_EQ(out.mask, 0b1010u);
  EXPECT_EQ(out.origin, 7u);
  EXPECT_EQ(out.data, pay);
}

TEST(GroupWire, XShardSendEmptyDataRoundTrips) {
  // An empty user payload is legal (the frame is pure coordination then).
  XShardSend s;
  s.xid = 1;
  s.mask = 0b11;
  auto d = decode_wire(
      encode_xshard_send_wire(xshard_header(WireType::xshard_send), s));
  ASSERT_TRUE(d.has_value());
  XShardSend out;
  ASSERT_TRUE(decode_xshard_send_payload(d->payload, out));
  EXPECT_EQ(out.xid, 1u);
  EXPECT_TRUE(out.data.empty());
}

TEST(GroupWire, XShardSendRejectsMalformedInput) {
  XShardSend s;
  s.xid = 42;
  s.mask = 0b101;
  s.origin = 3;
  s.data = make_pattern_buffer(20);
  auto good = decode_wire(
      encode_xshard_send_wire(xshard_header(WireType::xshard_send), s));
  ASSERT_TRUE(good.has_value());
  XShardSend out;
  // Truncations below the fixed head (xid 8 + mask 4 + origin 4 = 16).
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7},
                                std::size_t{15}}) {
    EXPECT_FALSE(
        decode_xshard_send_payload(good->payload.subview(0, cut), out))
        << "cut=" << cut;
  }
  // A zero destination mask addresses nothing; reject it.
  ASSERT_GE(good->payload.size(), 16u);
  Buffer nomask(good->payload.begin(), good->payload.end());
  for (std::size_t k = 8; k < 12; ++k) nomask.at(k) = 0;
  EXPECT_FALSE(decode_xshard_send_payload(std::move(nomask), out));
}

TEST(GroupWire, XShardProposeRoundTrip) {
  XShardPropose p;
  p.xid = (std::uint64_t{2} << 32) | 5;
  p.shard = 3;
  p.ts = 9001;
  auto d = decode_wire(
      encode_xshard_propose_wire(xshard_header(WireType::xshard_propose), p));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, WireType::xshard_propose);
  XShardPropose out;
  ASSERT_TRUE(decode_xshard_propose_payload(d->payload, out));
  EXPECT_EQ(out.xid, p.xid);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.ts, 9001u);
}

TEST(GroupWire, XShardProposeRejectsWrongLength) {
  XShardPropose p;
  p.xid = 1;
  p.shard = 0;
  p.ts = 1;
  auto good = decode_wire(
      encode_xshard_propose_wire(xshard_header(WireType::xshard_propose), p));
  ASSERT_TRUE(good.has_value());
  XShardPropose out;
  ASSERT_TRUE(decode_xshard_propose_payload(good->payload, out));
  // Fixed-size frame: any truncation is malformed...
  for (const std::size_t cut : {std::size_t{0}, std::size_t{8},
                                std::size_t{19}}) {
    EXPECT_FALSE(
        decode_xshard_propose_payload(good->payload.subview(0, cut), out))
        << "cut=" << cut;
  }
  // ...and so is trailing garbage (exact-length check, not a prefix parse).
  ASSERT_EQ(good->payload.size(), 20u);
  Buffer longer(good->payload.begin(), good->payload.end());
  longer.push_back(0);
  EXPECT_FALSE(decode_xshard_propose_payload(std::move(longer), out));
}

TEST(GroupWire, XShardCommitRoundTrip) {
  XShardCommit c;
  c.xid = (std::uint64_t{9} << 32) | 77;
  c.mask = 0b1111;
  c.origin = 9;
  c.final_ts = 123456;
  const BufView pay = make_pattern_buffer(33);
  c.data = pay;
  auto d = decode_wire(
      encode_xshard_commit_wire(xshard_header(WireType::xshard_commit), c));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, WireType::xshard_commit);
  XShardCommit out;
  ASSERT_TRUE(decode_xshard_commit_payload(d->payload, out));
  EXPECT_EQ(out.xid, c.xid);
  EXPECT_EQ(out.mask, 0b1111u);
  EXPECT_EQ(out.origin, 9u);
  EXPECT_EQ(out.final_ts, 123456u);
  EXPECT_EQ(out.data, pay);
}

TEST(GroupWire, XShardCommitRejectsMalformedInput) {
  XShardCommit c;
  c.xid = 5;
  c.mask = 0b11;
  c.final_ts = 7;
  c.data = make_pattern_buffer(12);
  auto good = decode_wire(
      encode_xshard_commit_wire(xshard_header(WireType::xshard_commit), c));
  ASSERT_TRUE(good.has_value());
  XShardCommit out;
  // Truncations below the fixed head (xid 8 + mask 4 + origin 4 + final 8).
  for (const std::size_t cut : {std::size_t{0}, std::size_t{15},
                                std::size_t{23}}) {
    EXPECT_FALSE(
        decode_xshard_commit_payload(good->payload.subview(0, cut), out))
        << "cut=" << cut;
  }
  // Zero mask rejected, as for xshard_send.
  ASSERT_GE(good->payload.size(), 24u);
  Buffer nomask(good->payload.begin(), good->payload.end());
  for (std::size_t k = 8; k < 12; ++k) nomask.at(k) = 0;
  EXPECT_FALSE(decode_xshard_commit_payload(std::move(nomask), out));
  // The whole frame still survives decode_wire with a truncated network
  // buffer rejected at the outer layer (header/payload length mismatch).
  const BufView enc =
      encode_xshard_commit_wire(xshard_header(WireType::xshard_commit), c);
  Buffer bytes(enc.begin(), enc.end());
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(decode_wire(std::move(bytes)).has_value());
}

}  // namespace
}  // namespace amoeba::group
