#include "group/message.hpp"

#include <cassert>
#include <cstring>

#include "flip/wire.hpp"

namespace amoeba::group {

namespace {
constexpr std::size_t kHeaderBytes = kWireHeaderBytes;

// type(1) inc(4) sender(4) piggy(4) msg_id(4) seq(4) flags(1) kind(1)
// range_from(4) range_count(4) addr(8) payload_len(4) = 43.
constexpr std::size_t kFixedFields = 43;
static_assert(kFixedFields <= kHeaderBytes);
}  // namespace

namespace {
/// Write the fixed 60-byte header; the caller fills the payload bytes.
void write_header(std::uint8_t* p, const WireMsg& m,
                  std::size_t payload_len) {
  p[0] = static_cast<std::uint8_t>(m.type);
  store_le32(p + 1, m.incarnation);
  store_le32(p + 5, m.sender);
  store_le32(p + 9, m.piggyback);
  store_le32(p + 13, m.msg_id);
  store_le32(p + 17, m.seq);
  p[21] = m.flags;
  p[22] = static_cast<std::uint8_t>(m.kind);
  store_le32(p + 23, m.range_from);
  store_le32(p + 27, m.range_count);
  store_le64(p + 31, m.addr.id);
  store_le32(p + 39, static_cast<std::uint32_t>(payload_len));
  std::memset(p + kFixedFields, 0, kHeaderBytes - kFixedFields);
}
}  // namespace

BufView encode_wire(const WireMsg& m) {
  SharedBuffer buf = SharedBuffer::allocate(kHeaderBytes + m.payload.size());
  std::uint8_t* p = buf.data();
  write_header(p, m, m.payload.size());
  if (!m.payload.empty()) {
    std::memcpy(p + kHeaderBytes, m.payload.data(), m.payload.size());
  }
  return buf;  // implicit move; freezes into an immutable view
}

std::optional<WireMsg> decode_wire(BufView bytes) {
  // One bounds check up front, then direct fixed-offset loads: this is the
  // per-datagram hot path, so no per-field cursor arithmetic.
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  const std::uint8_t* p = bytes.data();
  WireMsg m;
  m.type = static_cast<WireType>(p[0]);
  m.incarnation = load_le32(p + 1);
  m.sender = load_le32(p + 5);
  m.piggyback = load_le32(p + 9);
  m.msg_id = load_le32(p + 13);
  m.seq = load_le32(p + 17);
  m.flags = p[21];
  m.kind = static_cast<MessageKind>(p[22]);
  m.range_from = load_le32(p + 23);
  m.range_count = load_le32(p + 27);
  m.addr = flip::Address{load_le64(p + 31)};
  const std::uint32_t payload_len = load_le32(p + 39);
  if (bytes.size() - kHeaderBytes != payload_len) return std::nullopt;
  const auto t = static_cast<std::uint8_t>(m.type);
  if (t < 1 || t > static_cast<std::uint8_t>(WireType::xshard_commit)) {
    return std::nullopt;
  }
  // Zero-copy: the payload is a slice of the datagram, and the steal keeps
  // this off the atomic refcount.
  m.payload = std::move(bytes).subview(kHeaderBytes, payload_len);
  return m;
}

// --- Batched sequencer frames ---------------------------------------------
//
// seq_packed payload layout (all little-endian):
//   u32 accept_count
//   accept_count x { u32 seq, u32 sender, u32 msg_id, u8 kind, u8 flags }
//   range_count  x { u32 sender, u32 msg_id, u32 payload_len, u8 kind,
//                    u8 flags, payload_len bytes }
// Entry seqs are implicit: header.range_from + index. seq_accept_range
// payload is simply count x { u32 sender, u32 msg_id, u8 kind, u8 flags }.

namespace {
constexpr std::size_t kAcceptRecBytes = 14;
constexpr std::size_t kPackedEntryHeadBytes = 14;
constexpr std::size_t kRangeRecBytes = 10;
/// Sanity bound on decoded counts (far above any real frame; a packed
/// frame is bounded by batch_count and the datagram size anyway).
constexpr std::uint32_t kMaxBatchRecords = 4096;
}  // namespace

BufView encode_packed_wire(const WireMsg& header,
                           std::span<const AcceptRec> accepts,
                           std::span<const PackedEntry> entries) {
  assert(header.type == WireType::seq_packed);
  assert(header.range_count == entries.size());
  std::size_t payload = 4 + accepts.size() * kAcceptRecBytes;
  for (const PackedEntry& e : entries) {
    payload += kPackedEntryHeadBytes + e.payload.size();
  }
  SharedBuffer buf = SharedBuffer::allocate(kHeaderBytes + payload);
  std::uint8_t* p = buf.data();
  write_header(p, header, payload);
  p += kHeaderBytes;
  store_le32(p, static_cast<std::uint32_t>(accepts.size()));
  p += 4;
  for (const AcceptRec& a : accepts) {
    store_le32(p, a.seq);
    store_le32(p + 4, a.sender);
    store_le32(p + 8, a.msg_id);
    p[12] = static_cast<std::uint8_t>(a.kind);
    p[13] = a.flags;
    p += kAcceptRecBytes;
  }
  for (const PackedEntry& e : entries) {
    store_le32(p, e.sender);
    store_le32(p + 4, e.msg_id);
    store_le32(p + 8, static_cast<std::uint32_t>(e.payload.size()));
    p[12] = static_cast<std::uint8_t>(e.kind);
    p[13] = e.flags;
    p += kPackedEntryHeadBytes;
    if (!e.payload.empty()) {
      std::memcpy(p, e.payload.data(), e.payload.size());
      p += e.payload.size();
    }
  }
  return buf;
}

bool decode_packed_payload(const WireMsg& m, std::vector<AcceptRec>& accepts,
                           std::vector<PackedEntry>& entries) {
  accepts.clear();
  entries.clear();
  if (m.range_count == 0 || m.range_count > kMaxBatchRecords) return false;
  const BufView& pl = m.payload;
  const std::uint8_t* p = pl.data();
  std::size_t left = pl.size();
  if (left < 4) return false;
  const std::uint32_t n_acc = load_le32(p);
  p += 4;
  left -= 4;
  if (n_acc > kMaxBatchRecords) return false;
  if (left < n_acc * kAcceptRecBytes) return false;
  accepts.reserve(n_acc);
  for (std::uint32_t i = 0; i < n_acc; ++i) {
    AcceptRec a;
    a.seq = load_le32(p);
    a.sender = load_le32(p + 4);
    a.msg_id = load_le32(p + 8);
    a.kind = static_cast<MessageKind>(p[12]);
    a.flags = p[13];
    accepts.push_back(a);
    p += kAcceptRecBytes;
    left -= kAcceptRecBytes;
  }
  entries.reserve(m.range_count);
  for (std::uint32_t i = 0; i < m.range_count; ++i) {
    if (left < kPackedEntryHeadBytes) return false;
    PackedEntry e;
    e.sender = load_le32(p);
    e.msg_id = load_le32(p + 4);
    const std::uint32_t len = load_le32(p + 8);
    e.kind = static_cast<MessageKind>(p[12]);
    e.flags = p[13];
    p += kPackedEntryHeadBytes;
    left -= kPackedEntryHeadBytes;
    if (left < len) return false;
    // Zero-copy: the entry payload is a slice of the datagram's backing.
    e.payload = pl.subview(static_cast<std::size_t>(p - pl.data()), len);
    p += len;
    left -= len;
    entries.push_back(std::move(e));
  }
  return left == 0;  // trailing garbage is a malformed frame
}

BufView encode_accept_range_wire(const WireMsg& header,
                                 std::span<const AcceptRec> recs) {
  assert(header.type == WireType::seq_accept_range);
  assert(header.range_count == recs.size());
  const std::size_t payload = recs.size() * kRangeRecBytes;
  SharedBuffer buf = SharedBuffer::allocate(kHeaderBytes + payload);
  std::uint8_t* p = buf.data();
  write_header(p, header, payload);
  p += kHeaderBytes;
  for (const AcceptRec& a : recs) {
    store_le32(p, a.sender);
    store_le32(p + 4, a.msg_id);
    p[8] = static_cast<std::uint8_t>(a.kind);
    p[9] = a.flags;
    p += kRangeRecBytes;
  }
  return buf;
}

bool decode_accept_range_payload(const WireMsg& m,
                                 std::vector<AcceptRec>& recs) {
  recs.clear();
  if (m.range_count == 0 || m.range_count > kMaxBatchRecords) return false;
  if (m.payload.size() != m.range_count * kRangeRecBytes) return false;
  const std::uint8_t* p = m.payload.data();
  recs.reserve(m.range_count);
  for (std::uint32_t i = 0; i < m.range_count; ++i) {
    AcceptRec a;
    a.seq = m.range_from + i;
    a.sender = load_le32(p);
    a.msg_id = load_le32(p + 4);
    a.kind = static_cast<MessageKind>(p[8]);
    a.flags = p[9];
    recs.push_back(a);
    p += kRangeRecBytes;
  }
  return true;
}

// --- Cross-shard atomic multicast frames -----------------------------------
//
// xshard_send payload:    xid(8) mask(4) origin(4) data...      (>= 16)
// xshard_propose payload: xid(8) shard(4) ts(8)                 (== 20)
// xshard_commit payload:  xid(8) mask(4) origin(4) final(8) data... (>= 24)
//
// The commit layout is also the payload of the MessageKind::xshard entry the
// sequencer injects into its stream, so decode_xshard_commit_payload serves
// both the coordination path and ordinary delivery.

namespace {
constexpr std::size_t kXSendHeadBytes = 16;
constexpr std::size_t kXProposeBytes = 20;
}  // namespace

BufView encode_xshard_send_wire(const WireMsg& header, const XShardSend& x) {
  assert(header.type == WireType::xshard_send);
  const std::size_t payload = kXSendHeadBytes + x.data.size();
  SharedBuffer buf = SharedBuffer::allocate(kHeaderBytes + payload);
  std::uint8_t* p = buf.data();
  write_header(p, header, payload);
  p += kHeaderBytes;
  store_le64(p, x.xid);
  store_le32(p + 8, x.mask);
  store_le32(p + 12, x.origin);
  if (!x.data.empty()) {
    std::memcpy(p + kXSendHeadBytes, x.data.data(), x.data.size());
  }
  return buf;
}

bool decode_xshard_send_payload(const BufView& payload, XShardSend& out) {
  if (payload.size() < kXSendHeadBytes) return false;
  const std::uint8_t* p = payload.data();
  out.xid = load_le64(p);
  out.mask = load_le32(p + 8);
  out.origin = load_le32(p + 12);
  if (out.mask == 0) return false;  // a send must address some shard
  out.data =
      payload.subview(kXSendHeadBytes, payload.size() - kXSendHeadBytes);
  return true;
}

BufView encode_xshard_propose_wire(const WireMsg& header,
                                   const XShardPropose& x) {
  assert(header.type == WireType::xshard_propose);
  SharedBuffer buf = SharedBuffer::allocate(kHeaderBytes + kXProposeBytes);
  std::uint8_t* p = buf.data();
  write_header(p, header, kXProposeBytes);
  p += kHeaderBytes;
  store_le64(p, x.xid);
  store_le32(p + 8, x.shard);
  store_le64(p + 12, x.ts);
  return buf;
}

bool decode_xshard_propose_payload(const BufView& payload, XShardPropose& out) {
  if (payload.size() != kXProposeBytes) return false;
  const std::uint8_t* p = payload.data();
  out.xid = load_le64(p);
  out.shard = load_le32(p + 8);
  out.ts = load_le64(p + 12);
  return true;
}

BufView encode_xshard_commit_wire(const WireMsg& header, const XShardCommit& x) {
  assert(header.type == WireType::xshard_commit);
  const std::size_t payload = kXShardCommitHeadBytes + x.data.size();
  SharedBuffer buf = SharedBuffer::allocate(kHeaderBytes + payload);
  std::uint8_t* p = buf.data();
  write_header(p, header, payload);
  p += kHeaderBytes;
  store_le64(p, x.xid);
  store_le32(p + 8, x.mask);
  store_le32(p + 12, x.origin);
  store_le64(p + 16, x.final_ts);
  if (!x.data.empty()) {
    std::memcpy(p + kXShardCommitHeadBytes, x.data.data(), x.data.size());
  }
  return buf;
}

bool decode_xshard_commit_payload(const BufView& payload, XShardCommit& out) {
  if (payload.size() < kXShardCommitHeadBytes) return false;
  const std::uint8_t* p = payload.data();
  out.xid = load_le64(p);
  out.mask = load_le32(p + 8);
  out.origin = load_le32(p + 12);
  out.final_ts = load_le64(p + 16);
  if (out.mask == 0) return false;
  out.data = payload.subview(kXShardCommitHeadBytes,
                             payload.size() - kXShardCommitHeadBytes);
  return true;
}

Buffer encode_snapshot(const Snapshot& s) {
  BufWriter w(64 + s.members.size() * 12);
  w.u32(s.incarnation);
  w.u32(s.your_id);
  w.u32(s.sequencer);
  w.u32(s.next_member_id);
  w.u32(s.next_seq);
  w.u32(static_cast<std::uint32_t>(s.members.size()));
  for (const MemberInfo& m : s.members) {
    w.u32(m.id);
    w.u64(m.address.id);
  }
  return std::move(w).take();
}

std::optional<Snapshot> decode_snapshot(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  Snapshot s;
  s.incarnation = r.u32();
  s.your_id = r.u32();
  s.sequencer = r.u32();
  s.next_member_id = r.u32();
  s.next_seq = r.u32();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > 4096) return std::nullopt;
  s.members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    MemberInfo m;
    m.id = r.u32();
    m.address = flip::Address{r.u64()};
    s.members.push_back(m);
  }
  if (!r.ok()) return std::nullopt;
  return s;
}

Buffer encode_vote(const Vote& v) {
  BufWriter w(48 + v.tentative.size() * 4);
  w.u32(v.member);
  w.u64(v.address.id);
  w.u32(v.next_deliver);
  w.u32(v.hist_lo);
  w.u32(v.hist_hi);
  w.u32(static_cast<std::uint32_t>(v.tentative.size()));
  for (const SeqNum s : v.tentative) w.u32(s);
  w.u32(v.durable_lo);
  w.u32(v.durable_hi);
  return std::move(w).take();
}

std::optional<Vote> decode_vote(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  Vote v;
  v.member = r.u32();
  v.address = flip::Address{r.u64()};
  v.next_deliver = r.u32();
  v.hist_lo = r.u32();
  v.hist_hi = r.u32();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > 65536) return std::nullopt;
  v.tentative.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.tentative.push_back(r.u32());
  v.durable_lo = r.u32();
  v.durable_hi = r.u32();
  if (!r.ok()) return std::nullopt;
  return v;
}

Buffer encode_membership_change(const MembershipChange& c) {
  BufWriter w(20);
  w.u32(c.member);
  w.u64(c.address.id);
  w.u32(c.new_sequencer);
  return std::move(w).take();
}

std::optional<MembershipChange> decode_membership_change(
    std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  MembershipChange c;
  c.member = r.u32();
  c.address = flip::Address{r.u64()};
  c.new_sequencer = r.u32();
  if (!r.ok()) return std::nullopt;
  return c;
}

Buffer encode_recovered(const std::vector<RecoveredMessage>& msgs) {
  std::size_t bytes = 8;
  for (const auto& m : msgs) bytes += 20 + m.data.size();
  BufWriter w(bytes);
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const auto& m : msgs) {
    w.u32(m.seq);
    w.u32(m.sender);
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u32(m.msg_id);
    w.bytes(m.data);
  }
  return std::move(w).take();
}

std::optional<std::vector<RecoveredMessage>> decode_recovered(
    std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > 65536) return std::nullopt;
  std::vector<RecoveredMessage> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RecoveredMessage m;
    m.seq = r.u32();
    m.sender = r.u32();
    m.kind = static_cast<MessageKind>(r.u8());
    m.msg_id = r.u32();
    m.data = r.bytes();
    if (!r.ok()) return std::nullopt;
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace amoeba::group
