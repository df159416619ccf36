// Zero-copy buffer layer: view aliasing, pool reuse, lifetime safety, and
// the pointer-identity guarantees the wire codecs build on. These tests pin
// the ownership contract documented in docs/PERF.md.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "flip/packet.hpp"
#include "group/message.hpp"
#include "sim/cost_model.hpp"

namespace amoeba {
namespace {

TEST(SharedBuffer, AllocateWriteFreeze) {
  SharedBuffer b = SharedBuffer::allocate(100);
  ASSERT_EQ(b.size(), 100u);
  ASSERT_GE(b.capacity(), 100u);
  std::memset(b.data(), 0x5A, b.size());
  const std::uint8_t* raw = b.data();
  BufView v = std::move(b);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.data(), raw) << "freezing must not relocate the bytes";
  for (const std::uint8_t byte : v) EXPECT_EQ(byte, 0x5A);
}

TEST(BufView, CopiesAliasTheSameBacking) {
  SharedBuffer b = SharedBuffer::allocate(64);
  std::memset(b.data(), 0x11, b.size());
  BufView v1 = std::move(b);
  BufView v2 = v1;           // refcount bump
  BufView v3 = v1.subview(16, 32);
  EXPECT_EQ(v2.data(), v1.data());
  EXPECT_EQ(v3.data(), v1.data() + 16);
  EXPECT_EQ(v3.size(), 32u);
  v1.clear();  // the others keep the backing alive
  EXPECT_EQ(v2[0], 0x11);
  EXPECT_EQ(v3[0], 0x11);
}

TEST(BufView, AdoptionPreservesVectorBytes) {
  Buffer vec = make_pattern_buffer(500);
  const std::uint8_t* raw = vec.data();
  BufView v(std::move(vec));
  EXPECT_EQ(v.data(), raw) << "adopting a Buffer must not copy it";
  EXPECT_TRUE(check_pattern_buffer(v));
}

TEST(BufView, EmptyVectorAdoptsToNullView) {
  BufView v{Buffer{}};
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  BufView copy = v;  // copying a null view is fine
  EXPECT_TRUE(copy.empty());
}

TEST(BufferPool, ReleaseThenAllocateReusesTheBlock) {
  // Warm the freelist so the pointer comparison below is deterministic.
  { SharedBuffer warm = SharedBuffer::allocate(1000); }
  const auto before = detail::pool_stats();
  const std::uint8_t* first;
  {
    SharedBuffer a = SharedBuffer::allocate(1000);
    first = a.data();
  }  // released to the thread-local freelist
  SharedBuffer b = SharedBuffer::allocate(1000);
  EXPECT_EQ(b.data(), first) << "same size class must reuse the freed block";
  const auto after = detail::pool_stats();
  EXPECT_GE(after.pool_hits, before.pool_hits + 2);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
}

TEST(BufferPool, DistinctLiveBuffersNeverAlias) {
  SharedBuffer a = SharedBuffer::allocate(256);
  SharedBuffer b = SharedBuffer::allocate(256);
  EXPECT_NE(a.data(), b.data());
}

TEST(GroupWireZeroCopy, DecodePayloadIsAViewIntoTheDatagram) {
  group::WireMsg m;
  m.type = group::WireType::seq_data;
  m.seq = 5;
  m.payload = make_pattern_buffer(1024);
  BufView encoded = group::encode_wire(m);
  const std::uint8_t* frame_start = encoded.data();
  const std::size_t frame_len = encoded.size();
  auto d = group::decode_wire(std::move(encoded));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->payload.size(), 1024u);
  // The acceptance criterion: the decoded payload points INTO the encoded
  // datagram — zero payload copies on the receive path.
  EXPECT_EQ(d->payload.data(), frame_start + (frame_len - 1024))
      << "decode_wire must alias the datagram, not copy it";
  EXPECT_TRUE(check_pattern_buffer(d->payload));
}

TEST(GroupWireZeroCopy, PayloadOutlivesTheDecodedFrameView) {
  group::WireMsg m;
  m.type = group::WireType::seq_data;
  m.payload = make_pattern_buffer(2048);
  BufView payload;
  {
    BufView encoded = group::encode_wire(m);
    auto d = group::decode_wire(std::move(encoded));
    ASSERT_TRUE(d.has_value());
    payload = std::move(d->payload);
  }  // encoded view and decoded message are gone; payload holds a ref
  ASSERT_EQ(payload.size(), 2048u);
  EXPECT_TRUE(check_pattern_buffer(payload));
}

TEST(FlipPacketZeroCopy, FragmentIsAViewIntoTheFrame) {
  flip::PacketHeader h;
  h.type = flip::PacketType::unidata;
  h.dst = flip::process_address(1);
  h.total_len = 700;
  const Buffer frag = make_pattern_buffer(700);
  BufView frame = flip::encode_packet(h, frag);
  const std::uint8_t* frame_start = frame.data();
  auto d = flip::decode_packet(std::move(frame));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->fragment.data(), frame_start + flip::kEncodedHeaderBytes);
  EXPECT_EQ(d->fragment, frag);
}

TEST(GroupWireProperty, EncodeDecodeRoundTripsEveryField) {
  Rng rng(2026);
  for (int iter = 0; iter < 300; ++iter) {
    group::WireMsg m;
    m.type = static_cast<group::WireType>(
        1 + rng.below(static_cast<std::uint64_t>(
                group::WireType::reset_result)));
    m.incarnation = static_cast<group::Incarnation>(rng.next());
    m.sender = static_cast<group::MemberId>(rng.next());
    m.piggyback = static_cast<SeqNum>(rng.next());
    m.msg_id = static_cast<std::uint32_t>(rng.next());
    m.seq = static_cast<SeqNum>(rng.next());
    m.flags = static_cast<std::uint8_t>(rng.next());
    m.kind = static_cast<group::MessageKind>(rng.below(6));
    m.addr = flip::process_address(rng.next());
    // Sizes cover empty, tiny, pooled-class boundaries, and the max the
    // group layer ever sends (64 KiB messages, paper Section 4).
    const std::size_t sizes[] = {0, 1, 7, 255, 256, 2048, 8000, 65536};
    const std::size_t n = sizes[iter % 8];
    m.payload = make_pattern_buffer(n, static_cast<std::uint8_t>(iter));
    auto d = group::decode_wire(group::encode_wire(m));
    ASSERT_TRUE(d.has_value()) << "iter " << iter;
    EXPECT_EQ(d->type, m.type);
    EXPECT_EQ(d->incarnation, m.incarnation);
    EXPECT_EQ(d->sender, m.sender);
    EXPECT_EQ(d->piggyback, m.piggyback);
    EXPECT_EQ(d->msg_id, m.msg_id);
    EXPECT_EQ(d->seq, m.seq);
    EXPECT_EQ(d->flags, m.flags);
    EXPECT_EQ(d->kind, m.kind);
    EXPECT_EQ(d->addr, m.addr);
    ASSERT_EQ(d->payload.size(), n) << "iter " << iter;
    EXPECT_TRUE(d->payload == m.payload) << "iter " << iter;
  }
}

}  // namespace
}  // namespace amoeba
