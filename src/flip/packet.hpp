// FLIP packet header encode/decode.
//
// One FLIP *message* (up to kMaxMessage bytes) is carried in one or
// more *packets*, each fitting a link frame. The header carries enough to
// route (dst/src addresses), reassemble (msg_id / total_len / frag_offset),
// and detect garble (CRC over header + fragment payload — the model's
// stand-in for the Ethernet FCS when fault injection garbles payloads
// after the link-level check).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/buffer.hpp"
#include "flip/address.hpp"

namespace amoeba::flip {

enum class PacketType : std::uint8_t {
  unidata = 1,   // point-to-point data
  multidata = 2, // multicast data (dst is a group address)
  locate = 3,    // broadcast: who has this address?
  here_is = 4,   // unicast answer to locate
};

/// Maximum hops a packet may take through FLIP routers before being
/// dropped (loop protection on multi-network configurations).
constexpr std::uint8_t kMaxHops = 15;

struct PacketHeader {
  PacketType type{PacketType::unidata};
  Address dst;
  Address src;
  std::uint32_t msg_id{0};       // per-sender message counter
  std::uint32_t total_len{0};    // length of the whole message
  std::uint32_t frag_offset{0};  // this fragment's offset in the message
  std::uint8_t hop_count{kMaxHops};  // decremented by each router
};

/// Encoded size of the header struct (the wire *accounting* size is
/// kFlipHeaderBytes = 40; the encoding below is padded to exactly that).
constexpr std::size_t kEncodedHeaderBytes = 40;

/// Serialize header + fragment payload into one pooled frame buffer,
/// appending a CRC32 trailer over everything.
BufView encode_packet(const PacketHeader& h,
                      std::span<const std::uint8_t> frag);

/// Decode and CRC-check one frame payload. Returns nullopt on any
/// malformation (short, bad CRC, unknown type). The fragment is a
/// zero-copy sub-view of `frame` — pass an rvalue to hand over the
/// frame's reference without touching the refcount.
struct DecodedPacket {
  PacketHeader header;
  BufView fragment;
};
std::optional<DecodedPacket> decode_packet(BufView frame);

}  // namespace amoeba::flip
