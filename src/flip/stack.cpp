#include "flip/stack.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace amoeba::flip {

namespace {
/// Locate broadcasts per address before queued traffic is dropped, and
/// their spacing.
constexpr int kLocateRetries = 5;
constexpr Duration kLocateInterval = Duration::millis(20);
/// A partially reassembled message is dropped this long after its first
/// fragment arrived (the group layer's NACKs recover the message itself).
constexpr Duration kReassemblyTimeout = Duration::millis(500);
}  // namespace

FlipStack::FlipStack(transport::Executor& exec, transport::Device& dev)
    : exec_(exec) {
  add_device(dev);
}

std::size_t FlipStack::add_device(transport::Device& dev) {
  const std::size_t index = devices_.size();
  devices_.push_back(&dev);
  dev.set_receive_handler(
      [this, index](transport::StationId from, BufView payload) {
        on_frame(index, from, std::move(payload));
      });
  if (forwarding_) dev.set_promiscuous(true);
  return index;
}

void FlipStack::set_forwarding(bool on) {
  forwarding_ = on;
  for (transport::Device* dev : devices_) dev->set_promiscuous(on);
}

void FlipStack::register_endpoint(Address addr, Handler handler) {
  assert(!addr.is_null());
  endpoints_[addr] = std::move(handler);
}

void FlipStack::unregister_endpoint(Address addr) { endpoints_.erase(addr); }

void FlipStack::join_group(Address group, Handler handler) {
  assert(is_group_address(group));
  groups_[group] = std::move(handler);
  for (transport::Device* dev : devices_) dev->subscribe(group.id);
}

void FlipStack::leave_group(Address group) {
  groups_.erase(group);
  for (transport::Device* dev : devices_) dev->unsubscribe(group.id);
}

Status FlipStack::send(Address dst, Address src, BufView msg) {
  if (dst.is_null()) return Status::invalid_argument;
  if (msg.size() > kMaxMessage) return Status::overflow;
  ++stats_.messages_sent;

  if (is_group_address(dst)) {
    // Transmit first, then loop a copy back to a local subscriber (the
    // wire never echoes our own multicast). Order matters on the
    // simulator: the driver's transmit work preempts local delivery, as
    // in the real kernel. The "copy" is a view: same backing bytes.
    const bool loopback = groups_.count(dst) > 0;
    if (loopback) {
      BufView copy = msg;
      transmit(PacketType::multidata, dst, src, std::move(msg), std::nullopt,
               kMaxHops);
      deliver_local(src, dst, std::move(copy));
    } else {
      transmit(PacketType::multidata, dst, src, std::move(msg), std::nullopt,
               kMaxHops);
    }
    return Status::ok;
  }

  // Local endpoint: short-circuit without touching the wire.
  if (endpoints_.count(dst) > 0) {
    deliver_local(src, dst, std::move(msg));
    return Status::ok;
  }

  const auto it = routes_.find(dst);
  if (it != routes_.end()) {
    transmit(PacketType::unidata, dst, src, std::move(msg), it->second,
             kMaxHops);
    return Status::ok;
  }

  // Route miss: queue behind a locate.
  auto& pending = locating_[dst];
  pending.queued.emplace_back(src, std::move(msg));
  if (pending.timer == transport::kInvalidTimer) {
    start_locate(dst);
  }
  return Status::ok;
}

void FlipStack::transmit(PacketType type, Address dst, Address src,
                         BufView msg, std::optional<Route> unicast_to,
                         std::uint8_t hops) {
  PacketHeader h;
  h.type = type;
  h.dst = dst;
  h.src = src;
  h.msg_id = next_msg_id_++;
  h.total_len = static_cast<std::uint32_t>(msg.size());
  h.hop_count = hops;

  // All attached devices agree on the frame MTU in this implementation.
  const std::size_t mtu =
      devices_[0]->max_payload() - kEncodedHeaderBytes - 4;
  std::uint32_t offset = 0;
  do {
    const auto frag_len = static_cast<std::uint32_t>(
        std::min<std::size_t>(mtu, msg.size() - offset));
    h.frag_offset = offset;
    const std::span<const std::uint8_t> frag(msg.data() + offset, frag_len);
    BufView frame = encode_packet(h, frag);
    // Wire accounting: link header + FLIP header + this fragment's payload
    // bytes (which already include any upper-layer header bytes).
    const std::size_t wire = kEthHeaderBytes + kFlipHeaderBytes + frag_len;
    ++stats_.packets_sent;
    // One task per packet: FLIP processing plus the driver's transmit
    // cost; the frame reaches the NIC when both are paid.
    exec_.post(
        exec_.costs().flip_packet + devices_[0]->tx_cost(),
        [this, frame = std::move(frame), wire, unicast_to, dst]() mutable {
          if (unicast_to.has_value()) {
            devices_[unicast_to->device]->send_unicast(unicast_to->station,
                                                       std::move(frame), wire);
          } else if (is_group_address(dst)) {
            for (std::size_t d = 0; d < devices_.size(); ++d) {
              BufView copy = d + 1 < devices_.size() ? frame : std::move(frame);
              devices_[d]->send_multicast(dst.id, std::move(copy), wire);
            }
          } else {
            for (std::size_t d = 0; d < devices_.size(); ++d) {
              BufView copy = d + 1 < devices_.size() ? frame : std::move(frame);
              devices_[d]->send_broadcast(std::move(copy), wire);
            }
          }
        });
    offset += frag_len;
  } while (offset < msg.size());
}

void FlipStack::start_locate(Address dst) {
  auto& pending = locating_[dst];
  pending.attempts = 0;
  fire_locate(dst);
}

void FlipStack::fire_locate(Address dst) {
  auto it = locating_.find(dst);
  if (it == locating_.end()) return;
  PendingLocate& pending = it->second;
  if (pending.attempts >= kLocateRetries) {
    // Give up: drop queued traffic; the caller's own timeout machinery
    // (RPC retransmit, group NACK) owns recovery.
    ++stats_.locate_failures;
    log_debug("flip", "locate failed for %llx, dropping %zu queued msgs",
              static_cast<unsigned long long>(dst.id), pending.queued.size());
    locating_.erase(it);
    return;
  }
  ++pending.attempts;
  ++stats_.locates_sent;

  BufWriter w(8);
  w.u64(dst.id);
  PacketHeader h;
  h.type = PacketType::locate;
  h.dst = dst;
  h.total_len = 8;
  BufView frame = encode_packet(h, std::move(w).take());
  const std::size_t wire = kEthHeaderBytes + kFlipHeaderBytes + 8;
  exec_.post(exec_.costs().flip_packet + devices_[0]->tx_cost(),
             [this, frame = std::move(frame), wire]() mutable {
               for (std::size_t d = 0; d < devices_.size(); ++d) {
                 BufView copy =
                     d + 1 < devices_.size() ? frame : std::move(frame);
                 devices_[d]->send_broadcast(std::move(copy), wire);
               }
             });
  pending.timer =
      exec_.set_timer(kLocateInterval, [this, dst] { fire_locate(dst); });
}

void FlipStack::invalidate_route(Address addr) { routes_.erase(addr); }

std::optional<FlipStack::Route> FlipStack::route(Address addr) const {
  const auto it = routes_.find(addr);
  if (it == routes_.end()) return std::nullopt;
  return it->second;
}

void FlipStack::learn_route(Address addr, std::size_t dev,
                            transport::StationId st) {
  if (addr.is_null() || is_group_address(addr)) return;
  routes_[addr] = Route{dev, st};
  // Flush traffic that was waiting on a locate of this address, and (as a
  // router) answer requesters from other networks.
  const auto it = locating_.find(addr);
  if (it == locating_.end()) return;
  exec_.cancel_timer(it->second.timer);
  auto queued = std::move(it->second.queued);
  auto forwards = std::move(it->second.queued_forwards);
  auto requesters = std::move(it->second.requesters);
  locating_.erase(it);
  for (auto& [src, msg] : queued) {
    transmit(PacketType::unidata, addr, src, std::move(msg), Route{dev, st},
             kMaxHops);
  }
  for (const DecodedPacket& pkt : forwards) {
    if (pkt.header.hop_count == 0) continue;
    const std::size_t wire =
        kEthHeaderBytes + kFlipHeaderBytes + pkt.fragment.size();
    ++stats_.packets_forwarded;
    devices_[dev]->send_unicast(st, reencode(pkt, pkt.header.hop_count - 1),
                                wire);
  }
  for (const auto& [rdev, rstation] : requesters) {
    // Only answer requesters on OTHER networks: a same-segment requester
    // hears the target directly, and a router's answer would wrongly
    // bend its route through us.
    if (rdev != dev) send_here_is(rdev, rstation, addr);
  }
}

void FlipStack::send_here_is(std::size_t dev, transport::StationId to,
                             Address target) {
  BufWriter w(8);
  w.u64(target.id);
  PacketHeader h;
  h.type = PacketType::here_is;
  h.src = target;
  h.total_len = 8;
  BufView reply = encode_packet(h, std::move(w).take());
  const std::size_t wire = kEthHeaderBytes + kFlipHeaderBytes + 8;
  devices_[dev]->send_unicast(to, std::move(reply), wire);
}

BufView FlipStack::reencode(const DecodedPacket& pkt,
                            std::uint8_t hops) const {
  PacketHeader h = pkt.header;
  h.hop_count = hops;
  return encode_packet(h, pkt.fragment);
}

void FlipStack::forward_unicast(std::size_t in_dev, const DecodedPacket& pkt) {
  if (pkt.header.hop_count == 0) {
    ++stats_.hops_exhausted;
    return;
  }
  const auto it = routes_.find(pkt.header.dst);
  if (it != routes_.end()) {
    if (it->second.device == in_dev) return;  // already on the right net
    ++stats_.packets_forwarded;
    const std::size_t wire =
        kEthHeaderBytes + kFlipHeaderBytes + pkt.fragment.size();
    devices_[it->second.device]->send_unicast(
        it->second.station, reencode(pkt, pkt.header.hop_count - 1), wire);
    return;
  }
  // No route: locate on the other networks, then forward the packet
  // verbatim when the route appears.
  auto& pending = locating_[pkt.header.dst];
  pending.queued_forwards.push_back(pkt);
  if (pending.timer == transport::kInvalidTimer) {
    start_locate(pkt.header.dst);
  }
}

void FlipStack::flood(std::size_t in_dev, const DecodedPacket& pkt) {
  if (pkt.header.hop_count == 0) {
    ++stats_.hops_exhausted;
    return;
  }
  const std::size_t wire =
      kEthHeaderBytes + kFlipHeaderBytes + pkt.fragment.size();
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (d == in_dev) continue;
    ++stats_.packets_forwarded;
    BufView copy = reencode(pkt, pkt.header.hop_count - 1);
    if (pkt.header.type == PacketType::multidata) {
      devices_[d]->send_multicast(pkt.header.dst.id, std::move(copy), wire);
    } else {
      devices_[d]->send_broadcast(std::move(copy), wire);
    }
  }
}

void FlipStack::on_frame(std::size_t dev, transport::StationId from,
                         BufView payload) {
  ++stats_.packets_received;
  exec_.post(exec_.costs().flip_packet,
             [this, dev, from, payload = std::move(payload)]() mutable {
               auto decoded = decode_packet(std::move(payload));
               if (!decoded.has_value()) {
                 ++stats_.bad_packets;
                 return;
               }
               switch (decoded->header.type) {
                 case PacketType::locate: {
                   BufReader r(decoded->fragment);
                   const Address target{r.u64()};
                   if (!r.ok()) break;
                   if (endpoints_.count(target) > 0) {
                     send_here_is(dev, from, target);
                     break;
                   }
                   if (!forwarding_) break;
                   // Router: answer from the cache when the route points
                   // off this network; otherwise search the other nets
                   // and remember who asked.
                   if (const auto rt = routes_.find(target);
                       rt != routes_.end()) {
                     if (rt->second.device != dev) {
                       send_here_is(dev, from, target);
                     }
                     break;
                   }
                   if (decoded->header.hop_count == 0) {
                     ++stats_.hops_exhausted;
                     break;
                   }
                   auto& pending = locating_[target];
                   if (std::find(pending.requesters.begin(),
                                 pending.requesters.end(),
                                 std::make_pair(dev, from)) ==
                       pending.requesters.end()) {
                     pending.requesters.emplace_back(dev, from);
                   }
                   if (pending.timer == transport::kInvalidTimer) {
                     start_locate(target);
                   }
                   break;
                 }
                 case PacketType::here_is: {
                   BufReader r(decoded->fragment);
                   const Address target{r.u64()};
                   if (r.ok()) learn_route(target, dev, from);
                   break;
                 }
                 case PacketType::unidata:
                 case PacketType::multidata:
                   learn_route(decoded->header.src, dev, from);
                   handle_data(dev, std::move(*decoded));
                   break;
               }
             });
}

void FlipStack::handle_data(std::size_t dev, DecodedPacket pkt) {
  const PacketHeader& h = pkt.header;

  if (is_group_address(h.dst)) {
    // Routers push multicasts to the other networks regardless of local
    // interest; the MAC filters on the far side decide who hears them.
    if (forwarding_ && devices_.size() > 1) flood(dev, pkt);
    if (groups_.count(h.dst) == 0) return;
  } else if (endpoints_.count(h.dst) == 0) {
    if (forwarding_) forward_unicast(dev, pkt);
    return;
  }

  // Single-fragment fast path.
  if (h.frag_offset == 0 && pkt.fragment.size() == h.total_len) {
    deliver_local(h.src, h.dst, std::move(pkt.fragment));
    return;
  }

  const ReassemblyKey key{h.src.id, h.msg_id};
  auto [it, inserted] = partials_.try_emplace(key);
  Partial& p = it->second;
  if (inserted) {
    p.data.resize(h.total_len);
    p.dst = h.dst;
    p.deadline = exec_.now() + kReassemblyTimeout;
    if (gc_timer_ == transport::kInvalidTimer) {
      gc_timer_ = exec_.set_timer(kReassemblyTimeout,
                                  [this] { gc_reassembly(); });
    }
  }
  // Duplicate fragments (duplicated frames) are idempotent.
  if (p.have.emplace(h.frag_offset,
                     static_cast<std::uint32_t>(pkt.fragment.size()))
          .second) {
    std::copy(pkt.fragment.begin(), pkt.fragment.end(),
              p.data.begin() + h.frag_offset);
    p.bytes += pkt.fragment.size();
  }
  if (p.bytes >= p.data.size()) {
    // Adopt the reassembled vector into a view: no copy.
    BufView msg = std::move(p.data);
    const Address src = h.src;
    const Address dst = p.dst;
    partials_.erase(it);
    deliver_local(src, dst, std::move(msg));
  }
}

void FlipStack::gc_reassembly() {
  gc_timer_ = transport::kInvalidTimer;
  const Time now = exec_.now();
  for (auto it = partials_.begin(); it != partials_.end();) {
    if (it->second.deadline <= now) {
      ++stats_.reassembly_timeouts;
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
  if (!partials_.empty()) {
    gc_timer_ = exec_.set_timer(kReassemblyTimeout,
                                [this] { gc_reassembly(); });
  }
}

void FlipStack::deliver_local(Address src, Address dst, BufView msg) {
  const auto& table = is_group_address(dst) ? groups_ : endpoints_;
  const auto it = table.find(dst);
  if (it == table.end()) return;
  ++stats_.messages_delivered;
  it->second(src, dst, std::move(msg));
}

}  // namespace amoeba::flip
