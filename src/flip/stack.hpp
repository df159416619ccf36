// The FLIP layer: connectionless datagram service whose addresses identify
// processes and groups rather than hosts.
//
// Responsibilities reproduced from the paper and the FLIP TOCS paper:
//   - Routing: a route cache (address -> (device, station)) filled by a
//     broadcast "locate" handshake and by passive learning from received
//     packets. FLIP routers answer locates out of their own cache and
//     forward traffic between networks; routes therefore point at the
//     next hop, not the final host. Upper layers invalidate a route when
//     a peer stops responding; the next send re-locates.
//   - Multi-network operation: a stack may own several devices (one per
//     attached network). With `set_forwarding(true)` it becomes a FLIP
//     router: unicasts are relayed toward their destination, multicasts
//     and locates are flooded to the other networks, and a hop count
//     bounds the damage of misconfiguration ("the protocols also work for
//     network configurations in which members are located on different
//     networks; FLIP will ensure that the messages are routed
//     appropriately", Section 4).
//   - Fragmentation/reassembly: messages larger than one frame are split
//     into packets and reassembled at the receiver; partially
//     reassembled messages time out (the group layer's NACK machinery
//     recovers the message itself).
//   - Multicast as an optimization: sends to a group address use one
//     hardware multicast frame when the wire supports it (the simulator
//     does; the UDP runtime fans out point-to-point, which FLIP
//     explicitly permits).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "flip/address.hpp"
#include "flip/packet.hpp"
#include "flip/wire.hpp"
#include "transport/runtime.hpp"

namespace amoeba::flip {

/// Largest message send() accepts, upper-layer headers included: the one
/// message-size limit of the stack. The group and RPC layers accept this
/// minus their own header. The paper's experiments stop at 8000 bytes
/// because of kernel buffer limits; the protocol itself handles larger
/// messages, so the limit is higher.
inline constexpr std::size_t kMaxMessage = 64 * 1024;

struct Stats {
  std::uint64_t messages_sent{0};
  std::uint64_t packets_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t packets_received{0};
  std::uint64_t bad_packets{0};
  std::uint64_t locates_sent{0};
  std::uint64_t locate_failures{0};
  std::uint64_t reassembly_timeouts{0};
  std::uint64_t packets_forwarded{0};
  std::uint64_t hops_exhausted{0};
};

class FlipStack {
 public:
  /// Delivery callback: full message from `src` addressed to `dst` (a local
  /// endpoint address or a joined group address). Single-fragment messages
  /// arrive as zero-copy views into the received frame.
  using Handler = std::function<void(Address src, Address dst, BufView msg)>;

  FlipStack(transport::Executor& exec, transport::Device& dev);
  FlipStack(const FlipStack&) = delete;
  FlipStack& operator=(const FlipStack&) = delete;

  /// Attach a further network device (routers / multi-homed hosts).
  /// Returns the device index (the constructor's device is index 0).
  std::size_t add_device(transport::Device& dev);
  std::size_t device_count() const { return devices_.size(); }

  /// Become a FLIP router: relay unicasts along cached routes, answer
  /// locates from the cache, flood multicasts/locates to other networks.
  /// Assumes a loop-free (tree) topology, as FLIP's Ethernet deployments
  /// were; the hop count is the backstop.
  void set_forwarding(bool on);
  bool forwarding() const { return forwarding_; }

  /// Claim a process address on this stack; packets to it are delivered to
  /// `handler`. Answers locates for it.
  void register_endpoint(Address addr, Handler handler);
  void unregister_endpoint(Address addr);

  /// Subscribe to a group address: multicasts to it are delivered to
  /// `handler` (including loopback copies of our own multicasts).
  void join_group(Address group, Handler handler);
  void leave_group(Address group);
  bool in_group(Address group) const { return groups_.count(group) > 0; }

  /// Datagram send. Group addresses multicast; process addresses unicast
  /// (with transparent locate on a route-cache miss). Local destinations
  /// short-circuit. Unreliable: delivery is best-effort, like IP.
  /// Accepts a BufView (a `Buffer` rvalue converts without copying).
  Status send(Address dst, Address src, BufView msg);

  /// Drop the cached route for `addr` (peer suspected dead / migrated).
  void invalidate_route(Address addr);
  /// Cached next hop for `addr`, if known (tests & diagnostics).
  struct Route {
    std::size_t device{0};
    transport::StationId station{0};
  };
  std::optional<Route> route(Address addr) const;

  const Stats& stats() const { return stats_; }
  transport::Executor& executor() { return exec_; }

 private:
  struct PendingLocate {
    std::vector<std::pair<Address /*src*/, BufView>> queued;
    /// In-transit packets held by a router: forwarded verbatim (original
    /// headers intact, so reassembly keys survive the extra hop).
    std::vector<DecodedPacket> queued_forwards;
    /// Requesters on other networks waiting for our (router) answer.
    std::vector<std::pair<std::size_t, transport::StationId>> requesters;
    int attempts{0};
    transport::TimerId timer{transport::kInvalidTimer};
  };
  struct Partial {
    Buffer data;
    std::map<std::uint32_t, std::uint32_t> have;  // offset -> len
    std::size_t bytes{0};
    Time deadline{};
    Address dst;
  };
  using ReassemblyKey = std::pair<std::uint64_t, std::uint32_t>;

  void transmit(PacketType type, Address dst, Address src, BufView msg,
                std::optional<Route> unicast_to, std::uint8_t hops);
  void start_locate(Address dst);
  void fire_locate(Address dst);
  void on_frame(std::size_t dev, transport::StationId from, BufView payload);
  void handle_data(std::size_t dev, DecodedPacket pkt);
  void forward_unicast(std::size_t in_dev, const DecodedPacket& pkt);
  void flood(std::size_t in_dev, const DecodedPacket& pkt);
  void send_here_is(std::size_t dev, transport::StationId to, Address target);
  void deliver_local(Address src, Address dst, BufView msg);
  void learn_route(Address addr, std::size_t dev, transport::StationId st);
  void gc_reassembly();
  BufView reencode(const DecodedPacket& pkt, std::uint8_t hops) const;

  transport::Executor& exec_;
  std::vector<transport::Device*> devices_;
  Stats stats_;
  bool forwarding_{false};

  std::unordered_map<Address, Handler> endpoints_;
  std::unordered_map<Address, Handler> groups_;
  std::unordered_map<Address, Route> routes_;
  std::unordered_map<Address, PendingLocate> locating_;
  std::map<ReassemblyKey, Partial> partials_;
  std::uint32_t next_msg_id_{1};
  transport::TimerId gc_timer_{transport::kInvalidTimer};
};

}  // namespace amoeba::flip
