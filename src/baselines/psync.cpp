#include "baselines/psync.hpp"

#include <algorithm>

namespace amoeba::baselines {

namespace {
enum class PsType : std::uint8_t { data = 1, nack = 2 };
constexpr std::size_t kHeader = 60;  // comparable wire accounting

/// Silence longer than this triggers a null message so peers' total order
/// can progress. The delay of a lone sender's totally-ordered delivery is
/// bounded below by this — measure it and see Section 2.2.
constexpr Duration kHeartbeat = Duration::millis(5);
constexpr Duration kNackRetry = Duration::millis(25);
/// Own sent messages kept for per-sender retransmission.
constexpr std::size_t kHistorySize = 256;

Buffer encode_ps(PsType type, std::uint32_t sender, std::uint32_t seq,
                 std::uint64_t lamport, bool is_null, const Buffer& payload) {
  BufWriter w(kHeader + payload.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(sender);
  w.u32(seq);
  w.u64(lamport);
  w.u8(is_null ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  for (std::size_t i = 22; i < kHeader; ++i) w.u8(0);
  w.raw(payload);
  return std::move(w).take();
}

struct PsWire {
  PsType type;
  std::uint32_t sender;
  std::uint32_t seq;
  std::uint64_t lamport;
  bool is_null;
  Buffer payload;
};

std::optional<PsWire> decode_ps(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  PsWire m{};
  m.type = static_cast<PsType>(r.u8());
  m.sender = r.u32();
  m.seq = r.u32();
  m.lamport = r.u64();
  m.is_null = r.u8() != 0;
  const std::uint32_t len = r.u32();
  (void)r.raw(kHeader - 22);
  if (!r.ok() || r.remaining() != len) return std::nullopt;
  const auto rest = r.rest();
  m.payload.assign(rest.begin(), rest.end());
  return m;
}
}  // namespace

PsyncMember::PsyncMember(flip::FlipStack& flip, transport::Executor& exec,
                         flip::Address my_address, flip::Address group,
                         std::vector<flip::Address> ring, std::uint32_t index,
                         DeliverCb deliver)
    : flip_(flip),
      exec_(exec),
      my_addr_(my_address),
      group_(group),
      ring_(std::move(ring)),
      index_(index),
      deliver_(std::move(deliver)),
      peers_(ring_.size()) {
  flip_.join_group(group_, [this](flip::Address, flip::Address, BufView bytes) {
    on_packet(std::move(bytes));
  });
  flip_.register_endpoint(my_addr_,
                          [this](flip::Address, flip::Address, BufView bytes) {
                            on_packet(std::move(bytes));
                          });
  arm_heartbeat();
}

PsyncMember::~PsyncMember() {
  exec_.cancel_timer(heartbeat_timer_);
  for (auto& p : peers_) exec_.cancel_timer(p.nack_timer);
  flip_.unregister_endpoint(my_addr_);
  flip_.leave_group(group_);
}

void PsyncMember::send(Buffer data) {
  ++stats_.sends;
  const std::uint64_t lamport = ++lamport_;
  const std::uint32_t seq = next_out_seq_++;
  out_history_.emplace_back(lamport, data);
  out_is_null_.push_back(false);
  while (out_history_.size() > kHistorySize) {
    out_history_.pop_front();
    out_is_null_.erase(out_is_null_.begin());
    ++out_hist_base_;
  }
  broadcast(seq, lamport, false, data);
  // Our own message participates in our ordering state like anyone
  // else's: loop it through the same path (the group loopback handles it
  // via the FLIP subscription).
  arm_heartbeat();
}

void PsyncMember::broadcast(std::uint32_t seq, std::uint64_t lamport,
                            bool is_null, const Buffer& data) {
  exec_.post(exec_.costs().group_send + exec_.costs().copy_time(data.size()),
             [this, pkt = encode_ps(PsType::data, index_, seq, lamport,
                                    is_null, data)]() mutable {
               flip_.send(group_, my_addr_, std::move(pkt));
             });
}

void PsyncMember::arm_heartbeat() {
  exec_.cancel_timer(heartbeat_timer_);
  heartbeat_timer_ = exec_.set_timer(kHeartbeat, [this] {
    // Silence stalls everyone's total order: emit a null message.
    ++stats_.heartbeats;
    const std::uint64_t lamport = ++lamport_;
    const std::uint32_t seq = next_out_seq_++;
    out_history_.emplace_back(lamport, Buffer{});
    out_is_null_.push_back(true);
    while (out_history_.size() > kHistorySize) {
      out_history_.pop_front();
      out_is_null_.erase(out_is_null_.begin());
      ++out_hist_base_;
    }
    broadcast(seq, lamport, true, Buffer{});
    arm_heartbeat();
  });
}

void PsyncMember::on_packet(BufView bytes) {
  auto decoded = decode_ps(bytes.span());
  if (!decoded.has_value()) return;
  const auto cost = exec_.costs().group_deliver +
                    exec_.costs().copy_time(decoded->payload.size());
  exec_.post(cost, [this, m = std::move(*decoded)]() mutable {
    if (m.type == PsType::nack) {
      // A peer (m.sender) is missing our messages [seq, +count): serve
      // unicast from our own out-history — the history is distributed
      // across senders, there is no central buffer to ask.
      if (m.sender >= ring_.size()) return;
      for (std::uint32_t s = m.seq;
           s < m.seq + static_cast<std::uint32_t>(m.lamport); ++s) {
        if (s < out_hist_base_ ||
            s >= out_hist_base_ + static_cast<std::uint32_t>(
                                      out_history_.size())) {
          continue;
        }
        const auto& [lam, data] = out_history_[s - out_hist_base_];
        ++stats_.retransmissions;
        Buffer pkt = encode_ps(PsType::data, index_, s, lam,
                               out_is_null_[s - out_hist_base_], data);
        exec_.post(exec_.costs().group_send,
                   [this, to = m.sender, pkt = std::move(pkt)]() mutable {
                     flip_.send(ring_[to], my_addr_, std::move(pkt));
                   });
      }
      return;
    }
    if (m.sender >= peers_.size()) return;
    PeerState& peer = peers_[m.sender];
    lamport_ = std::max(lamport_, m.lamport);  // Lamport clock merge
    if (m.seq < peer.next_seq) return;         // duplicate
    peer.ooo.emplace(m.seq, Pending{m.lamport, m.sender, std::move(m.payload),
                                    m.is_null});
    // Drain the per-sender FIFO prefix into the causal pending set.
    while (true) {
      const auto it = peer.ooo.find(peer.next_seq);
      if (it == peer.ooo.end()) break;
      peer.max_lamport = std::max(peer.max_lamport, it->second.lamport);
      pending_.emplace(std::pair{it->second.lamport, m.sender},
                       std::move(it->second));
      peer.ooo.erase(it);
      ++peer.next_seq;
    }
    // Per-sender gap: NACK the SENDER (distributed history).
    if (!peer.ooo.empty()) arm_nack(m.sender);
    try_deliver();
  });
}

void PsyncMember::arm_nack(std::uint32_t sender) {
  PeerState& peer = peers_[sender];
  if (peer.nack_timer != transport::kInvalidTimer) return;
  peer.nack_timer = exec_.set_timer(Duration::millis(1), [this, sender] {
    PeerState& p = peers_[sender];
    p.nack_timer = transport::kInvalidTimer;
    if (p.ooo.empty()) return;
    const std::uint32_t from = p.next_seq;
    const std::uint32_t count = p.ooo.rbegin()->first - from + 1;
    ++stats_.nacks;
    Buffer pkt = encode_ps(PsType::nack, index_, from,
                           std::min<std::uint32_t>(count, 32), false, {});
    exec_.post(exec_.costs().group_send, [this, sender,
                                          pkt = std::move(pkt)]() mutable {
      flip_.send(ring_[sender], my_addr_, std::move(pkt));
    });
    // Re-arm while the gap persists.
    if (!p.ooo.empty()) {
      p.nack_timer = exec_.set_timer(kNackRetry, [this, sender] {
        peers_[sender].nack_timer = transport::kInvalidTimer;
        arm_nack(sender);
      });
    }
  });
}

void PsyncMember::try_deliver() {
  // Total order: a pending message m is deliverable once every member has
  // been heard past t(m) — then nothing with a smaller stamp can appear.
  // Deliver in (lamport, sender) order: the order of pending_'s keys.
  while (!pending_.empty()) {
    const auto first = pending_.begin();
    Pending& m = first->second;
    for (std::uint32_t p = 0; p < peers_.size(); ++p) {
      if (p != m.sender && peers_[p].max_lamport <= m.lamport) return;
    }
    if (!m.is_null) {
      ++stats_.delivered;
      if (deliver_) deliver_(Delivery{m.lamport, m.sender, std::move(m.data)});
    }
    pending_.erase(first);
  }
}

}  // namespace amoeba::baselines
