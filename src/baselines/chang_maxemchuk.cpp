#include "baselines/chang_maxemchuk.hpp"

#include "common/logging.hpp"

namespace amoeba::baselines {

namespace {
enum class CmType : std::uint8_t {
  data = 1,
  ack = 2,
  nack = 3,
  retx = 4,
  confirm = 5,
};

struct CmWire {
  CmType type{CmType::data};
  std::uint32_t sender{0};
  std::uint32_t local_id{0};
  std::uint32_t ts{0};
  std::uint32_t next_token{0};
  Buffer payload;
};

// Header padded to the same 60 bytes as the group layer so the wire
// accounting of both protocols is comparable.
constexpr std::size_t kCmHeader = 60;

// Retry cadences and history depth, the group layer's defaults.
constexpr Duration kSendRetry = Duration::millis(100);
constexpr int kSendRetries = 5;
constexpr Duration kNackRetry = Duration::millis(25);
constexpr std::size_t kHistorySize = 128;

Buffer encode_cm(const CmWire& m) {
  BufWriter w(kCmHeader + m.payload.size());
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u32(m.sender);
  w.u32(m.local_id);
  w.u32(m.ts);
  w.u32(m.next_token);
  w.u32(static_cast<std::uint32_t>(m.payload.size()));
  for (std::size_t i = 21; i < kCmHeader; ++i) w.u8(0);
  w.raw(m.payload);
  return std::move(w).take();
}

std::optional<CmWire> decode_cm(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  CmWire m;
  m.type = static_cast<CmType>(r.u8());
  m.sender = r.u32();
  m.local_id = r.u32();
  m.ts = r.u32();
  m.next_token = r.u32();
  const std::uint32_t len = r.u32();
  (void)r.raw(kCmHeader - 21);
  if (!r.ok() || r.remaining() != len) return std::nullopt;
  const auto rest = r.rest();
  m.payload.assign(rest.begin(), rest.end());
  return m;
}
}  // namespace

CmMember::CmMember(flip::FlipStack& flip, transport::Executor& exec,
                   flip::Address my_address, flip::Address group,
                   std::vector<flip::Address> ring, std::uint32_t index,
                   DeliverCb deliver)
    : flip_(flip),
      exec_(exec),
      my_addr_(my_address),
      group_(group),
      ring_(std::move(ring)),
      index_(index),
      deliver_(std::move(deliver)) {
  flip_.join_group(group_, [this](flip::Address, flip::Address, BufView bytes) {
    on_packet(std::move(bytes));
  });
}

CmMember::~CmMember() {
  exec_.cancel_timer(nack_timer_);
  exec_.cancel_timer(ack_retry_timer_);
  if (out_.has_value()) exec_.cancel_timer(out_->timer);
  flip_.leave_group(group_);
}

void CmMember::broadcast(Buffer pkt, std::size_t) {
  flip_.send(group_, my_addr_, std::move(pkt));
}

void CmMember::send(Buffer data, StatusCb done) {
  queue_.emplace_back(std::move(data), std::move(done));
  if (!out_.has_value()) transmit_pending();
}

void CmMember::transmit_pending() {
  if (out_.has_value() || queue_.empty()) return;
  auto [data, done] = std::move(queue_.front());
  queue_.pop_front();
  PendingSend p;
  p.local_id = next_local_id_++;
  p.data = std::move(data);
  p.done = std::move(done);
  out_ = std::move(p);
  ++stats_.sends;

  // CM broadcasts everything, data messages included.
  CmWire m;
  m.type = CmType::data;
  m.sender = index_;
  m.local_id = out_->local_id;
  m.payload = out_->data;
  exec_.post(exec_.costs().group_send +
                 exec_.costs().copy_time(out_->data.size()),
             [this, pkt = encode_cm(m)]() mutable {
               broadcast(std::move(pkt), 0);
             });
  out_->timer = exec_.set_timer(kSendRetry, [this] {
    if (!out_.has_value()) return;
    if (++out_->attempts > kSendRetries) {
      auto cb = std::move(out_->done);
      out_.reset();
      if (cb) cb(Status::timeout);
      return;
    }
    CmWire again;
    again.type = CmType::data;
    again.sender = index_;
    again.local_id = out_->local_id;
    again.payload = out_->data;
    broadcast(encode_cm(again), 0);
  });
}

void CmMember::on_packet(BufView bytes) {
  auto decoded = decode_cm(bytes.span());
  if (!decoded.has_value()) return;
  const auto cost =
      decoded->type == CmType::ack && holds_token()
          ? exec_.costs().group_sequence()
          : exec_.costs().group_deliver +
                exec_.costs().copy_time(decoded->payload.size());
  exec_.post(cost, [this, m = std::move(*decoded)]() mutable {
    switch (m.type) {
      case CmType::data:
      case CmType::retx: {
        if (m.type == CmType::retx) {
          // A retransmission carries its ordering with it.
          ordered_[m.sender] = {m.local_id, m.ts};
          unordered_.erase({m.sender, m.local_id});
          if (m.ts >= next_deliver_) {
            auto [it, inserted] = slots_.try_emplace(m.ts);
            it->second.sender = m.sender;
            it->second.local_id = m.local_id;
            it->second.data = std::move(m.payload);
            it->second.have_data = true;
            it->second.acked = true;
            drain();
          }
          break;
        }
        // Duplicate of an already-ordered message (its sender missed the
        // ack): do not stash it again; its original acker re-announces.
        const auto ord = ordered_.find(m.sender);
        if (ord != ordered_.end() && ord->second.first == m.local_id) {
          const std::uint32_t ts = ord->second.second;
          if (ts % ring_.size() == index_) {
            broadcast_ack(ts, m.sender, m.local_id);
          }
          break;
        }
        unordered_[{m.sender, m.local_id}] = std::move(m.payload);
        if (holds_token()) try_ack_as_token_site();
        break;
      }
      case CmType::ack: {
        // Track the newest ordering per sender (re-broadcast old acks must
        // not roll the duplicate-suppression state backwards).
        auto [ord, ord_new] = ordered_.try_emplace(m.sender, m.local_id, m.ts);
        if (!ord_new && m.ts >= ord->second.second) {
          ord->second = {m.local_id, m.ts};
        }
        if (my_last_ack_ts_.has_value() && m.ts > *my_last_ack_ts_) {
          // The token moved on: our ack clearly arrived.
          my_last_ack_ts_.reset();
          exec_.cancel_timer(ack_retry_timer_);
          ack_retry_timer_ = transport::kInvalidTimer;
        }
        if (m.ts >= next_deliver_) {
          auto [it, inserted] = slots_.try_emplace(m.ts);
          Slot& slot = it->second;
          slot.sender = m.sender;
          slot.local_id = m.local_id;
          slot.acked = true;
          const auto u = unordered_.find({m.sender, m.local_id});
          if (u != unordered_.end()) {
            slot.data = std::move(u->second);
            slot.have_data = true;
            unordered_.erase(u);
          }
        }
        if (m.ts + 1 >= next_ts_) {
          next_ts_ = m.ts + 1;
          token_holder_ = m.next_token;
          ++stats_.token_transfers;
          if (token_holder_ == index_) maybe_confirm_token();
        }
        // Our own message being acked completes the send.
        if (out_.has_value() && m.sender == index_ &&
            m.local_id == out_->local_id) {
          exec_.cancel_timer(out_->timer);
          auto done = std::move(out_->done);
          out_.reset();
          ++stats_.sends_completed;
          if (done) done(Status::ok);
          transmit_pending();
        }
        drain();
        if (holds_token()) try_ack_as_token_site();
        break;
      }
      case CmType::nack: {
        // Serve a retransmission if we were the acker of that timestamp
        // (the token rotates deterministically: acker(ts) = ts mod n).
        for (std::uint32_t ts = m.ts; ts < m.ts + m.next_token; ++ts) {
          if (ts % ring_.size() != index_) continue;
          CmWire rt;
          rt.type = CmType::retx;
          rt.ts = ts;
          if (ts >= hist_base_ &&
              ts < hist_base_ + static_cast<std::uint32_t>(history_.size())) {
            const Delivery& d = history_[ts - hist_base_];
            rt.sender = d.sender;
            rt.local_id = d.local_id;
            rt.payload = d.data;
          } else if (const auto it = slots_.find(ts);
                     it != slots_.end() && it->second.have_data) {
            rt.sender = it->second.sender;
            rt.local_id = it->second.local_id;
            rt.payload = it->second.data;
          } else {
            continue;
          }
          ++stats_.retransmissions;
          broadcast(encode_cm(rt), 0);
        }
        break;
      }
      case CmType::confirm:
        break;  // informational: the new token site is up to date
    }
  });
}

void CmMember::try_ack_as_token_site() {
  if (!holds_token() || !token_confirmed_) return;
  // Ack exactly one not-yet-ordered message, passing the token with it.
  while (!unordered_.empty()) {
    const auto it = unordered_.begin();
    const auto ord = ordered_.find(it->first.first);
    if (ord != ordered_.end() && ord->second.first == it->first.second) {
      unordered_.erase(it);  // stale duplicate that slipped in
      continue;
    }
    ++stats_.acks_broadcast;
    broadcast_ack(next_ts_, it->first.first, it->first.second);
    my_last_ack_ts_ = next_ts_;
    ack_retries_ = 0;
    arm_ack_retry();
    // Our own loopback of this ack updates next_ts_/token_holder_ and
    // completes the ordering locally, same as at every other member.
    return;
  }
}

void CmMember::broadcast_ack(std::uint32_t ts, std::uint32_t sender,
                             std::uint32_t local_id) {
  CmWire ack;
  ack.type = CmType::ack;
  ack.ts = ts;
  ack.sender = sender;
  ack.local_id = local_id;
  ack.next_token = (ts + 1) % static_cast<std::uint32_t>(ring_.size());
  broadcast(encode_cm(ack), 0);
}

void CmMember::arm_ack_retry() {
  exec_.cancel_timer(ack_retry_timer_);
  ack_retry_timer_ = exec_.set_timer(kNackRetry * 3, [this] {
    ack_retry_timer_ = transport::kInvalidTimer;
    if (!my_last_ack_ts_.has_value()) return;
    if (++ack_retries_ > kSendRetries) {
      my_last_ack_ts_.reset();
      return;
    }
    // The ack (and with it the token hand-off) may have been lost:
    // re-announce from our history/slots.
    const std::uint32_t ts = *my_last_ack_ts_;
    const Delivery* d = nullptr;
    if (ts >= hist_base_ &&
        ts < hist_base_ + static_cast<std::uint32_t>(history_.size())) {
      d = &history_[ts - hist_base_];
    }
    if (d != nullptr) {
      broadcast_ack(ts, d->sender, d->local_id);
    } else if (const auto it = slots_.find(ts); it != slots_.end()) {
      broadcast_ack(ts, it->second.sender, it->second.local_id);
    }
    arm_ack_retry();
  });
}

void CmMember::maybe_confirm_token() {
  // The incoming token site must hold everything acked so far; if not, it
  // recovers first and announces readiness with an extra control message
  // (the "2 to 3 messages per broadcast" in the paper's comparison).
  bool missing = false;
  for (std::uint32_t ts = next_deliver_; ts < next_ts_; ++ts) {
    const auto it = slots_.find(ts);
    if (it == slots_.end() || !it->second.have_data) {
      missing = true;
      break;
    }
  }
  if (!missing) {
    token_confirmed_ = true;
    return;
  }
  token_confirmed_ = false;
  schedule_nack();
}

void CmMember::drain() {
  while (true) {
    const auto it = slots_.find(next_deliver_);
    if (it == slots_.end() || !it->second.acked || !it->second.have_data) {
      break;
    }
    Delivery d;
    d.timestamp = next_deliver_;
    d.sender = it->second.sender;
    d.local_id = it->second.local_id;
    d.data = std::move(it->second.data);
    slots_.erase(it);
    if (history_.empty()) hist_base_ = d.timestamp;
    history_.push_back(d);
    while (history_.size() > kHistorySize) {
      history_.pop_front();
      ++hist_base_;
    }
    ++next_deliver_;
    ++stats_.delivered;
    if (deliver_) deliver_(history_.back());
  }
  if (!token_confirmed_ && holds_token() && next_deliver_ == next_ts_) {
    token_confirmed_ = true;
    CmWire c;
    c.type = CmType::confirm;
    c.sender = index_;
    ++stats_.token_confirms;
    broadcast(encode_cm(c), 0);
    try_ack_as_token_site();
  }
  bool gaps = false;
  for (std::uint32_t ts = next_deliver_; ts < next_ts_; ++ts) {
    const auto it = slots_.find(ts);
    if (it == slots_.end() || !it->second.have_data) {
      gaps = true;
      break;
    }
  }
  if (gaps) schedule_nack();
}

void CmMember::schedule_nack() {
  if (nack_timer_ != transport::kInvalidTimer) return;
  nack_timer_ = exec_.set_timer(Duration::millis(1), [this] { fire_nack(); });
}

void CmMember::fire_nack() {
  nack_timer_ = transport::kInvalidTimer;
  std::uint32_t first = next_ts_;
  for (std::uint32_t ts = next_deliver_; ts < next_ts_; ++ts) {
    const auto it = slots_.find(ts);
    if (it == slots_.end() || !it->second.have_data) {
      first = ts;
      break;
    }
  }
  if (first == next_ts_) return;
  CmWire m;
  m.type = CmType::nack;
  m.ts = first;
  m.next_token = next_ts_ - first;  // range length, reusing the field
  ++stats_.nacks;
  broadcast(encode_cm(m), 0);
  nack_timer_ = exec_.set_timer(kNackRetry, [this] { fire_nack(); });
}

}  // namespace amoeba::baselines
