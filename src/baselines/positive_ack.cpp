#include "baselines/positive_ack.hpp"

namespace amoeba::baselines {

namespace {
enum class PaType : std::uint8_t { data = 1, ack = 2 };
constexpr std::size_t kPaHeader = 60;  // comparable wire accounting
/// Retransmission cadence and budget of an unacknowledged broadcast.
constexpr Duration kRetry = Duration::millis(50);
constexpr int kRetries = 10;

Buffer encode_pa(PaType type, std::uint32_t sender, std::uint32_t seq,
                 const Buffer& payload) {
  BufWriter w(kPaHeader + payload.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(sender);
  w.u32(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  for (std::size_t i = 13; i < kPaHeader; ++i) w.u8(0);
  w.raw(payload);
  return std::move(w).take();
}

struct PaWire {
  PaType type;
  std::uint32_t sender;
  std::uint32_t seq;
  Buffer payload;
};

std::optional<PaWire> decode_pa(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  PaWire m{};
  m.type = static_cast<PaType>(r.u8());
  m.sender = r.u32();
  m.seq = r.u32();
  const std::uint32_t len = r.u32();
  (void)r.raw(kPaHeader - 13);
  if (!r.ok() || r.remaining() != len) return std::nullopt;
  const auto rest = r.rest();
  m.payload.assign(rest.begin(), rest.end());
  return m;
}
}  // namespace

PaMember::PaMember(flip::FlipStack& flip, transport::Executor& exec,
                   flip::Address my_address, flip::Address group,
                   std::vector<flip::Address> ring, std::uint32_t index,
                   PaConfig config, DeliverCb deliver, std::uint64_t seed)
    : flip_(flip),
      exec_(exec),
      my_addr_(my_address),
      group_(group),
      ring_(std::move(ring)),
      index_(index),
      cfg_(config),
      deliver_(std::move(deliver)),
      rng_(seed ^ (index * 0x9E3779B97F4A7C15ULL)) {
  flip_.join_group(group_, [this](flip::Address, flip::Address, BufView bytes) {
    on_group_packet(std::move(bytes));
  });
  flip_.register_endpoint(my_addr_,
                          [this](flip::Address src, flip::Address, BufView b) {
                            on_ack(src, std::move(b));
                          });
}

PaMember::~PaMember() {
  if (out_.has_value()) exec_.cancel_timer(out_->timer);
  flip_.unregister_endpoint(my_addr_);
  flip_.leave_group(group_);
}

void PaMember::send(Buffer data, StatusCb done) {
  queue_.emplace_back(std::move(data), std::move(done));
  if (!out_.has_value()) transmit(true);
}

void PaMember::transmit(bool first) {
  if (first) {
    if (out_.has_value() || queue_.empty()) return;
    auto [data, done] = std::move(queue_.front());
    queue_.pop_front();
    Outstanding o;
    o.seq = next_seq_++;
    o.data = std::move(data);
    o.done = std::move(done);
    for (std::uint32_t i = 0; i < ring_.size(); ++i) {
      if (i != index_) o.awaiting.insert(i);
    }
    out_ = std::move(o);
    ++stats_.sends;
    ++stats_.delivered;  // local delivery
    if (deliver_) deliver_(index_, out_->data);
  }
  Buffer pkt = encode_pa(PaType::data, index_, out_->seq, out_->data);
  exec_.post(exec_.costs().group_send +
                 exec_.costs().copy_time(out_->data.size()),
             [this, pkt = std::move(pkt)]() mutable {
               flip_.send(group_, my_addr_, std::move(pkt));
             });
  exec_.cancel_timer(out_->timer);
  out_->timer = exec_.set_timer(kRetry, [this] { on_timer(); });
}

void PaMember::on_timer() {
  if (!out_.has_value()) return;
  if (out_->awaiting.empty()) return;
  if (++out_->attempts > kRetries) {
    auto done = std::move(out_->done);
    out_.reset();
    ++stats_.sends_failed;
    if (done) done(Status::timeout);
    transmit(true);
    return;
  }
  // "Unnecessary timeouts and retransmissions of the original message."
  ++stats_.retransmissions;
  transmit(false);
}

void PaMember::on_group_packet(BufView bytes) {
  auto m = decode_pa(bytes.span());
  if (!m.has_value() || m->type != PaType::data) return;
  exec_.post(exec_.costs().group_deliver +
                 exec_.costs().copy_time(m->payload.size()),
             [this, m = std::move(*m)] {
               if (m.sender == index_) return;  // own loopback
               auto [it, inserted] = seen_.try_emplace(m.sender, 0);
               const bool fresh = m.seq > it->second;
               if (fresh) {
                 it->second = m.seq;
                 ++stats_.delivered;
                 if (deliver_) deliver_(m.sender, m.payload);
               }
               // Ack fresh and duplicate alike (the sender clearly has not
               // heard us), immediately or after a randomized spread.
               Buffer ack = encode_pa(PaType::ack, index_, m.seq, {});
               const flip::Address to = ring_[m.sender];
               ++stats_.acks_sent;
               if (cfg_.ack_spread.ns > 0) {
                 const Duration wait{static_cast<std::int64_t>(
                     rng_.below(static_cast<std::uint64_t>(cfg_.ack_spread.ns)))};
                 exec_.set_timer(wait, [this, to, ack = std::move(ack)]() mutable {
                   flip_.send(to, my_addr_, std::move(ack));
                 });
               } else {
                 flip_.send(to, my_addr_, std::move(ack));
               }
             });
}

void PaMember::on_ack(flip::Address, BufView bytes) {
  auto m = decode_pa(bytes.span());
  if (!m.has_value() || m->type != PaType::ack) return;
  exec_.post(exec_.costs().group_ack, [this, m = std::move(*m)] {
    if (!out_.has_value() || m.seq != out_->seq) return;
    out_->awaiting.erase(m.sender);
    if (out_->awaiting.empty()) {
      exec_.cancel_timer(out_->timer);
      auto done = std::move(out_->done);
      out_.reset();
      ++stats_.sends_completed;
      if (done) done(Status::ok);
      transmit(true);
    }
  });
}

}  // namespace amoeba::baselines
