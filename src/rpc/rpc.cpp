#include "rpc/rpc.hpp"

#include "common/logging.hpp"

namespace amoeba::rpc {

namespace {
/// How long a served reply stays cached for duplicate suppression.
constexpr Duration kReplyCacheTtl = Duration::seconds(2);
}  // namespace

RpcEndpoint::RpcEndpoint(flip::FlipStack& flip, transport::Executor& exec,
                         flip::Address my_address, RpcConfig config)
    : flip_(flip), exec_(exec), my_addr_(my_address), cfg_(config) {
  flip_.register_endpoint(
      my_addr_, [this](flip::Address src, flip::Address, BufView bytes) {
        on_packet(src, std::move(bytes));
      });
}

RpcEndpoint::~RpcEndpoint() {
  for (auto& [xid, call] : pending_) exec_.cancel_timer(call.timer);
  exec_.cancel_timer(gc_timer_);
  flip_.unregister_endpoint(my_addr_);
}

Buffer RpcEndpoint::encode(MsgType type, std::uint64_t xid,
                           flip::Address client, const Buffer& payload) const {
  BufWriter w(kHeaderBytes + payload.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(xid);
  w.u64(client.id);
  // Pad the RPC header to the paper's 32-byte Amoeba user header so wire
  // accounting matches the group layer's.
  for (int i = 0; i < 15; ++i) w.u8(0);
  w.raw(payload);
  return std::move(w).take();
}

void RpcEndpoint::call(flip::Address server, Buffer request, ReplyCb done) {
  if (request.size() > kMaxMessage) {
    done(Status::overflow);
    return;
  }
  const std::uint64_t xid = next_xid_++;
  PendingCall call;
  call.server = server;
  call.request = std::move(request);
  call.done = std::move(done);
  pending_.emplace(xid, std::move(call));
  ++stats_.calls_sent;
  exec_.charge(exec_.costs().copy_time(pending_[xid].request.size()));
  transmit_call(xid);
}

void RpcEndpoint::transmit_call(std::uint64_t xid) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  Buffer pkt = encode(MsgType::request, xid, my_addr_, call.request);
  exec_.post(exec_.costs().rpc_client, [this, server = call.server,
                                        pkt = std::move(pkt)]() mutable {
    flip_.send(server, my_addr_, std::move(pkt));
  });
  exec_.cancel_timer(call.timer);
  call.timer =
      exec_.set_timer(cfg_.retry, [this, xid] { on_call_timer(xid); });
}

void RpcEndpoint::on_call_timer(std::uint64_t xid) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  if (++call.attempts > cfg_.retries) {
    auto done = std::move(call.done);
    const flip::Address server = call.server;
    pending_.erase(it);
    ++stats_.calls_failed;
    // The server may have moved (process migration) or died; drop the
    // cached route so a later call re-locates.
    flip_.invalidate_route(server);
    if (done) done(Status::timeout);
    return;
  }
  ++stats_.retransmissions;
  transmit_call(xid);
}

void RpcEndpoint::on_packet(flip::Address src, BufView bytes) {
  BufReader r(bytes);
  const auto type = static_cast<MsgType>(r.u8());
  const std::uint64_t xid = r.u64();
  const flip::Address client{r.u64()};
  (void)r.raw(15);  // header padding
  if (!r.ok()) return;
  const auto body = r.rest();
  Buffer payload(body.begin(), body.end());

  if (type == MsgType::reply) {
    exec_.post(exec_.costs().rpc_client,
               [this, xid, payload = std::move(payload)]() mutable {
                 auto it = pending_.find(xid);
                 if (it == pending_.end()) return;  // late duplicate
                 exec_.cancel_timer(it->second.timer);
                 auto done = std::move(it->second.done);
                 pending_.erase(it);
                 ++stats_.calls_completed;
                 exec_.charge(exec_.costs().copy_time(payload.size()));
                 if (done) done(std::move(payload));
               });
    return;
  }
  if (type != MsgType::request) return;

  exec_.post(
      exec_.costs().rpc_server,
      [this, src, xid, client, payload = std::move(payload)]() mutable {
        const auto key = std::make_pair(client.id, xid);
        if (const auto cached = served_.find(key); cached != served_.end()) {
          // Duplicate of an already-answered request: resend the reply.
          ++stats_.duplicate_requests;
          Buffer pkt =
              encode(MsgType::reply, xid, client, cached->second.response);
          flip_.send(client, my_addr_, std::move(pkt));
          return;
        }
        if (in_progress_.count(key) > 0) {
          ++stats_.duplicate_requests;
          return;  // still executing; the eventual reply answers it
        }
        if (!handler_) return;
        in_progress_[key] = true;
        ++stats_.requests_served;
        Request req;
        req.client = client.is_null() ? src : client;
        req.xid = xid;
        req.data = std::move(payload);
        handler_(req);
      });
}

Status RpcEndpoint::reply(const Request& request, Buffer response) {
  if (response.size() > kMaxMessage) return Status::overflow;
  const auto key = std::make_pair(request.client.id, request.xid);
  in_progress_.erase(key);
  CachedReply cached;
  cached.response = response;
  cached.expires = exec_.now() + kReplyCacheTtl;
  served_[key] = std::move(cached);
  if (gc_timer_ == transport::kInvalidTimer) {
    gc_timer_ = exec_.set_timer(kReplyCacheTtl, [this] { gc_reply_cache(); });
  }
  exec_.charge(exec_.costs().copy_time(response.size()));
  Buffer pkt = encode(MsgType::reply, request.xid, request.client, response);
  exec_.post(exec_.costs().rpc_server,
             [this, client = request.client, pkt = std::move(pkt)]() mutable {
               flip_.send(client, my_addr_, std::move(pkt));
             });
  return Status::ok;
}

void RpcEndpoint::forward(const Request& request, flip::Address other_server) {
  // ForwardRequest (Table 1): hand the request to another server; the
  // reply goes directly from there to the client (our client field rides
  // along in the header).
  const auto key = std::make_pair(request.client.id, request.xid);
  in_progress_.erase(key);
  ++stats_.forwards;
  Buffer pkt = encode(MsgType::request, request.xid, request.client,
                      request.data);
  exec_.post(exec_.costs().rpc_server,
             [this, other_server, pkt = std::move(pkt)]() mutable {
               flip_.send(other_server, my_addr_, std::move(pkt));
             });
}

void RpcEndpoint::gc_reply_cache() {
  gc_timer_ = transport::kInvalidTimer;
  const Time now = exec_.now();
  for (auto it = served_.begin(); it != served_.end();) {
    it = it->second.expires <= now ? served_.erase(it) : ++it;
  }
  if (!served_.empty()) {
    gc_timer_ = exec_.set_timer(kReplyCacheTtl, [this] { gc_reply_cache(); });
  }
}

}  // namespace amoeba::rpc
