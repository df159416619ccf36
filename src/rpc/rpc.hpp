// Amoeba-style RPC over FLIP: the paper's point-to-point baseline.
//
// Amoeba supports exactly one point-to-point primitive — RPC (Section 2.1)
// — with blocking trans/getreq/putrep semantics. This module implements
// the transaction protocol on the same FLIP substrate as the group layer:
// at-most-once execution via transaction ids and a reply cache,
// client-side retransmission, and ForwardRequest (Table 1): a group member
// that received a request may forward it to another member, whose reply
// goes straight back to the client.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "flip/stack.hpp"
#include "transport/runtime.hpp"

namespace amoeba::rpc {

struct RpcConfig {
  Duration retry = Duration::millis(100);
  int retries = 5;
};

struct RpcStats {
  std::uint64_t calls_sent{0};
  std::uint64_t calls_completed{0};
  std::uint64_t calls_failed{0};
  std::uint64_t retransmissions{0};
  std::uint64_t requests_served{0};
  std::uint64_t duplicate_requests{0};
  std::uint64_t forwards{0};
};

class RpcEndpoint {
 public:
  /// Encoded RPC header: the paper's 32-byte Amoeba user header.
  static constexpr std::size_t kHeaderBytes = 32;
  /// Largest request call() or reply reply() accepts: FLIP's limit minus
  /// the RPC header.
  static constexpr std::size_t kMaxMessage = flip::kMaxMessage - kHeaderBytes;

  /// Completion of a client call: the reply bytes, or a failure status
  /// (timeout after the retry budget).
  using ReplyCb = std::function<void(Result<Buffer>)>;

  /// An incoming request as seen by a server. Keep it (cheap to copy) to
  /// answer later or to forward.
  struct Request {
    flip::Address client;
    std::uint64_t xid{0};
    Buffer data;
  };
  using RequestHandler = std::function<void(const Request&)>;

  RpcEndpoint(flip::FlipStack& flip, transport::Executor& exec,
              flip::Address my_address, RpcConfig config = {});
  ~RpcEndpoint();
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Client side (trans): send `request`, get the reply or a timeout. A
  /// request over kMaxMessage fails at once with Status::overflow.
  void call(flip::Address server, Buffer request, ReplyCb done);

  /// Server side (getreq): `handler` runs once per unique request; answer
  /// with `reply` (putrep) or pass it on with `forward` (ForwardRequest).
  void set_request_handler(RequestHandler handler) {
    handler_ = std::move(handler);
  }
  /// A response over kMaxMessage is refused with Status::overflow: nothing
  /// is sent and the request stays open, so the server may still answer it.
  Status reply(const Request& request, Buffer response);
  void forward(const Request& request, flip::Address other_server);

  flip::Address address() const { return my_addr_; }
  const RpcStats& stats() const { return stats_; }

 private:
  enum class MsgType : std::uint8_t { request = 1, reply = 2 };
  struct PendingCall {
    flip::Address server;
    Buffer request;
    ReplyCb done;
    int attempts{0};
    transport::TimerId timer{transport::kInvalidTimer};
  };
  struct CachedReply {
    Buffer response;
    Time expires{};
  };

  void on_packet(flip::Address src, BufView bytes);
  void transmit_call(std::uint64_t xid);
  void on_call_timer(std::uint64_t xid);
  Buffer encode(MsgType type, std::uint64_t xid, flip::Address client,
                const Buffer& payload) const;
  void gc_reply_cache();

  flip::FlipStack& flip_;
  transport::Executor& exec_;
  flip::Address my_addr_;
  RpcConfig cfg_;
  RpcStats stats_;
  RequestHandler handler_;

  std::uint64_t next_xid_{1};
  std::map<std::uint64_t, PendingCall> pending_;
  /// xid -> cached reply (at-most-once duplicate suppression).
  std::map<std::pair<std::uint64_t, std::uint64_t>, CachedReply> served_;
  /// Requests currently executing (handler invoked, no reply yet).
  std::map<std::pair<std::uint64_t, std::uint64_t>, bool> in_progress_;
  transport::TimerId gc_timer_{transport::kInvalidTimer};
};

}  // namespace amoeba::rpc
