// Blocking RPC wrappers (trans / getreq / putrep) for real runtimes — the
// exact call shapes Amoeba gave applications, on top of the asynchronous
// RpcEndpoint. Same threading model as group/blocking.hpp: callers park
// on a condition variable; the UdpRuntime loop thread completes them.
#pragma once

#include <condition_variable>
#include <deque>
#include <optional>

#include "rpc/rpc.hpp"
#include "transport/udp_runtime.hpp"

namespace amoeba::rpc {

class BlockingRpc {
 public:
  BlockingRpc(transport::UdpRuntime& runtime, flip::FlipStack& flip,
              flip::Address my_address, RpcConfig config = {});

  /// trans(): send `request` to `server`, block for the reply.
  Result<Buffer> call(flip::Address server, Buffer request);

  /// getreq(): block until a request arrives (or the timeout passes).
  Result<RpcEndpoint::Request> get_request(
      std::optional<Duration> timeout = std::nullopt);

  /// putrep(): answer a request obtained from get_request(). An oversize
  /// response is refused with Status::overflow (see RpcEndpoint::reply).
  Status put_reply(const RpcEndpoint::Request& request, Buffer response);

  /// ForwardRequest (Table 1): pass the request to another server; its
  /// reply goes straight to the original client.
  void forward(const RpcEndpoint::Request& request, flip::Address server);

  RpcEndpoint& endpoint() { return rpc_; }

 private:
  transport::UdpRuntime& rt_;
  std::condition_variable cv_;
  std::deque<RpcEndpoint::Request> inbox_;
  RpcEndpoint rpc_;  // last: its handler touches the fields above
};

}  // namespace amoeba::rpc
