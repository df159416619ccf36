#include "rpc/blocking.hpp"

namespace amoeba::rpc {

BlockingRpc::BlockingRpc(transport::UdpRuntime& runtime,
                         flip::FlipStack& flip, flip::Address my_address,
                         RpcConfig config)
    : rt_(runtime), rpc_(flip, runtime, my_address, config) {
  rpc_.set_request_handler([this](const RpcEndpoint::Request& req) {
    inbox_.push_back(req);
    cv_.notify_all();
  });
}

Result<Buffer> BlockingRpc::call(flip::Address server, Buffer request) {
  std::unique_lock lock(rt_.mutex());
  std::optional<Result<Buffer>> result;
  rpc_.call(server, std::move(request), [this, &result](Result<Buffer> r) {
    result = std::move(r);
    cv_.notify_all();
  });
  cv_.wait(lock, [&] { return result.has_value(); });
  return std::move(*result);
}

Result<RpcEndpoint::Request> BlockingRpc::get_request(
    std::optional<Duration> timeout) {
  std::unique_lock lock(rt_.mutex());
  const auto ready = [&] { return !inbox_.empty(); };
  if (timeout.has_value()) {
    if (!cv_.wait_for(lock, std::chrono::nanoseconds(timeout->ns), ready)) {
      return Status::timeout;
    }
  } else {
    cv_.wait(lock, ready);
  }
  RpcEndpoint::Request req = std::move(inbox_.front());
  inbox_.pop_front();
  return req;
}

Status BlockingRpc::put_reply(const RpcEndpoint::Request& request,
                              Buffer response) {
  std::lock_guard lock(rt_.mutex());
  return rpc_.reply(request, std::move(response));
}

void BlockingRpc::forward(const RpcEndpoint::Request& request,
                          flip::Address server) {
  std::lock_guard lock(rt_.mutex());
  rpc_.forward(request, server);
}

}  // namespace amoeba::rpc
