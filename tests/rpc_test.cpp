// RPC module tests: transaction semantics, retransmission, at-most-once,
// ForwardRequest.
#include <gtest/gtest.h>

#include "rpc/rpc.hpp"
#include "sim/world.hpp"
#include "transport/sim_runtime.hpp"

namespace amoeba::rpc {
namespace {

struct RpcNode {
  transport::SimExecutor exec;
  transport::SimDevice dev;
  flip::FlipStack flip;
  RpcEndpoint rpc;
  RpcNode(sim::Node& node, flip::Address addr, RpcConfig cfg = {})
      : exec(node), dev(node), flip(exec, dev), rpc(flip, exec, addr, cfg) {}
};

struct RpcFixture : ::testing::Test {
  sim::World world{3};
  flip::Address ca = flip::process_address(1);
  flip::Address sa = flip::process_address(2);
  flip::Address ta = flip::process_address(3);
  RpcNode client{world.node(0), ca};
  RpcNode server{world.node(1), sa};
  RpcNode third{world.node(2), ta};
};

TEST_F(RpcFixture, EchoCallCompletes) {
  int handled = 0;
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    ++handled;
    Buffer response = req.data;
    std::reverse(response.begin(), response.end());
    server.rpc.reply(req, std::move(response));
  });
  std::optional<Buffer> got;
  client.rpc.call(sa, Buffer{1, 2, 3}, [&](Result<Buffer> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  world.engine().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (Buffer{3, 2, 1}));
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(client.rpc.stats().calls_completed, 1u);
}

TEST_F(RpcFixture, NullRpcDelayIsRoughlyThePapersRpcTime) {
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    server.rpc.reply(req, Buffer{});
  });
  // Warm the route, then measure.
  bool warm = false;
  client.rpc.call(sa, Buffer{}, [&](Result<Buffer>) { warm = true; });
  world.engine().run();
  ASSERT_TRUE(warm);
  const Time start = world.now();
  Time end{};
  client.rpc.call(sa, Buffer{}, [&](Result<Buffer>) { end = world.now(); });
  world.engine().run();
  const double us = (end - start).to_micros();
  // Amoeba RPC on this hardware is ~2.8 ms (the group primitive is 0.1 ms
  // faster, Section 4). Kernel-level completion excludes the user wakeup.
  EXPECT_GT(us, 1500.0);
  EXPECT_LT(us, 3200.0);
}

TEST_F(RpcFixture, RetransmitsThroughLossAndSuppressesDuplicates) {
  world.segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.25});
  int handled = 0;
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    ++handled;
    server.rpc.reply(req, Buffer{42});
  });
  RpcConfig cfg;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    client.rpc.call(sa, Buffer{static_cast<std::uint8_t>(i)},
                    [&](Result<Buffer> r) {
                      if (r.ok()) ++completed;
                    });
  }
  world.engine().run_until(world.now() + Duration::seconds(10));
  EXPECT_EQ(completed, 20) << "retries must push calls through 25% loss";
  EXPECT_EQ(handled, 20) << "at-most-once: handler runs once per call";
  EXPECT_GT(client.rpc.stats().retransmissions +
                server.rpc.stats().duplicate_requests,
            0u);
}

TEST_F(RpcFixture, CallToDeadServerTimesOut) {
  RpcConfig fast;
  fast.retry = Duration::millis(20);
  fast.retries = 2;
  RpcNode impatient(world.node(2), flip::process_address(9), fast);
  world.node(1).crash();
  std::optional<Status> result;
  impatient.rpc.call(sa, Buffer{1}, [&](Result<Buffer> r) {
    result = r.status();
  });
  world.engine().run_until(world.now() + Duration::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Status::timeout);
  EXPECT_EQ(impatient.rpc.stats().calls_failed, 1u);
}

TEST_F(RpcFixture, ForwardRequestRepliesDirectlyToClient) {
  // server forwards to third; third's reply goes straight to the client
  // (Table 1: ForwardRequest).
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    server.rpc.forward(req, ta);
  });
  int third_handled = 0;
  third.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    ++third_handled;
    third.rpc.reply(req, Buffer{0xCC});
  });
  std::optional<Buffer> got;
  client.rpc.call(sa, Buffer{7}, [&](Result<Buffer> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  world.engine().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Buffer{0xCC});
  EXPECT_EQ(third_handled, 1);
  EXPECT_EQ(server.rpc.stats().forwards, 1u);
}

TEST_F(RpcFixture, LargePayloadFragmentsAndReturns) {
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    server.rpc.reply(req, req.data);
  });
  const Buffer big = make_pattern_buffer(20'000);
  std::optional<Buffer> got;
  client.rpc.call(sa, big, [&](Result<Buffer> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  world.engine().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 20'000u);
  EXPECT_TRUE(check_pattern_buffer(*got));
}

TEST_F(RpcFixture, OversizeCallRejectedImmediately) {
  std::optional<Status> result;
  client.rpc.call(sa, Buffer(1024 * 1024), [&](Result<Buffer> r) {
    result = r.status();
  });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Status::overflow);

  // The boundary: FLIP carries 64 KiB including the 32-byte RPC header.
  // The largest request completes (echoed back); one byte more is refused
  // before anything reaches the wire.
  constexpr std::size_t kMax = RpcEndpoint::kMaxMessage;
  static_assert(kMax == 64 * 1024 - 32);
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    server.rpc.reply(req, req.data);
  });
  std::optional<Result<Buffer>> largest;
  client.rpc.call(sa, make_pattern_buffer(kMax),
                  [&](Result<Buffer> r) { largest = std::move(r); });
  world.engine().run();
  ASSERT_TRUE(largest.has_value());
  ASSERT_TRUE(largest->ok()) << static_cast<int>(largest->status());
  EXPECT_EQ(largest->value().size(), kMax);

  std::optional<Status> over;
  client.rpc.call(sa, Buffer(kMax + 1),
                  [&](Result<Buffer> r) { over = r.status(); });
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(*over, Status::overflow);
  EXPECT_EQ(client.rpc.stats().calls_sent, 1u);
}

TEST_F(RpcFixture, OversizeReplyRefusedBeforeTheWire) {
  // The reply side of the same boundary: a 65,504-byte response reaches
  // the client; one byte more is refused at once and nothing is sent, so
  // the request stays open and the server can still answer it.
  constexpr std::size_t kMax = RpcEndpoint::kMaxMessage;
  std::optional<Status> largest_sent, refused;
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    if (req.data.at(0) == 0) {
      largest_sent = server.rpc.reply(req, make_pattern_buffer(kMax));
      return;
    }
    refused = server.rpc.reply(req, Buffer(kMax + 1));
    EXPECT_EQ(server.rpc.reply(req, Buffer{0x2A}), Status::ok);
  });

  std::optional<Result<Buffer>> largest;
  client.rpc.call(sa, Buffer{0},
                  [&](Result<Buffer> r) { largest = std::move(r); });
  world.engine().run();
  EXPECT_EQ(largest_sent, Status::ok);
  ASSERT_TRUE(largest.has_value());
  ASSERT_TRUE(largest->ok()) << static_cast<int>(largest->status());
  EXPECT_EQ(largest->value().size(), kMax);
  EXPECT_TRUE(check_pattern_buffer(largest->value()));

  std::optional<Result<Buffer>> answered;
  client.rpc.call(sa, Buffer{1},
                  [&](Result<Buffer> r) { answered = std::move(r); });
  world.engine().run();
  EXPECT_EQ(refused, Status::overflow);
  ASSERT_TRUE(answered.has_value());
  ASSERT_TRUE(answered->ok()) << static_cast<int>(answered->status());
  EXPECT_EQ(answered->value(), Buffer{0x2A});
  EXPECT_EQ(client.rpc.stats().calls_sent, 2u);
}

TEST_F(RpcFixture, ConcurrentCallsFromOneClient) {
  server.rpc.set_request_handler([&](const RpcEndpoint::Request& req) {
    server.rpc.reply(req, req.data);
  });
  int done = 0;
  for (std::uint8_t i = 0; i < 10; ++i) {
    client.rpc.call(sa, Buffer{i}, [&, i](Result<Buffer> r) {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), Buffer{i}) << "replies matched to the right call";
      ++done;
    });
  }
  world.engine().run();
  EXPECT_EQ(done, 10);
}

}  // namespace
}  // namespace amoeba::rpc
