// Integration: a new worker joins a running shared-object computation and
// acquires all object states atomically (orca runtime + state transfer +
// group membership working together — the full Section 5 application
// stack).
#include <gtest/gtest.h>

#include "group/sim_harness.hpp"
#include "group/state_transfer.hpp"
#include "orca/objects.hpp"
#include "orca/shared_object.hpp"
#include "rpc/rpc.hpp"

namespace amoeba::orca {
namespace {

using group::GroupConfig;
using group::GroupMessage;
using group::SimGroupHarness;
using group::SimProcess;
using group::StateTransfer;

/// A full application node: group member + orca runtime + state-transfer
/// service over a companion RPC endpoint.
struct AppNode {
  SharedInteger total{0};
  SharedDictionary directory;
  std::unique_ptr<SharedObjectRuntime> orca;
  std::unique_ptr<rpc::RpcEndpoint> rpc;
  std::unique_ptr<StateTransfer> st;

  explicit AppNode(SimProcess& p) {
    orca = std::make_unique<SharedObjectRuntime>(p.member());
    orca->attach("total", total);
    orca->attach("directory", directory);
    rpc = std::make_unique<rpc::RpcEndpoint>(
        p.flip(), p.exec(), group::rpc_companion(p.member().address()));
    st = std::make_unique<StateTransfer>(
        *rpc,
        StateTransfer::Callbacks{
            .snapshot =
                [this] {
                  // Snapshot = a checkpoint of all attached objects.
                  BufWriter w;
                  w.bytes(total.snapshot());
                  w.bytes(directory.snapshot());
                  return std::move(w).take();
                },
            .install =
                [this](const Buffer& b) {
                  BufReader r(b);
                  total.install(r.bytes());
                  directory.install(r.bytes());
                },
        });
    st->set_apply(
        [this](const GroupMessage& m) { orca->on_delivery(m); });
    p.set_on_deliver([this](const GroupMessage& m) { st->on_delivery(m); });
    st->serve(p.member());
  }
};

TEST(OrcaJoin, NewWorkerAcquiresAllObjectsMidStream) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  std::vector<std::unique_ptr<AppNode>> nodes;
  for (std::size_t p = 0; p < 3; ++p) {
    nodes.push_back(std::make_unique<AppNode>(h.process(p)));
  }

  // History: counters and directory entries, continuously updated.
  int completed = 0;
  std::function<void(int)> pump = [&](int k) {
    if (k >= 30) return;
    nodes[0]->orca->write("total", SharedInteger::op_add(k),
                          [&, k](Status s) {
                            if (s == Status::ok) ++completed;
                            pump(k + 1);
                          });
    if (k % 5 == 0) {
      nodes[1]->orca->write(
          "directory",
          SharedDictionary::op_set("svc" + std::to_string(k), Buffer{1}),
          [&](Status s) {
            if (s == Status::ok) ++completed;
          });
    }
  };
  pump(0);

  // Mid-stream join + atomic multi-object state transfer.
  SimProcess& newcomer = h.add_process();
  std::unique_ptr<AppNode> fresh;
  std::optional<Result<SeqNum>> fetched;
  h.engine().schedule(Duration::millis(20), [&] {
    fresh = std::make_unique<AppNode>(newcomer);
    newcomer.member().join_group(h.group_addr(), [&](Status s) {
      ASSERT_EQ(s, Status::ok);
      fresh->st->fetch(newcomer.member(),
                       [&](Result<SeqNum> r) { fetched = std::move(r); });
    });
  });

  ASSERT_TRUE(h.run_until(
      [&] { return completed == 36 && fetched.has_value(); },
      Duration::seconds(60)));
  ASSERT_TRUE(fetched->ok()) << to_string(fetched->status());
  h.run_until([] { return false; }, Duration::millis(300));

  // Exact multi-object agreement: both objects, byte-identical.
  EXPECT_EQ(fresh->total.value(), nodes[0]->total.value());
  EXPECT_EQ(fresh->total.value(), (29 * 30) / 2);
  EXPECT_EQ(fresh->directory.entries(), nodes[0]->directory.entries());
  EXPECT_EQ(fresh->directory.size(), 6u);

  // The joiner participates from here on.
  int more = 0;
  fresh->orca->write("total", SharedInteger::op_add(1000), [&](Status s) {
    if (s == Status::ok) ++more;
  });
  ASSERT_TRUE(h.run_until([&] { return more == 1; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(100));
  for (auto& n : nodes) {
    EXPECT_EQ(n->total.value(), fresh->total.value());
  }
}

}  // namespace
}  // namespace amoeba::orca
