// Atomic state transfer tests: a late joiner acquires a replica's state
// exactly at the cut, applies no update twice and misses none — with
// updates in full flight during the join.
#include <gtest/gtest.h>

#include "group/sim_harness.hpp"
#include "group/state_transfer.hpp"
#include "rpc/rpc.hpp"

namespace amoeba::group {
namespace {

/// A replicated counter: state = (sum, count of applied ops). Any
/// divergence or double-apply shows up immediately.
struct Counter {
  std::int64_t sum{0};
  std::int64_t applied{0};

  Buffer snapshot() const {
    BufWriter w;
    w.i64(sum);
    w.i64(applied);
    return std::move(w).take();
  }
  void install(const Buffer& b) {
    BufReader r(b);
    sum = r.i64();
    applied = r.i64();
  }
  void apply(const GroupMessage& m) {
    if (m.kind != MessageKind::app) return;
    BufReader r(m.data);
    sum += r.i64();
    ++applied;
  }
};

/// One process with group + companion RPC + state transfer wired up.
struct Replica {
  SimProcess* proc;
  std::unique_ptr<rpc::RpcEndpoint> rpc;
  std::unique_ptr<StateTransfer> st;
  Counter counter;

  explicit Replica(SimProcess& p) : proc(&p) {
    rpc = std::make_unique<rpc::RpcEndpoint>(
        p.flip(), p.exec(), rpc_companion(p.member().address()));
    st = std::make_unique<StateTransfer>(
        *rpc, StateTransfer::Callbacks{
                  .snapshot = [this] { return counter.snapshot(); },
                  .install = [this](const Buffer& b) { counter.install(b); },
              });
    st->set_apply([this](const GroupMessage& m) { counter.apply(m); });
    p.set_on_deliver([this](const GroupMessage& m) { st->on_delivery(m); });
    st->serve(p.member());
  }
};

Buffer add_op(std::int64_t delta) {
  BufWriter w;
  w.i64(delta);
  return std::move(w).take();
}

struct Cluster {
  SimGroupHarness h;
  std::vector<std::unique_ptr<Replica>> replicas;

  explicit Cluster(std::size_t n, GroupConfig cfg = {}) : h(n, cfg) {}

  bool start(bool durable = false) {
    if (durable) {
      for (std::size_t p = 0; p < h.size(); ++p) {
        h.process(p).enable_durability();
      }
    }
    if (!h.form_group()) return false;
    for (std::size_t p = 0; p < h.size(); ++p) {
      replicas.push_back(std::make_unique<Replica>(h.process(p)));
      if (durable) {
        replicas.back()->st->attach_log(h.process(p).durable_log());
      }
    }
    return true;
  }
};

TEST(StateTransfer, LateJoinerAcquiresExactState) {
  Cluster c(3);
  ASSERT_TRUE(c.start());

  // History the joiner never saw: sum 1..10 = 55.
  int sent = 0;
  for (int k = 1; k <= 10; ++k) {
    c.h.process(0).user_send(add_op(k), [&](Status s) {
      if (s == Status::ok) ++sent;
    });
  }
  ASSERT_TRUE(c.h.run_until([&] { return sent == 10; }, Duration::seconds(10)));
  c.h.run_until([] { return false; }, Duration::millis(100));
  ASSERT_EQ(c.replicas[0]->counter.sum, 55);

  // Join + fetch.
  SimProcess& newcomer = c.h.add_process();
  c.replicas.push_back(std::make_unique<Replica>(newcomer));
  Replica& fresh = *c.replicas.back();
  std::optional<Result<SeqNum>> fetched;
  newcomer.member().join_group(c.h.group_addr(), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    fresh.st->fetch(newcomer.member(),
                    [&](Result<SeqNum> r) { fetched = std::move(r); });
  });
  ASSERT_TRUE(c.h.run_until([&] { return fetched.has_value(); },
                            Duration::seconds(30)));
  ASSERT_TRUE(fetched->ok()) << to_string(fetched->status());
  EXPECT_EQ(fresh.counter.sum, 55);
  EXPECT_EQ(fresh.counter.applied, 10);

  // Subsequent updates reach everyone, including the joiner, once.
  int more = 0;
  c.h.process(1).user_send(add_op(100), [&](Status s) {
    if (s == Status::ok) ++more;
  });
  ASSERT_TRUE(c.h.run_until([&] { return more == 1; }, Duration::seconds(10)));
  c.h.run_until([] { return false; }, Duration::millis(100));
  for (auto& r : c.replicas) {
    EXPECT_EQ(r->counter.sum, 155);
    EXPECT_EQ(r->counter.applied, 11);
  }
}

TEST(StateTransfer, JoinerWithTrafficInFlight) {
  Cluster c(3);
  ASSERT_TRUE(c.start());

  // Continuous updates throughout the join.
  int sent = 0;
  std::function<void(int)> pump = [&](int k) {
    if (k >= 40) return;
    c.h.process(1).user_send(add_op(1), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(k + 1);
    });
  };
  pump(0);

  SimProcess& newcomer = c.h.add_process();
  c.replicas.push_back(std::make_unique<Replica>(newcomer));
  Replica& fresh = *c.replicas.back();

  std::optional<Result<SeqNum>> fetched;
  newcomer.member().join_group(c.h.group_addr(), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    fresh.st->fetch(newcomer.member(),
                    [&](Result<SeqNum> r) { fetched = std::move(r); });
  });

  ASSERT_TRUE(c.h.run_until(
      [&] { return fetched.has_value() && sent == 40; },
      Duration::seconds(60)));
  ASSERT_TRUE(fetched->ok()) << to_string(fetched->status());
  c.h.run_until([] { return false; }, Duration::millis(300));

  // Exact state despite the race: snapshot + gated replay = the full sum,
  // nothing twice (sum would exceed 40), nothing missed (sum below 40).
  EXPECT_EQ(fresh.counter.sum, 40);
  EXPECT_EQ(c.replicas[0]->counter.sum, 40);
}

TEST(StateTransfer, SoleMemberFetchIsNoop) {
  Cluster c(1);
  ASSERT_TRUE(c.start());
  std::optional<Result<SeqNum>> fetched;
  c.replicas[0]->st->fetch(c.h.process(0).member(), [&](Result<SeqNum> r) {
    fetched = std::move(r);
  });
  c.h.run_until([&] { return fetched.has_value(); }, Duration::seconds(5));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_TRUE(fetched->ok());
  EXPECT_FALSE(c.replicas[0]->st->as_of().has_value());
}

TEST(StateTransfer, FetchFailsOverToNextProvider) {
  Cluster c(3);
  ASSERT_TRUE(c.start());
  int sent = 0;
  c.h.process(0).user_send(add_op(7), [&](Status s) {
    if (s == Status::ok) ++sent;
  });
  ASSERT_TRUE(c.h.run_until([&] { return sent == 1; }, Duration::seconds(10)));
  c.h.run_until([] { return false; }, Duration::millis(100));

  SimProcess& newcomer = c.h.add_process();
  c.replicas.push_back(std::make_unique<Replica>(newcomer));
  Replica& fresh = *c.replicas.back();
  bool joined = false;
  newcomer.member().join_group(c.h.group_addr(),
                               [&](Status s) { joined = s == Status::ok; });
  ASSERT_TRUE(c.h.run_until([&] { return joined; }, Duration::seconds(30)));

  // The lowest-id provider (member 0 = sequencer) crashes before the
  // fetch; the fetch must fail over to another member. Crashing the
  // sequencer kills ordering too, but the fetch is pure RPC — it still
  // completes against a survivor.
  c.h.world().node(1).crash();  // member 1: the first-tried non-self peer?
  std::optional<Result<SeqNum>> fetched;
  fresh.st->fetch(newcomer.member(),
                  [&](Result<SeqNum> r) { fetched = std::move(r); });
  ASSERT_TRUE(c.h.run_until([&] { return fetched.has_value(); },
                            Duration::seconds(60)));
  EXPECT_TRUE(fetched->ok());
  EXPECT_EQ(fresh.counter.sum, 7);
}

TEST(StateTransfer, JoinerWithTrafficInFlightAcrossBatchModes) {
  // The fetch must land exactly regardless of sequencer packing: 1 (every
  // message its own frame) and 16 (the default packed path) change the
  // timing of the deliveries racing the snapshot cut.
  for (const std::size_t bc : {std::size_t{1}, std::size_t{16}}) {
    GroupConfig cfg;
    cfg.batch_count = bc;
    Cluster c(3, cfg);
    ASSERT_TRUE(c.start()) << "batch_count=" << bc;

    int sent = 0;
    std::function<void(int)> pump = [&](int k) {
      if (k >= 30) return;
      c.h.process(1).user_send(add_op(1), [&, k](Status s) {
        if (s == Status::ok) ++sent;
        pump(k + 1);
      });
    };
    pump(0);

    SimProcess& newcomer = c.h.add_process();
    c.replicas.push_back(std::make_unique<Replica>(newcomer));
    Replica& fresh = *c.replicas.back();
    std::optional<Result<SeqNum>> fetched;
    newcomer.member().join_group(c.h.group_addr(), [&](Status s) {
      ASSERT_EQ(s, Status::ok);
      fresh.st->fetch(newcomer.member(),
                      [&](Result<SeqNum> r) { fetched = std::move(r); });
    });
    ASSERT_TRUE(c.h.run_until(
        [&] { return fetched.has_value() && sent == 30; },
        Duration::seconds(60)))
        << "batch_count=" << bc;
    ASSERT_TRUE(fetched->ok()) << to_string(fetched->status());
    c.h.run_until([] { return false; }, Duration::millis(300));
    EXPECT_EQ(fresh.counter.sum, 30) << "batch_count=" << bc;
    EXPECT_EQ(fresh.counter.applied, 30) << "batch_count=" << bc;
  }
}

TEST(StateTransfer, RestartedMemberFetchesSuffixNotSnapshot) {
  // The point of the durable log: a crash-restarted member already holds
  // its pre-crash prefix on disk, so rejoining costs checkpoint + log
  // suffix, not a full snapshot or a full-history replay.
  GroupConfig cfg;
  cfg.durability = Durability::group_commit;
  cfg.status_interval = Duration::millis(100);
  // Small history + fast polls: the failure detector only probes (and
  // expels) laggards under history pressure, which the post-crash traffic
  // below supplies.
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 3;
  Cluster c(3, cfg);
  ASSERT_TRUE(c.start(/*durable=*/true));

  int sent = 0;
  for (int k = 1; k <= 12; ++k) {
    c.h.process(0).user_send(add_op(k), [&](Status s) {
      if (s == Status::ok) ++sent;
    });
  }
  ASSERT_TRUE(c.h.run_until([&] { return sent == 12; }, Duration::seconds(30)));
  c.h.run_until([] { return false; }, Duration::millis(300));
  ASSERT_EQ(c.replicas[2]->counter.sum, 78);

  // Process 2 dies with its disk; its application memory is gone.
  c.replicas[2].reset();
  c.h.crash_process(2);
  int more = 0;
  for (int k = 0; k < 30; ++k) {
    c.h.process(0).user_send(add_op(1), [&](Status s) {
      if (s == Status::ok) ++more;
    });
  }
  ASSERT_TRUE(c.h.run_until(
      [&] {
        return more == 30 && c.h.process(0).member().info().size() == 2;
      },
      Duration::seconds(60)));

  Status recovered = Status::failure;
  c.h.restart_process(2, &recovered);
  ASSERT_EQ(recovered, Status::ok);

  // The app rebuilds locally from disk, then fetches only the tail.
  c.replicas[2] = std::make_unique<Replica>(c.h.process(2));
  Replica& back = *c.replicas[2];
  back.st->attach_log(c.h.process(2).durable_log());
  const auto restored = back.st->restore_from_log();
  ASSERT_TRUE(restored.ok()) << to_string(restored.status());
  EXPECT_EQ(back.counter.sum, 78) << "local replay must reach the pre-crash sum";

  bool rejoined = false;
  std::optional<Result<SeqNum>> fetched;
  back.st->serve(c.h.process(2).member());
  c.h.process(2).member().rejoin_group([&](Status s) {
    rejoined = s == Status::ok;
    ASSERT_EQ(s, Status::ok);
    back.st->fetch_from(c.h.process(2).member(), restored.value(),
                        [&](Result<SeqNum> r) { fetched = std::move(r); });
  });
  ASSERT_TRUE(c.h.run_until(
      [&] { return rejoined && fetched.has_value(); }, Duration::seconds(60)));
  ASSERT_TRUE(fetched->ok()) << to_string(fetched->status());
  c.h.run_until([] { return false; }, Duration::millis(300));

  EXPECT_EQ(back.counter.sum, 108) << "78 pre-crash + 30 x 1 missed";
  EXPECT_GT(back.st->suffix_records_fetched(), 0u)
      << "the tail must arrive as log records";
  EXPECT_EQ(back.st->snapshots_installed(), 0u)
      << "a full snapshot means the restart replayed history it already had";

  // New traffic reaches the restarted replica exactly once.
  int after = 0;
  c.h.process(1).user_send(add_op(1000), [&](Status s) {
    if (s == Status::ok) ++after;
  });
  ASSERT_TRUE(c.h.run_until([&] { return after == 1; }, Duration::seconds(30)));
  c.h.run_until([] { return false; }, Duration::millis(300));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.replicas[i]->counter.sum, 1108) << "replica " << i;
  }
}

TEST(StateTransfer, JoinerMidCompactionFallsBackToSnapshot) {
  // A provider that compacted past the joiner's position cannot serve the
  // suffix any more — the fetch falls back to a (checkpointed) snapshot.
  GroupConfig cfg;
  cfg.durability = Durability::group_commit;
  cfg.log_segment_bytes = 4096;  // clamp floor: rotate quickly
  cfg.status_interval = Duration::millis(50);
  Cluster c(3, cfg);
  ASSERT_TRUE(c.start(/*durable=*/true));
  for (auto& r : c.replicas) {
    ASSERT_EQ(r->st->enable_checkpoints(4), Status::ok);
  }

  // Padded ops (apply reads only the leading i64): ~300-byte log records
  // fill segments fast enough that compaction actually drops some.
  const auto padded_op = [](std::int64_t delta) {
    BufWriter w;
    w.i64(delta);
    for (int i = 0; i < 36; ++i) w.i64(0);
    return std::move(w).take();
  };
  int sent = 0;
  std::function<void(int)> pump = [&, padded_op](int k) {
    if (k >= 60) return;
    c.h.process(0).user_send(padded_op(1), [&, k](Status s) {
      if (s == Status::ok) ++sent;
      pump(k + 1);
    });
  };
  pump(0);
  ASSERT_TRUE(c.h.run_until([&] { return sent == 60; }, Duration::seconds(60)));
  // Let checkpoint horizons piggyback, the compaction notice land, and
  // every provider's log floor actually move past the joiner's position.
  ASSERT_TRUE(c.h.run_until(
      [&] {
        for (std::size_t p = 0; p < 3; ++p) {
          DurableLog* log = c.h.process(p).durable_log();
          if (log->empty() || log->lo() == 0) return false;
        }
        return true;
      },
      Duration::seconds(30)))
      << "compaction never advanced past seq 0 on every provider";

  // A joiner claiming position 0: every provider compacted past it.
  SimProcess& newcomer = c.h.add_process();
  c.replicas.push_back(std::make_unique<Replica>(newcomer));
  Replica& fresh = *c.replicas.back();
  std::optional<Result<SeqNum>> fetched;
  newcomer.member().join_group(c.h.group_addr(), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    fresh.st->fetch_from(newcomer.member(), 0,
                         [&](Result<SeqNum> r) { fetched = std::move(r); });
  });
  ASSERT_TRUE(c.h.run_until([&] { return fetched.has_value(); },
                            Duration::seconds(60)));
  ASSERT_TRUE(fetched->ok()) << to_string(fetched->status());
  c.h.run_until([] { return false; }, Duration::millis(300));
  EXPECT_EQ(fresh.counter.sum, 60);
  EXPECT_GE(fresh.st->snapshots_installed(), 1u)
      << "a compacted provider must have answered with a snapshot";
}

TEST(StateTransfer, MalformedSuffixReplyIsTypedBadMessage) {
  // A provider that answers the fetch protocol with garbage must surface
  // as Status::bad_message, not a crash or a silent wrong state.
  SimGroupHarness h(1, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  // Member 0 runs a hostile endpoint instead of a real StateTransfer: it
  // echoes a mode-2 (suffix) reply whose record stream is truncated junk.
  rpc::RpcEndpoint evil(h.process(0).flip(), h.process(0).exec(),
                        rpc_companion(h.process(0).member().address()));
  evil.set_request_handler([&](const rpc::RpcEndpoint::Request& req) {
    BufWriter w;
    w.u32(0x53545831);  // the fetch magic
    w.u8(2);            // mode: suffix
    w.u32(0);           // from
    w.u32(5);           // claims five records, carries none
    evil.reply(req, std::move(w).take());
  });

  SimProcess& newcomer = h.add_process();
  Replica fresh(newcomer);
  std::optional<Result<SeqNum>> fetched;
  newcomer.member().join_group(h.group_addr(), [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    fresh.st->fetch(newcomer.member(),
                    [&](Result<SeqNum> r) { fetched = std::move(r); });
  });
  ASSERT_TRUE(h.run_until([&] { return fetched.has_value(); },
                          Duration::seconds(30)));
  ASSERT_FALSE(fetched->ok());
  EXPECT_EQ(fetched->status(), Status::bad_message);
}

TEST(StateTransfer, CheckpointKnobValidation) {
  SimGroupHarness h(1, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  Replica r(h.process(0));
  // No log attached: checkpoints are impossible, typed bad_config.
  EXPECT_EQ(r.st->enable_checkpoints(8), Status::bad_config);
  h.process(0).enable_durability();
  r.st->attach_log(h.process(0).durable_log());
  EXPECT_EQ(r.st->enable_checkpoints(0), Status::bad_config);
  EXPECT_EQ(r.st->enable_checkpoints(8), Status::ok);
}

TEST(StateTransfer, AppRpcTrafficStillFlows) {
  Cluster c(2);
  ASSERT_TRUE(c.start());
  int app_requests = 0;
  c.replicas[0]->st->set_app_handler(
      [&](const rpc::RpcEndpoint::Request& req) {
        ++app_requests;
        c.replicas[0]->rpc->reply(req, Buffer{0x7F});
      });
  std::optional<Buffer> reply;
  const auto target = rpc_companion(c.h.process(0).member().address());
  c.replicas[1]->rpc->call(target, Buffer{1, 2, 3, 4, 5},
                           [&](Result<Buffer> r) {
                             ASSERT_TRUE(r.ok());
                             reply = std::move(r).value();
                           });
  c.h.run_until([&] { return reply.has_value(); }, Duration::seconds(5));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, Buffer{0x7F});
  EXPECT_EQ(app_requests, 1);
}

}  // namespace
}  // namespace amoeba::group
