// Crash-restart-with-disk for a replicated key-value store — the durable
// log + checkpointed state transfer subsystem (ROADMAP item 4), end to end.
//
// The paper's recovery story assumes a rejoiner can replay history from
// the survivors' in-memory rings; production groups run for months, so
// history must truncate and a member must be able to crash and come back
// *with its disk* instead of rejoining as an amnesiac. The demo shows the
// whole pipeline:
//
//   1. Three replicas run a KV store over the ordered stream, each with a
//      durable segment log (group-commit on the Accept boundary) and a
//      checkpointer that persists the application snapshot every N applied
//      operations. Checkpoint horizons piggyback on the status exchange,
//      so every member's log compacts once the whole group has caught up.
//   2. One replica is killed with its disk intact. The survivors keep
//      serving writes; the failure detector expels the silent member so
//      history can keep trimming.
//   3. The dead replica restarts FROM ITS OWN DISK: the group layer
//      recovers identity/view/position from the log, the application
//      rebuilds from checkpoint + local log suffix without any network
//      traffic, and the rejoin then fetches only the tail it missed while
//      dead — a suffix of log records, NOT a full snapshot and NOT a
//      full-history replay.
//   4. The restarted replica serves reads again, agreeing byte-for-byte
//      with the survivors.
//
//   $ ./checkpoint_restart
#include <cstdio>
#include <map>
#include <string>

#include "group/durable_log.hpp"
#include "group/sim_harness.hpp"
#include "group/state_transfer.hpp"
#include "rpc/rpc.hpp"

using namespace amoeba;
using namespace amoeba::group;

namespace {

/// The application: a replicated map<string,string>. State is a pure
/// function of the applied prefix of the ordered stream.
struct KvStore {
  std::map<std::string, std::string> kv;

  Buffer snapshot() const {
    BufWriter w;
    w.u32(static_cast<std::uint32_t>(kv.size()));
    for (const auto& [k, v] : kv) {
      w.str(k);
      w.str(v);
    }
    return std::move(w).take();
  }
  void install(const Buffer& b) {
    kv.clear();
    BufReader r(b);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; r.ok() && i < n; ++i) {
      std::string k = r.str();
      std::string v = r.str();
      if (r.ok()) kv[std::move(k)] = std::move(v);
    }
  }
  void apply(const GroupMessage& m) {
    if (m.kind != MessageKind::app) return;
    BufReader r(m.data);
    std::string k = r.str();
    std::string v = r.str();
    if (r.ok()) kv[std::move(k)] = std::move(v);
  }
};

Buffer put_op(const std::string& k, const std::string& v) {
  BufWriter w;
  w.str(k);
  w.str(v);
  return std::move(w).take();
}

/// One replica: group member + companion RPC + state transfer + KV.
struct Replica {
  SimProcess* proc;
  std::unique_ptr<rpc::RpcEndpoint> rpc;
  std::unique_ptr<StateTransfer> st;
  KvStore store;

  explicit Replica(SimProcess& p) : proc(&p) {
    rpc = std::make_unique<rpc::RpcEndpoint>(
        p.flip(), p.exec(), rpc_companion(p.member().address()));
    st = std::make_unique<StateTransfer>(
        *rpc, StateTransfer::Callbacks{
                  .snapshot = [this] { return store.snapshot(); },
                  .install = [this](const Buffer& b) { store.install(b); },
              });
    st->set_apply([this](const GroupMessage& m) { store.apply(m); });
    p.set_on_deliver([this](const GroupMessage& m) { st->on_delivery(m); });
    st->attach_log(p.durable_log());
    st->serve(p.member());
  }
};

}  // namespace

int main() {
  constexpr std::size_t kReplicas = 3;

  GroupConfig cfg;
  cfg.durability = Durability::group_commit;  // fsync on the Accept boundary
  cfg.status_interval = Duration::millis(100);
  // Small history + fast status polls: history pressure is what makes the
  // failure detector probe (and expel) the silent crashed member, and what
  // makes compaction visible in a short demo.
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 3;

  SimGroupHarness net(kReplicas, cfg);
  for (std::size_t p = 0; p < kReplicas; ++p) {
    net.process(p).enable_durability();
  }
  if (!net.form_group()) return 1;

  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::size_t p = 0; p < kReplicas; ++p) {
    replicas.push_back(std::make_unique<Replica>(net.process(p)));
    // Persist an application checkpoint every 10 applied ops and report
    // the horizon so every member's log can compact behind it.
    if (replicas.back()->st->enable_checkpoints(10) != Status::ok) return 1;
  }

  // ---- Phase 1: serve writes, checkpoint, compact ------------------------
  int acked = 0;
  for (int k = 0; k < 40; ++k) {
    net.process(static_cast<std::size_t>(k) % kReplicas)
        .user_send(put_op("key" + std::to_string(k), 'v' + std::to_string(k)),
                   [&](Status s) {
                     if (s == Status::ok) ++acked;
                   });
  }
  if (!net.run_until([&] { return acked == 40; }, Duration::seconds(30))) {
    return 1;
  }
  net.run_until([] { return false; }, Duration::millis(500));

  const GroupStats& s0 = net.process(0).member().stats();
  std::printf("phase 1: %d puts applied everywhere\n", acked);
  std::printf("  log_appends=%llu  log_fsyncs=%llu  checkpoints_taken=%llu  "
              "compaction_horizon=%llu\n",
              (unsigned long long)s0.log_appends.load(),
              (unsigned long long)s0.log_fsyncs.load(),
              (unsigned long long)s0.checkpoints_taken.load(),
              (unsigned long long)s0.compaction_horizon.load());

  // ---- Phase 2: kill replica 2 with its disk -----------------------------
  std::printf("\n*** replica 2 crashes (disk survives) ***\n");
  replicas[2].reset();  // application memory is gone...
  net.crash_process(2); // ...but the durable log is not.

  int more = 0;
  for (int k = 40; k < 60; ++k) {
    net.process(static_cast<std::size_t>(k) % 2)
        .user_send(put_op("key" + std::to_string(k), 'v' + std::to_string(k)),
                   [&](Status s) {
                     if (s == Status::ok) ++more;
                   });
  }
  if (!net.run_until(
          [&] {
            return more == 20 && net.process(0).member().info().size() == 2;
          },
          Duration::seconds(60))) {
    return 1;
  }
  std::printf("survivors served %d more puts; dead member expelled "
              "(view size %zu)\n",
              more, net.process(0).member().info().size());

  // ---- Phase 3: restart from disk, fetch only the tail -------------------
  Status recovered = Status::failure;
  net.restart_process(2, &recovered);
  if (recovered != Status::ok) {
    std::printf("log recovery failed: %d\n", static_cast<int>(recovered));
    return 1;
  }
  replicas[2] = std::make_unique<Replica>(net.process(2));
  Replica& back = *replicas[2];

  // Local rebuild first: checkpoint + own log suffix, zero network.
  const Result<SeqNum> restored = back.st->restore_from_log();
  if (!restored.ok()) return 1;
  std::printf("\nreplica 2 restarted: recovered identity + %zu keys from "
              "its own disk (checkpoints restored=%llu, position %u)\n",
              back.store.kv.size(),
              (unsigned long long)back.st->checkpoints_restored(),
              restored.value());

  bool rejoined = false;
  bool caught_up = false;
  net.process(2).member().rejoin_group([&](Status st_join) {
    rejoined = st_join == Status::ok;
    if (!rejoined) return;
    back.st->fetch_from(net.process(2).member(), restored.value(),
                        [&](Result<SeqNum> r) { caught_up = r.ok(); });
  });
  if (!net.run_until([&] { return rejoined && caught_up; },
                     Duration::seconds(60))) {
    return 1;
  }
  net.run_until([] { return false; }, Duration::millis(500));

  std::printf("rejoin cost: %llu suffix log records fetched, %llu full "
              "snapshots installed\n",
              (unsigned long long)back.st->suffix_records_fetched(),
              (unsigned long long)back.st->snapshots_installed());
  if (back.st->snapshots_installed() != 0 ||
      back.st->suffix_records_fetched() == 0) {
    std::printf("expected a suffix-only catch-up!\n");
    return 1;
  }

  // ---- Phase 4: the restarted replica serves reads -----------------------
  bool agree = back.store.kv.size() == 60;
  for (const auto& [k, v] : replicas[0]->store.kv) {
    auto it = back.store.kv.find(k);
    agree = agree && it != back.store.kv.end() && it->second == v;
  }
  std::printf("\nreads from the restarted replica: key0=%s key59=%s "
              "(%zu keys, %s with survivors)\n",
              back.store.kv["key0"].c_str(), back.store.kv["key59"].c_str(),
              back.store.kv.size(), agree ? "AGREES" : "DIVERGED");
  return agree ? 0 : 1;
}
