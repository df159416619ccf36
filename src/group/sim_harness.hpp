// Simulation harness: Amoeba processes on the simulated testbed.
//
// Each SimProcess is one station: a FLIP stack and a fault device over the
// simulated NIC, and a group::Node hosting the process's member of every
// group ("shard") of the experiment. A classic single-group run is the
// one-shard case, and its traffic is the paper protocol. Its member does
// serve cross-shard traffic, as every Node-hosted member does; without a
// cross-shard sender that changes no trace event or delivery. The process
// also models the user level (the blocking SendToGroup / ReceiveFromGroup
// pair and its thread context switches) for every delivery of every shard,
// so experiments charge the same per-layer costs the paper's Table 3
// reports. Used by the test suite, every simulator bench, and the
// simulator examples.
//
// Tracing: each member writes its own ring, collected as "m<i>" (and
// "m<i>r<k>" after the k-th restart) in a single-group run, or "m<i>.s<s>"
// per shard with the Node's origin-side events as "n<i>" in a sharded run.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/collector.hpp"
#include "check/oracle.hpp"
#include "flip/stack.hpp"
#include "group/config.hpp"
#include "group/durable_log.hpp"
#include "group/node.hpp"
#include "sim/world.hpp"
#include "storage/mem_storage.hpp"
#include "transport/fault.hpp"
#include "transport/sim_runtime.hpp"

namespace amoeba::group {

/// One simulated process: station + stack + Node + user-level model.
class SimProcess {
 public:
  /// One user-level delivery: the message, the shard that delivered it and,
  /// for a cross-shard message, its xid (0 otherwise).
  struct Delivery : GroupMessage {
    std::uint32_t shard{0};
    std::uint64_t xid{0};
  };

  /// Hosts a member of each of `shards` groups behind one group::Node.
  /// Shard s's member listens on `addr` + s; the Node's own endpoint is
  /// `addr` with bit 40 set.
  SimProcess(sim::Node& node, flip::Address addr, GroupConfig cfg,
             std::uint64_t fault_seed = 1, std::uint32_t shards = 1);

  sim::Node& sim_node() { return sim_node_; }
  Node& node() { return *node_; }
  transport::SimExecutor& exec() { return exec_; }
  flip::FlipStack& flip() { return flip_; }
  GroupMember& member(std::uint32_t shard = 0) { return *node_->shard(shard); }
  /// The fault interposer between the FLIP stack and the simulated NIC.
  /// Inactive (single-branch passthrough) until given a plan or schedule.
  transport::FaultDevice& faults() { return faults_; }
  /// Shard `shard`'s structured event ring (drained through the harness
  /// collector). A restart swaps in a fresh ring — the old one's events
  /// live on in the collector.
  check::TraceRing& trace_ring(std::uint32_t shard = 0) {
    return *rings_.at(shard);
  }
  /// The Node's ring: cross-shard xsend admissions and completions.
  check::TraceRing& node_ring() { return *node_ring_; }

  /// Give this process a durable log over its own (crash-surviving)
  /// in-memory storage and attach it to the member. Must be paired with a
  /// GroupConfig whose `durability` is not `off` for the member to use it.
  /// Durability and restart are single-shard only.
  void enable_durability();
  DurableLog* durable_log() { return log_.get(); }

  /// Crash-with-disk: the node fail-stops and the storage loses whatever
  /// was never fsynced (plus an optional torn tail of the last-synced
  /// segment). The member object dies with the node; the storage survives.
  void crash_with_disk(const storage::MemStorage::CrashOptions& opts);

  /// Power the node back on, re-open the durable log over the surviving
  /// storage, and rebuild the member from it (GroupMember::recover_from_log
  /// — identity, view epoch and delivered-seq come from disk). On ok the
  /// member is State::failed under its old identity; the caller then either
  /// lets ResetGroup pick it up or calls member().rejoin_group(). Clears
  /// delivered()/views() — they belong to the previous life.
  Status restart_from_disk();

  /// User-level SendToGroup: charges the syscall cost (U1), then runs the
  /// protocol send; `done` fires when the send completes.
  void user_send(Buffer data, GroupMember::StatusCb done);

  /// All messages delivered to this process, of every shard, in order.
  const std::vector<Delivery>& delivered() const { return delivered_; }
  std::uint64_t delivered_count() const { return delivered_.size(); }
  /// Retain only per-message counters, not payloads (long throughput runs).
  void set_keep_payloads(bool keep) { keep_payloads_ = keep; }

  /// Views of shard `shard` observed (create/join/leave/expel/recovery).
  const std::vector<ViewChange>& views(std::uint32_t shard = 0) const {
    return shard_state_.at(shard).views;
  }
  /// Last failure notification of shard `shard`'s member, if any.
  std::optional<Status> fault(std::uint32_t shard = 0) const {
    return shard_state_.at(shard).fault;
  }

  /// Hook invoked (in executor context) after each user-level delivery.
  void set_on_deliver(std::function<void(const Delivery&)> fn) {
    on_deliver_ = std::move(fn);
  }

 private:
  struct ShardState {
    std::vector<ViewChange> views;
    std::optional<Status> fault;
  };

  void make_node();
  void user_deliver(std::uint32_t shard, const GroupMessage& m,
                    std::uint64_t xid);

  sim::Node& sim_node_;
  flip::Address addr_;
  GroupConfig cfg_;
  std::vector<std::unique_ptr<check::TraceRing>> rings_;  // by shard
  std::unique_ptr<check::TraceRing> node_ring_;
  transport::SimExecutor exec_;
  transport::SimDevice dev_;
  transport::FaultDevice faults_;
  flip::FlipStack flip_;
  std::unique_ptr<storage::MemStorage> storage_;
  std::unique_ptr<DurableLog> log_;
  std::unique_ptr<Node> node_;

  std::vector<Delivery> delivered_;
  std::vector<ShardState> shard_state_;
  std::function<void(const Delivery&)> on_deliver_;
  bool keep_payloads_{true};
};

/// A whole experiment: N processes on one Ethernet, each hosting a member
/// of every one of S groups ("shards"; one by default).
class SimGroupHarness {
 public:
  SimGroupHarness(std::size_t n_processes, GroupConfig cfg,
                  sim::CostModel model = sim::CostModel::mc68030_ether10(),
                  std::uint64_t seed = 1, std::uint32_t shards = 1);

  /// Process (s mod N) creates shard s, so sequencer roles spread over the
  /// stations; every other process joins. Runs the engine until every
  /// group is fully formed. Returns false if formation failed.
  bool form_group();

  sim::World& world() { return world_; }
  sim::Engine& engine() { return world_.engine(); }
  SimProcess& process(std::size_t i) { return *procs_.at(i); }
  std::size_t size() const { return procs_.size(); }
  flip::Address group_addr(std::uint32_t shard = 0) const {
    return flip::group_address(0x6702 + shard);
  }

  /// Add another process (e.g. a late joiner) on a fresh node.
  SimProcess& add_process();

  /// Current collector label of process i's member of `shard` ("m0" for
  /// its first life, "m0r1", "m0r2", ... after restarts; "m0.s1" for shard
  /// 1 of a sharded run).
  std::string label(std::size_t i, std::uint32_t shard = 0) const;
  /// Collector label of process i's Node ring (sharded runs only).
  std::string node_label(std::size_t i) const {
    return 'n' + std::to_string(i);
  }

  /// Crash process i with its disk (see SimProcess::crash_with_disk).
  void crash_process(std::size_t i,
                     const storage::MemStorage::CrashOptions& opts = {});

  /// Restart process i from its surviving disk. Handles the trace-ring
  /// bookkeeping: the crashed life's ring is final-drained and detached,
  /// the new life collects under the next restart label. Returns the
  /// (pre, post) label pair for OracleOptions::restart_pairs; `status`
  /// (when non-null) receives GroupMember::recover_from_log's result.
  check::OracleOptions::RestartPair restart_process(std::size_t i,
                                                    Status* status = nullptr);

  /// Run until `pred()` or until `deadline` of simulated time passes.
  /// Returns whether the predicate became true.
  bool run_until(const std::function<bool()>& pred, Duration deadline);

  /// The collected structured event history of the run so far (rings are
  /// drained on every run_until step).
  check::TraceCollector& traces() { return collector_; }

  /// Run the ConformanceOracle over everything traced so far. first_seq is
  /// filled from the harness config; other options are the caller's.
  check::Verdict check_conformance(check::OracleOptions opts = {});

  /// Tracing is on by default; heavy benches can switch it off to keep the
  /// rings from churning (already-collected events are discarded too).
  void set_tracing(bool on);

 private:
  SimProcess& add_station(sim::Node& node);
  /// Point process i's rings at its members and collect them (on), or
  /// unhook them (off).
  void trace(std::size_t i, bool on);

  GroupConfig cfg_;
  std::uint32_t shards_;
  sim::World world_;
  std::vector<std::unique_ptr<SimProcess>> procs_;
  std::vector<int> restart_counts_;
  check::TraceCollector collector_;
  bool tracing_{true};
  std::uint64_t next_addr_{1};
  std::uint64_t seed_{1};
};

}  // namespace amoeba::group
