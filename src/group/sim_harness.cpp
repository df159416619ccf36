#include "group/sim_harness.hpp"

#include <cassert>

namespace amoeba::group {

SimProcess::SimProcess(sim::Node& node, flip::Address addr, GroupConfig cfg,
                       std::uint64_t fault_seed, std::uint32_t shards)
    : sim_node_(node), addr_(addr), cfg_(cfg),
      node_ring_(std::make_unique<check::TraceRing>()), exec_(node),
      dev_(node), faults_(dev_, exec_, fault_seed), flip_(exec_, faults_),
      shard_state_(shards) {
  for (std::uint32_t s = 0; s < shards; ++s) {
    rings_.push_back(std::make_unique<check::TraceRing>());
  }
  make_node();
}

void SimProcess::make_node() {
  node_ = std::make_unique<Node>(flip_, exec_,
                                 flip::Address{addr_.id | (1ULL << 40)},
                                 static_cast<std::uint32_t>(addr_.id));
  node_->set_trace_ring(node_ring_.get());
  node_->set_deliver(
      [this](std::uint32_t shard, const GroupMessage& m, std::uint64_t xid) {
        user_deliver(shard, m, xid);
      });
  for (std::uint32_t s = 0; s < rings_.size(); ++s) {
    GroupMember& m = node_->add_shard(
        s, flip::Address{addr_.id + s}, cfg_,
        GroupMember::Callbacks{
            .on_message = nullptr,
            .on_view =
                [this, s](const ViewChange& v) {
                  shard_state_[s].views.push_back(v);
                },
            .on_fault = [this, s](Status st) { shard_state_[s].fault = st; },
        });
    m.set_trace_ring(rings_[s].get());
  }
}

void SimProcess::user_deliver(std::uint32_t shard, const GroupMessage& m,
                              std::uint64_t xid) {
  // User level: the receiving thread wakes (context switch if it was
  // blocked in ReceiveFromGroup), the kernel copies the message out (second
  // copy of the paper's two receiver-side copies), and the syscall returns.
  // Modeled as a separate CPU task so delivery timestamps land after U3,
  // matching the endpoint of the paper's Figure 2 breakdown.
  const auto& c = exec_.costs();
  Duration cost = c.user_deliver + c.copy_time(m.data.size());
  // Waking the blocked receiving thread costs a full context switch only
  // when the CPU is otherwise idle; on a saturated node the thread is
  // runnable and resumes with the queued work (this is why the paper's
  // sequencer reaches 815 msg/s rather than the naive interrupt-path bound).
  if (sim_node_.cpu_free() <= exec_.now()) cost += c.ctx_switch;
  Delivery d{m, shard, xid};
  if (!keep_payloads_) d.data.clear();
  exec_.post(cost, [this, d = std::move(d)]() mutable {
    if (on_deliver_) on_deliver_(d);
    delivered_.push_back(std::move(d));
  });
}

void SimProcess::enable_durability() {
  assert(rings_.size() == 1);
  if (!storage_) storage_ = std::make_unique<storage::MemStorage>();
  log_ = std::make_unique<DurableLog>(
      *storage_, DurableLogOptions{.segment_bytes = cfg_.log_segment_bytes});
  (void)log_->open();
  member().set_durable_log(log_.get());
}

void SimProcess::crash_with_disk(
    const storage::MemStorage::CrashOptions& opts) {
  sim_node_.crash();
  // Close the log first (its open handles pin removed files, like POSIX
  // fds), then lose what was never synced.
  member().set_durable_log(nullptr);
  log_.reset();
  if (storage_) storage_->crash_unsynced(opts);
}

Status SimProcess::restart_from_disk() {
  assert(rings_.size() == 1);
  node_.reset();  // the old life dies with the node
  sim_node_.restart();
  rings_[0] = std::make_unique<check::TraceRing>();
  delivered_.clear();
  shard_state_[0] = {};
  make_node();
  if (!storage_) return Status::invalid_argument;
  log_ = std::make_unique<DurableLog>(
      *storage_, DurableLogOptions{.segment_bytes = cfg_.log_segment_bytes});
  if (const Status s = log_->open(); s != Status::ok) return s;
  const Status s = member().recover_from_log(log_.get());
  if (s != Status::ok) {
    // Disk held no usable view (e.g. crashed before the first sync):
    // the member starts over as a fresh joiner, but keeps logging.
    member().set_durable_log(log_.get());
  }
  return s;
}

void SimProcess::user_send(Buffer data, GroupMember::StatusCb done) {
  exec_.post(exec_.costs().user_send,
             [this, data = std::move(data), done = std::move(done)]() mutable {
               member().send_to_group(std::move(data), std::move(done));
             });
}

SimGroupHarness::SimGroupHarness(std::size_t n_processes, GroupConfig cfg,
                                 sim::CostModel model, std::uint64_t seed,
                                 std::uint32_t shards)
    : cfg_(cfg), shards_(shards), world_(n_processes, model, seed),
      seed_(seed) {
  for (std::size_t i = 0; i < n_processes; ++i) add_station(world_.node(i));
}

SimProcess& SimGroupHarness::add_process() {
  return add_station(world_.add_node());
}

SimProcess& SimGroupHarness::add_station(sim::Node& node) {
  const std::size_t i = procs_.size();
  // Distinct fault stream per station, all derived from the one seed.
  procs_.push_back(std::make_unique<SimProcess>(
      node, flip::process_address(next_addr_), cfg_,
      seed_ ^ (0x9E3779B97F4A7C15ULL * (i + 1)), shards_));
  next_addr_ += shards_;
  restart_counts_.push_back(0);
  trace(i, tracing_);
  return *procs_.back();
}

std::string SimGroupHarness::label(std::size_t i, std::uint32_t shard) const {
  std::string l = 'm' + std::to_string(i);
  if (shards_ > 1) l += ".s" + std::to_string(shard);
  if (const int r = restart_counts_.at(i); r > 0) l += 'r' + std::to_string(r);
  return l;
}

void SimGroupHarness::trace(std::size_t i, bool on) {
  SimProcess& p = *procs_[i];
  if (shards_ > 1) {
    p.node().set_trace_ring(on ? &p.node_ring() : nullptr);
    if (on) collector_.attach(node_label(i), &p.node_ring());
  }
  for (std::uint32_t s = 0; s < shards_; ++s) {
    p.member(s).set_trace_ring(on ? &p.trace_ring(s) : nullptr);
    if (on) collector_.attach(label(i, s), &p.trace_ring(s));
  }
}

void SimGroupHarness::crash_process(
    std::size_t i, const storage::MemStorage::CrashOptions& opts) {
  procs_.at(i)->crash_with_disk(opts);
}

check::OracleOptions::RestartPair SimGroupHarness::restart_process(
    std::size_t i, Status* status) {
  // Preserve the crashed life's events under its old label before its
  // ring goes away, then collect the new life under a fresh one — the
  // oracle holds post against pre via restart_pairs.
  if (tracing_) collector_.detach(label(i));
  check::OracleOptions::RestartPair pair;
  pair.pre = label(i);
  ++restart_counts_.at(i);
  pair.post = label(i);
  const Status s = procs_.at(i)->restart_from_disk();
  if (status != nullptr) *status = s;
  trace(i, tracing_);
  return pair;
}

bool SimGroupHarness::form_group() {
  bool ok = true;
  std::size_t formed = 0;
  const auto done = [&](Status s) {
    ok = ok && s == Status::ok;
    ++formed;
  };
  // Join sequentially: each joiner starts once the previous one is in, so
  // member ids are deterministic (the creator is id 0, the others follow
  // in process order).
  std::function<void(std::uint32_t, std::size_t)> join_next =
      [&](std::uint32_t s, std::size_t i) {
        if (i == s % procs_.size()) ++i;  // the creator
        if (i >= procs_.size()) return;
        procs_[i]->member(s).join_group(group_addr(s), [&, s, i](Status st) {
          done(st);
          join_next(s, i + 1);
        });
      };
  for (std::uint32_t s = 0; s < shards_; ++s) {
    procs_[s % procs_.size()]->member(s).create_group(group_addr(s), done);
    join_next(s, 0);
  }
  const std::size_t want = procs_.size() * shards_;
  run_until([&] { return formed == want; }, Duration::seconds(30));
  return ok && formed == want;
}

bool SimGroupHarness::run_until(const std::function<bool()>& pred,
                                Duration deadline) {
  const Time limit = engine().now() + deadline;
  // Single-step so the clock stops at the event that satisfied the
  // predicate (a chunked dispatch would race past far-future timers and
  // wreck any wall-of-virtual-time measurement the caller makes).
  while (!pred()) {
    if (engine().now() >= limit || engine().pending() == 0) return pred();
    engine().run_steps(1);
    if (tracing_) collector_.drain();
  }
  return true;
}

check::Verdict SimGroupHarness::check_conformance(check::OracleOptions opts) {
  opts.first_seq = cfg_.first_seq;
  collector_.drain();
  return check::ConformanceOracle::check(collector_, opts);
}

void SimGroupHarness::set_tracing(bool on) {
  if (on == tracing_) return;
  tracing_ = on;
  if (!on) {
    collector_.detach_all();
    collector_.clear();
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) trace(i, on);
}

}  // namespace amoeba::group
