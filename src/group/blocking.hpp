// Blocking wrappers over GroupMember for real (threaded) runtimes.
//
// Amoeba's primitives are blocking ("to simplify programming. Parallelism
// can be obtained by multithreading the application", Section 2). This
// adapter implements exactly that model on top of the asynchronous state
// machine: application threads call in, park on a condition variable, and
// the UdpRuntime loop thread completes them.
//
// Do not use with the simulator runtime — a single-threaded simulation
// cannot block; drive GroupMember's callbacks directly there.
#pragma once

#include <condition_variable>
#include <deque>
#include <optional>

#include "group/member.hpp"
#include "transport/udp_runtime.hpp"

namespace amoeba::group {

class BlockingGroup {
 public:
  /// `runtime` must be started; `my_address` is this process's FLIP
  /// endpoint. The receive queue is unbounded (the kernel-side history
  /// provides the real flow control, as in Amoeba).
  BlockingGroup(transport::UdpRuntime& runtime, flip::FlipStack& flip,
                flip::Address my_address, GroupConfig config);

  // --- Table 1, blocking forms ---------------------------------------------
  Status create_group(flip::Address group);
  Status join_group(flip::Address group);
  Status leave_group();
  Status send_to_group(Buffer data);
  /// Blocks until a message arrives, the timeout expires (timeout status),
  /// or the group fails locally.
  Result<GroupMessage> receive_from_group(
      std::optional<Duration> timeout = std::nullopt);
  Result<std::uint32_t> reset_group(std::uint32_t min_size);
  GroupInfo get_info();

  /// Whether the group has failed locally (sequencer unreachable, expelled).
  bool failed();

  GroupMember& member() { return member_; }

 private:
  Status wait_status(std::function<void(GroupMember::StatusCb)> start);

  transport::UdpRuntime& rt_;
  std::condition_variable cv_;
  std::deque<GroupMessage> inbox_;
  ViewChange view_;
  bool failed_{false};
  GroupMember member_;  // last: its callbacks touch the fields above
};

}  // namespace amoeba::group
