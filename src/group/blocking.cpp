#include "group/blocking.hpp"

namespace amoeba::group {

BlockingGroup::BlockingGroup(transport::UdpRuntime& runtime,
                             flip::FlipStack& flip, flip::Address my_address,
                             GroupConfig config)
    : rt_(runtime),
      member_(flip, runtime, my_address, config,
              GroupMember::Callbacks{
                  .on_message =
                      [this](const GroupMessage& m) {
                        inbox_.push_back(m);
                        cv_.notify_all();
                      },
                  .on_view =
                      [this](const ViewChange& v) {
                        view_ = v;
                        cv_.notify_all();
                      },
                  .on_fault =
                      [this](Status) {
                        failed_ = true;
                        cv_.notify_all();
                      },
              }) {}

Status BlockingGroup::wait_status(
    std::function<void(GroupMember::StatusCb)> start) {
  std::unique_lock lock(rt_.mutex());
  std::optional<Status> result;
  start([this, &result](Status s) {
    result = s;
    cv_.notify_all();
  });
  cv_.wait(lock, [&] { return result.has_value(); });
  return *result;
}

Status BlockingGroup::create_group(flip::Address group) {
  return wait_status([&](GroupMember::StatusCb cb) {
    member_.create_group(group, std::move(cb));
  });
}

Status BlockingGroup::join_group(flip::Address group) {
  return wait_status([&](GroupMember::StatusCb cb) {
    member_.join_group(group, std::move(cb));
  });
}

Status BlockingGroup::leave_group() {
  return wait_status([&](GroupMember::StatusCb cb) {
    member_.leave_group(std::move(cb));
  });
}

Status BlockingGroup::send_to_group(Buffer data) {
  return wait_status([&](GroupMember::StatusCb cb) {
    member_.send_to_group(std::move(data), std::move(cb));
  });
}

Result<GroupMessage> BlockingGroup::receive_from_group(
    std::optional<Duration> timeout) {
  std::unique_lock lock(rt_.mutex());
  const auto ready = [&] { return !inbox_.empty() || failed_; };
  if (timeout.has_value()) {
    if (!cv_.wait_for(lock, std::chrono::nanoseconds(timeout->ns), ready)) {
      return Status::timeout;
    }
  } else {
    cv_.wait(lock, ready);
  }
  if (inbox_.empty()) return Status::failure;  // group failed
  GroupMessage m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

Result<std::uint32_t> BlockingGroup::reset_group(std::uint32_t min_size) {
  std::unique_lock lock(rt_.mutex());
  std::optional<Status> status;
  std::uint32_t size = 0;
  member_.reset_group(min_size, [&](Status s, std::uint32_t n) {
    status = s;
    size = n;
    cv_.notify_all();
  });
  cv_.wait(lock, [&] { return status.has_value(); });
  if (*status != Status::ok) return *status;
  failed_ = false;
  return size;
}

GroupInfo BlockingGroup::get_info() {
  std::unique_lock lock(rt_.mutex());
  return member_.info();
}

bool BlockingGroup::failed() {
  std::unique_lock lock(rt_.mutex());
  return failed_;
}

}  // namespace amoeba::group
