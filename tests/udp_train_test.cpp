// The real-socket runtime's fragment trains: the frames one flush sends
// to one destination leave as UDP GSO sends, and the kernel cuts them
// back into exactly the datagrams the frames are. Three live runtimes on
// loopback: a sender and two receiving peers, A and B. Every burst is
// queued under one hold of the sender's mutex, so its loop flushes it as
// one batch.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "transport/udp_runtime.hpp"

namespace amoeba {
namespace {

using transport::UdpOptions;
using transport::UdpRuntime;
using Bytes = std::vector<std::uint8_t>;

constexpr transport::StationId kA = 1;
constexpr transport::StationId kB = 2;

/// Spin until `pred` holds or `secs` elapse.
template <typename Pred>
bool eventually(const Pred& pred, int secs = 10) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(secs);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// `bytes` bytes that differ from frame to frame: `tag` first, then a
/// running count, so a reordered or re-cut datagram reads differently.
Bytes frame_bytes(std::uint8_t tag, std::size_t bytes) {
  Bytes b(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    b[i] = static_cast<std::uint8_t>(i == 0 ? tag : tag + i);
  }
  return b;
}

BufView view_of(const Bytes& bytes) {
  SharedBuffer b = SharedBuffer::allocate(bytes.size());
  std::memcpy(b.data(), bytes.data(), bytes.size());
  return BufView(std::move(b));
}

/// The descriptor of the UDP socket bound to `port`, found among this
/// process's open files; -1 if none is.
int socket_on_port(std::uint16_t port) {
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        addr.sin_family == AF_INET && ntohs(addr.sin_port) == port) {
      return fd;
    }
  }
  return -1;
}

struct Trio {
  UdpRuntime sender{UdpOptions{}};
  UdpRuntime a{UdpOptions{}};
  UdpRuntime b{UdpOptions{}};
  std::vector<Bytes> got_a;  // guarded by a.mutex()
  std::vector<Bytes> got_b;  // guarded by b.mutex()

  Trio() {
    const std::vector<std::pair<std::string, std::uint16_t>> table = {
        {"127.0.0.1", sender.local_port()},
        {"127.0.0.1", a.local_port()},
        {"127.0.0.1", b.local_port()},
    };
    sender.set_station_table(0, table);
    a.set_station_table(kA, table);
    b.set_station_table(kB, table);
    a.set_receive_handler([this](transport::StationId, BufView v) {
      got_a.emplace_back(v.data(), v.data() + v.size());
    });
    b.set_receive_handler([this](transport::StationId, BufView v) {
      got_b.emplace_back(v.data(), v.data() + v.size());
    });
    sender.start();
    a.start();
    b.start();
  }
  ~Trio() {
    sender.stop();
    a.stop();
    b.stop();
  }

  /// Queue `frames` (destination, bytes) under one hold of the sender's
  /// mutex, then wait until the sender has counted them all and both
  /// peers hold `to_a` and `to_b` datagrams.
  void burst(const std::vector<std::pair<transport::StationId, Bytes>>& frames,
             std::size_t to_a, std::size_t to_b) {
    {
      std::lock_guard lock(sender.mutex());
      for (const auto& [dst, bytes] : frames) {
        sender.send_unicast(dst, view_of(bytes), bytes.size());
      }
    }
    queued += frames.size();
    EXPECT_TRUE(eventually([&] {
      const auto& io = sender.io_stats();
      std::scoped_lock lock(a.mutex(), b.mutex());
      return io.tx_datagrams.load() + io.tx_dropped.load() >= queued &&
             got_a.size() >= to_a && got_b.size() >= to_b;
    }));
  }
  std::uint64_t queued = 0;
  std::vector<Bytes> received(UdpRuntime& rt, std::vector<Bytes>& got) {
    std::lock_guard lock(rt.mutex());
    return got;
  }
};

/// The frames of `frames` bound for `dst`, in order.
std::vector<Bytes> bound_for(
    const std::vector<std::pair<transport::StationId, Bytes>>& frames,
    transport::StationId dst) {
  std::vector<Bytes> out;
  for (const auto& [d, bytes] : frames) {
    if (d == dst) out.push_back(bytes);
  }
  return out;
}

/// Equal frame lists, or the first place they differ.
::testing::AssertionResult same_frames(const std::vector<Bytes>& got,
                                       const std::vector<Bytes>& want) {
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i >= got.size() || i >= want.size() || got[i] != want[i]) {
      return ::testing::AssertionFailure()
             << "datagram " << i << " of " << got.size() << " received, "
             << want.size() << " sent: "
             << (i < got.size() ? got[i].size() : 0) << " B received, "
             << (i < want.size() ? want[i].size() : 0) << " B sent";
    }
  }
  return ::testing::AssertionSuccess();
}

/// 5 x 1400 B + 300 B to A, 1400 B + 200 B to B, then 3 x 64 B to A, with
/// A's and B's frames interleaved.
std::vector<std::pair<transport::StationId, Bytes>> interleaved() {
  return {
      {kA, frame_bytes(1, 1400)}, {kB, frame_bytes(2, 1400)},
      {kA, frame_bytes(3, 1400)}, {kA, frame_bytes(4, 1400)},
      {kB, frame_bytes(5, 200)},  {kA, frame_bytes(6, 1400)},
      {kA, frame_bytes(7, 1400)}, {kA, frame_bytes(8, 300)},
      {kA, frame_bytes(9, 64)},   {kA, frame_bytes(10, 64)},
      {kA, frame_bytes(11, 64)},
  };
}

TEST(UdpTrain, InterleavedTrainsArriveAsTheirFrames) {
  Trio t;
  if (!t.sender.gso_active()) GTEST_SKIP() << "kernel refuses UDP GSO";
  const auto frames = interleaved();
  t.burst(frames, 9, 2);
  // One datagram per frame, byte for byte, in each destination's order.
  EXPECT_TRUE(same_frames(t.received(t.a, t.got_a), bound_for(frames, kA)));
  EXPECT_TRUE(same_frames(t.received(t.b, t.got_b), bound_for(frames, kB)));
  const auto& io = t.sender.io_stats();
  EXPECT_EQ(io.tx_datagrams.load(), frames.size());
  EXPECT_EQ(io.tx_dropped.load(), 0u);
  // A: [5 x 1400, 300] (the shorter frame closes it) and [3 x 64];
  // B: [1400, 200].
  EXPECT_EQ(io.tx_gso_sends.load(), 3u);
  EXPECT_EQ(io.tx_gso_datagrams.load(), 11u);
}

TEST(UdpTrain, LargerFrameStartsANewTrain) {
  Trio t;
  if (!t.sender.gso_active()) GTEST_SKIP() << "kernel refuses UDP GSO";
  const std::vector<std::pair<transport::StationId, Bytes>> frames = {
      {kA, frame_bytes(1, 200)},  {kA, frame_bytes(2, 200)},
      {kA, frame_bytes(3, 1400)}, {kA, frame_bytes(4, 1400)},
      {kA, frame_bytes(5, 1400)},
  };
  t.burst(frames, frames.size(), 0);
  EXPECT_TRUE(same_frames(t.received(t.a, t.got_a), bound_for(frames, kA)));
  const auto& io = t.sender.io_stats();
  EXPECT_EQ(io.tx_datagrams.load(), 5u);
  // [200, 200] and [1400, 1400, 1400].
  EXPECT_EQ(io.tx_gso_sends.load(), 2u);
  EXPECT_EQ(io.tx_gso_datagrams.load(), 5u);
}

TEST(UdpTrain, SegmentAndByteCapsCloseATrain) {
  Trio t;
  if (!t.sender.gso_active()) GTEST_SKIP() << "kernel refuses UDP GSO";
  // 65 equal frames to A: a 64-segment train, then the 65th on its own.
  std::vector<std::pair<transport::StationId, Bytes>> frames;
  for (int i = 0; i < 65; ++i) {
    frames.emplace_back(kA, frame_bytes(static_cast<std::uint8_t>(i), 256));
  }
  // 47 x 1400 B to B: 46 fill 64,400 of a train's 65,507 bytes, so the
  // 47th goes on its own.
  for (int i = 0; i < 47; ++i) {
    frames.emplace_back(kB, frame_bytes(static_cast<std::uint8_t>(i), 1400));
  }
  t.burst(frames, 65, 47);
  EXPECT_TRUE(same_frames(t.received(t.a, t.got_a), bound_for(frames, kA)));
  EXPECT_TRUE(same_frames(t.received(t.b, t.got_b), bound_for(frames, kB)));
  const auto& io = t.sender.io_stats();
  EXPECT_EQ(io.tx_datagrams.load(), 112u);
  EXPECT_EQ(io.tx_gso_sends.load(), 2u);
  EXPECT_EQ(io.tx_gso_datagrams.load(), 64u + 46u);
}

TEST(UdpTrain, RefusedGsoSendsEveryFrameOnItsOwn) {
  Trio t;
  if (!t.sender.gso_active()) GTEST_SKIP() << "kernel refuses UDP GSO";
  // The kernel refuses segmentation offload (EINVAL) on a socket that
  // sends without UDP checksums, and still takes plain datagrams: the
  // first train fails, its frames go one by one, and GSO stays off.
  const int fd = socket_on_port(t.sender.local_port());
  ASSERT_GE(fd, 0);
  const int one = 1;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_NO_CHECK, &one, sizeof(one)), 0);

  const auto frames = interleaved();
  t.burst(frames, 9, 2);
  EXPECT_FALSE(t.sender.gso_active());
  t.burst(frames, 18, 4);

  auto twice = frames;
  twice.insert(twice.end(), frames.begin(), frames.end());
  const auto want_a = bound_for(twice, kA);
  const auto want_b = bound_for(twice, kB);
  EXPECT_TRUE(same_frames(t.received(t.a, t.got_a), want_a));
  EXPECT_TRUE(same_frames(t.received(t.b, t.got_b), want_b));
  const auto& io = t.sender.io_stats();
  EXPECT_EQ(io.tx_datagrams.load(), 2 * frames.size());
  EXPECT_EQ(io.tx_dropped.load(), 0u);
  EXPECT_EQ(io.tx_gso_sends.load(), 0u);
  EXPECT_EQ(io.tx_gso_datagrams.load(), 0u);
}

}  // namespace
}  // namespace amoeba
