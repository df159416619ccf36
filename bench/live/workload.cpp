// One repetition of a workload: three protocol stations, each a UdpRuntime
// (optionally behind the timing interposers) + FlipStack + GroupMember or
// Node, driven from the calling thread as the single load generator.
#include "workload.hpp"

#include <arpa/inet.h>
#include <linux/futex.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "flip/stack.hpp"
#include "group/member.hpp"
#include "group/node.hpp"
#include "live_trace.hpp"
#include "transport/udp_runtime.hpp"

namespace live {

using namespace amoeba;

static_assert(kStations <= kMaxStations, "the tracer keeps per-station state");

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::size_t kHeaderBytes = 32;
constexpr std::uint64_t kCheckpointEvery = 1024;
constexpr std::size_t kPendingSlots = 4096;  // power of two
constexpr double kCrossShardShare = 0.10;
/// Load before the window, so pools, caches and batching reach steady state.
constexpr double kWarmupS = 0.5;
/// Longest wait after the window for every issued message to be delivered.
constexpr double kDrainS = 2.0;
constexpr double kMaxLateP99Us = 50.0;
/// Above this share of CPU time taken by the hypervisor, a repetition
/// measured a contended host rather than the program.
constexpr double kMaxStealRatio = 0.05;

/// The reference host speed: the calibration work below takes this long.
/// It is this VM's typical value, so reported times stay close to raw
/// ones. The host's speed drifts by 10-30 % over minutes, and every time
/// the benchmark reports moves with it, as does a closed loop's rate;
/// scaling by calibration / reference removes most of that drift.
constexpr double kReferenceCalibMs = 55.0;

volatile std::uint64_t g_calibration_sink = 0;

// --- futex-backed wake-ups --------------------------------------------------

void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t seen,
                std::int64_t timeout_ns) {
  if (timeout_ns <= 0) return;
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_PRIVATE, seen, &ts, nullptr, 0);
}

void futex_wake(std::atomic<std::uint32_t>& word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

std::int64_t thread_cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1000;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t nonvoluntary_switches(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/status", tid);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long v = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "nonvoluntary_ctxt_switches: %llu", &v) == 1) break;
  }
  std::fclose(f);
  return v;
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs, in
/// USER_HZ ticks (the `steal` column of /proc/stat's `cpu` line).
std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t name_hash(const char* name) {
  std::uint64_t h = 0;
  for (const char* c = name; *c != '\0'; ++c) {
    h = mix64(h ^ static_cast<unsigned char>(*c));
  }
  return h;
}

/// Milliseconds a fixed single-thread integer loop takes (best of 3).
double cpu_loop_ms() {
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = mono_ns();
    std::uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1;
    g_calibration_sink = x;
    best = std::min(best, static_cast<double>(mono_ns() - t0) / 1e6);
  }
  return best;
}

/// A UDP socket bound to an ephemeral loopback port, with a receive
/// timeout so a lost datagram cannot hang the caller; -1 on failure.
int loopback_socket(sockaddr_in* addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(a);
  const timeval timeout{1, 0};
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&a), sizeof(a)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0) {
    ::close(fd);
    return -1;
  }
  *addr = a;
  return fd;
}

/// Milliseconds 2000 64-byte UDP round trips over loopback between two
/// threads take (best of 3), or a negative value if a socket call failed.
double ping_pong_ms() {
  constexpr int kRoundTrips = 2000;
  constexpr ssize_t kLen = 64;
  const auto bounce = [](int fd, const sockaddr_in& to, bool send_first) {
    std::uint8_t buf[kLen] = {};
    const auto dst = reinterpret_cast<const sockaddr*>(&to);
    for (int i = 0; i < kRoundTrips; ++i) {
      if (send_first && ::sendto(fd, buf, kLen, 0, dst, sizeof(to)) != kLen) {
        return false;
      }
      if (::recv(fd, buf, kLen, 0) != kLen) return false;
      if (!send_first && ::sendto(fd, buf, kLen, 0, dst, sizeof(to)) != kLen) {
        return false;
      }
    }
    return true;
  };
  sockaddr_in a{}, b{};
  const int fa = loopback_socket(&a);
  const int fb = loopback_socket(&b);
  double best = fa >= 0 && fb >= 0 ? 1e300 : -1.0;
  for (int r = 0; r < 3 && best > 0; ++r) {
    bool echoed = false;
    std::thread echo([&] { echoed = bounce(fb, a, false); });
    const std::int64_t t0 = mono_ns();
    const bool ok = bounce(fa, b, true);
    const double ms = static_cast<double>(mono_ns() - t0) / 1e6;
    echo.join();
    best = ok && echoed ? std::min(best, ms) : -1.0;
  }
  if (fa >= 0) ::close(fa);
  if (fb >= 0) ::close(fb);
  return best;
}

/// Milliseconds a fixed piece of reference work takes: the host's speed at
/// the time of the repetition, or a negative value on failure. The work is
/// the mix the benchmark itself does, computation plus kernel UDP with
/// cross-thread wake-ups: the integer loop plus the ping-pong. The
/// benchmark's times track the sum more closely than either part.
double calibration_ms() {
  const double pp = ping_pong_ms();
  return pp < 0 ? pp : cpu_loop_ms() + pp;
}

// --- payload check header --------------------------------------------------

/// The first 32 bytes of every payload: who sent it, to which shard (or
/// shard mask), the per-(sender, stream) counter, and the send time (the
/// scheduled arrival time in an open loop).
struct MsgHeader {
  std::uint32_t origin{0};
  std::uint32_t dest{0};
  std::uint64_t counter{0};
  std::int64_t t_ns{0};
  bool multi{false};
};

void write_header(std::uint8_t* p, const MsgHeader& h) {
  store_le32(p, h.origin);
  store_le32(p + 4, h.dest);
  store_le64(p + 8, h.counter);
  store_le64(p + 16, static_cast<std::uint64_t>(h.t_ns));
  p[24] = h.multi ? 1 : 0;
  std::memset(p + 25, 0, kHeaderBytes - 25);
}

MsgHeader read_header(const std::uint8_t* p) {
  MsgHeader h;
  h.origin = load_le32(p);
  h.dest = load_le32(p + 4);
  h.counter = load_le64(p + 8);
  h.t_ns = static_cast<std::int64_t>(load_le64(p + 16));
  h.multi = p[24] != 0;
  return h;
}

// --- stations --------------------------------------------------------------

struct Pending {
  std::int64_t t0{0};
  std::uint64_t counter{0};
  std::uint32_t dest{0};
  bool multi{false};
  std::atomic<bool> live{false};
};

/// Per-(receiver, shard) delivery stream state.
struct Stream {
  std::uint64_t digest{0};
  std::uint64_t delivered{0};
  std::vector<std::uint64_t> checkpoints;
  std::array<std::uint64_t, kStations> next{};  // FIFO: next counter by origin
};

class Bench;

struct Station {
  Station(Bench& b, unsigned i) : bench(b), idx(i) {}

  Bench& bench;
  unsigned idx;
  transport::UdpRuntime rt{transport::UdpOptions{}};
  std::unique_ptr<TimedDevice> tdev;
  std::unique_ptr<TimedExecutor> texec;
  std::unique_ptr<flip::FlipStack> flip;
  std::unique_ptr<group::GroupMember> member;
  std::unique_ptr<group::Node> node;

  // Receiver side, under rt.mutex().
  std::array<Stream, kShards> streams;
  std::array<std::vector<std::uint8_t>, kStations> xseen;  // shard bits
  LogHistogram deliver_lat;
  std::uint64_t violations{0};
  std::string first_violation;

  // Sender side. The generator owns the issue counters; completions run
  // under rt.mutex().
  std::atomic<int> outstanding{0};
  std::array<Pending, kPendingSlots> pending;
  std::uint64_t next_slot{0};
  std::uint64_t issued{0};
  std::array<std::uint64_t, kShards> next_counter{};
  std::uint64_t next_xcounter{0};
  std::uint64_t failed{0};
  std::uint64_t window_ok{0};
  std::uint64_t window_ok_x{0};
  std::array<std::uint64_t, kShards> ok_to{};
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ok_x;  // counter, mask
  LogHistogram send_lat;
  LogHistogram xsend_lat;

  // Loop-thread identity, captured by a posted task.
  pthread_t loop_thread{};
  pid_t loop_tid{0};
};

/// Everything sampled at a window edge.
struct Snapshot {
  std::int64_t wall_ns{0};
  std::int64_t proc_cpu_ns{0};
  std::int64_t gen_cpu_ns{0};
  std::array<std::int64_t, kStations> loop_cpu_ns{};
  std::uint64_t loop_nvcsw{0};
  std::uint64_t steal_ticks{0};
  std::uint64_t tx_datagrams{0}, tx_batches{0}, wakeups{0}, wake_spurious{0},
      tx_soft_errors{0}, tx_dropped{0}, rx_truncated{0},
      tx_backpressure_waits{0};
  std::uint64_t flip_messages{0}, flip_packets{0}, bad_packets{0},
      reassembly_timeouts{0};
  std::uint64_t batch_frames{0}, batch_messages{0}, history_stalls{0},
      send_retries{0}, nacks{0}, retransmits{0}, duplicates{0},
      resil_acks{0}, xretries{0};
  std::uint64_t pool_hits{0}, pool_misses{0};
  std::uint64_t timer_fires{0};
};

class Bench {
 public:
  explicit Bench(const RepConfig& cfg)
      : cfg_(cfg), w_(*cfg.workload),
        rng_(mix64(cfg.seed) ^ mix64(0xB37C0000ULL + cfg.rep) ^
             name_hash(w_.name)) {
    if (cfg_.traced) {
      tracer_ = std::make_unique<Tracer>(5'000);
      Tracer::install(tracer_.get());
    }
    filler_.resize(16 * 1024);
    for (auto& b : filler_) b = static_cast<std::uint8_t>(rng_.next());
  }
  ~Bench() {
    // A Station's runtime outlives its stack and member, and its loop
    // thread would otherwise keep dispatching into them while they are
    // destroyed. Stop every loop before tearing any station down.
    for (auto& s : st_) {
      if (s) s->rt.stop();
    }
    for (auto& s : st_) s.reset();
    Tracer::install(nullptr);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  RepResult run();

  void on_deliver(Station& r, std::uint32_t shard,
                  const group::GroupMessage& gm);
  void on_complete(Station& s, std::size_t slot, Status status);

 private:
  bool build_and_form();
  bool form_step(const std::vector<std::pair<unsigned, std::function<void(
                     group::GroupMember::StatusCb)>>>& ops);
  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  bool issue(Station& s, std::int64_t t0);
  void closed_loop(std::int64_t until);
  void open_loop(std::int64_t until);
  void generate(std::int64_t until) {
    if (w_.shape == Shape::open) {
      open_loop(until);
    } else {
      closed_loop(until);
    }
  }
  void wait_completion(std::uint32_t seen, std::int64_t until);
  /// Posts a task to every loop thread that records its identity and
  /// returns that thread's buffer-pool counters.
  std::array<detail::PoolStats, kStations> probe_loop_threads();
  Snapshot snapshot();
  bool drained();
  bool check(std::string* why);
  void violation(Station& r, const char* what);
  std::vector<Station*> senders();

  RepConfig cfg_;
  const Workload& w_;
  Rng rng_;
  std::vector<std::uint8_t> filler_;
  std::unique_ptr<Tracer> tracer_;  // before st_: callbacks use it
  std::array<std::unique_ptr<Station>, kStations> st_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint32_t> completions_{0};
  std::atomic<std::uint32_t> gen_waiting_{0};
  LogHistogram mu_wait_;
  LogHistogram late_;
  std::int64_t spin_ns_{0};  // open-loop generator's spin in the window
  std::array<std::uint64_t, kShards> issued_x_to_{};  // generator-only
  bool faulted_{false};
};

std::vector<Station*> Bench::senders() {
  // The sequencer-hosting station does not send in the single-group
  // workloads (its sends never leave the host), all three Nodes send in
  // the sharded one.
  std::vector<Station*> out;
  for (unsigned i = w_.shape == Shape::shard ? 0 : 1; i < kStations; ++i) {
    out.push_back(st_[i].get());
  }
  return out;
}

void Bench::violation(Station& r, const char* what) {
  if (r.violations++ == 0) r.first_violation = what;
}

void Bench::on_deliver(Station& r, std::uint32_t shard,
                       const group::GroupMessage& gm) {
  if (gm.kind != group::MessageKind::app &&
      gm.kind != group::MessageKind::xshard) {
    return;
  }
  Span span(SpanKind::deliver, r.idx);
  if (gm.data.size() < kHeaderBytes || shard >= kShards) {
    violation(r, "short payload or unknown shard");
    return;
  }
  const MsgHeader h = read_header(gm.data.data());
  if (h.origin >= kStations) {
    violation(r, "unknown origin");
    return;
  }
  Stream& s = r.streams[shard];
  const std::uint64_t key = (std::uint64_t{h.origin} << 56) ^
                            (std::uint64_t{h.multi} << 48) ^ h.counter;
  s.digest = mix64(s.digest ^ mix64(key));
  if (++s.delivered % kCheckpointEvery == 0) s.checkpoints.push_back(s.digest);
  if (h.multi) {
    const auto bit = static_cast<std::uint8_t>(1u << shard);
    if ((h.dest & bit) == 0) {
      violation(r, "cross-shard message in an unaddressed shard");
    }
    auto& seen = r.xseen[h.origin];
    if (h.counter >= seen.size()) seen.resize(h.counter + 1);
    if ((seen[h.counter] & bit) != 0) {
      violation(r, "duplicate cross-shard delivery");
    }
    seen[h.counter] = static_cast<std::uint8_t>(seen[h.counter] | bit);
  } else {
    if (h.dest != shard) violation(r, "message delivered in the wrong shard");
    std::uint64_t& next = s.next[h.origin];
    if (h.counter != next) violation(r, "per-sender FIFO gap or duplicate");
    next = h.counter + 1;
  }
  if (h.origin != r.idx && recording()) {
    r.deliver_lat.record(mono_ns() - h.t_ns);
  }
}

void Bench::on_complete(Station& s, std::size_t slot, Status status) {
  Span span(SpanKind::complete, s.idx);
  Pending& p = s.pending[slot];
  if (status == Status::ok) {
    if (p.multi) {
      s.ok_x.emplace_back(p.counter, p.dest);
    } else {
      ++s.ok_to[p.dest];
    }
    if (recording()) {
      ++s.window_ok;
      if (p.multi) {
        ++s.window_ok_x;
        s.xsend_lat.record(mono_ns() - p.t0);
      } else {
        s.send_lat.record(mono_ns() - p.t0);
      }
    }
  } else {
    ++s.failed;
  }
  p.live.store(false, std::memory_order_release);
  s.outstanding.fetch_sub(1, std::memory_order_acq_rel);
  completions_.fetch_add(1, std::memory_order_seq_cst);
  if (gen_waiting_.load(std::memory_order_seq_cst) != 0) {
    futex_wake(completions_);
  }
}

bool Bench::form_step(
    const std::vector<std::pair<unsigned, std::function<void(
        group::GroupMember::StatusCb)>>>& ops) {
  // Shared with the callbacks: one may still fire after a timeout here.
  struct Progress {
    std::atomic<std::uint32_t> done{0};
    std::atomic<bool> all_ok{true};
  };
  const auto progress = std::make_shared<Progress>();
  for (const auto& [station, op] : ops) {
    std::lock_guard lock(st_[station]->rt.mutex());
    op([progress](Status s) {
      if (s != Status::ok) progress->all_ok.store(false);
      progress->done.fetch_add(1, std::memory_order_seq_cst);
      futex_wake(progress->done);
    });
  }
  const std::int64_t deadline = mono_ns() + 10'000'000'000;
  while (true) {
    const std::uint32_t n = progress->done.load(std::memory_order_seq_cst);
    if (n == ops.size()) return progress->all_ok.load();
    const std::int64_t now = mono_ns();
    if (now >= deadline) return false;
    futex_wait(progress->done, n,
               std::min<std::int64_t>(deadline - now, 10'000'000));
  }
}

bool Bench::build_and_form() {
  for (unsigned i = 0; i < kStations; ++i) {
    st_[i] = std::make_unique<Station>(*this, i);
  }
  std::vector<std::pair<std::string, std::uint16_t>> table;
  for (auto& s : st_) table.emplace_back("127.0.0.1", s->rt.local_port());

  group::GroupConfig gcfg;
  gcfg.method = w_.method;
  gcfg.resilience = w_.resilience;
  gcfg.max_outstanding = w_.max_outstanding;
  for (auto& sp : st_) {
    Station& s = *sp;
    s.rt.set_station_table(s.idx, table);
    transport::Device* dev = &s.rt;
    transport::Executor* exec = &s.rt;
    if (tracer_) {
      s.tdev = std::make_unique<TimedDevice>(s.rt, s.idx, *tracer_);
      s.texec = std::make_unique<TimedExecutor>(s.rt, s.idx, *tracer_);
      dev = s.tdev.get();
      exec = s.texec.get();
    }
    s.flip = std::make_unique<flip::FlipStack>(*exec, *dev);
    for (auto& v : s.xseen) v.reserve(1u << 16);
    for (Stream& str : s.streams) str.checkpoints.reserve(1u << 13);
    s.ok_x.reserve(1u << 16);
    if (w_.shape == Shape::shard) {
      s.node = std::make_unique<group::Node>(
          *s.flip, *exec, flip::process_address(100 + s.idx), s.idx + 1);
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        s.node->add_shard(sh, flip::process_address(200 + 8 * s.idx + sh), gcfg,
                          {.on_message = nullptr,
                           .on_view = nullptr,
                           .on_fault = [this](Status) { faulted_ = true; }});
      }
      s.node->set_deliver(
          [this, &s](std::uint32_t shard, const group::GroupMessage& gm,
                     std::uint64_t) { on_deliver(s, shard, gm); });
    } else {
      s.member = std::make_unique<group::GroupMember>(
          *s.flip, *exec, flip::process_address(1 + s.idx), gcfg,
          group::GroupMember::Callbacks{
              .on_message = [this, &s](const group::GroupMessage& gm) {
                on_deliver(s, 0, gm);
              },
              .on_view = nullptr,
              .on_fault = [this](Status) { faulted_ = true; }});
    }
  }
  for (auto& s : st_) s->rt.start();

  using Op = std::function<void(group::GroupMember::StatusCb)>;
  if (w_.shape != Shape::shard) {
    const flip::Address gaddr = flip::group_address(0xB1E0);
    if (!form_step({{0, [&](auto cb) {
                       st_[0]->member->create_group(gaddr, cb);
                     }}})) {
      return false;
    }
    for (unsigned i = 1; i < kStations; ++i) {
      if (!form_step({{i, [&, i](auto cb) {
                         st_[i]->member->join_group(gaddr, cb);
                       }}})) {
        return false;
      }
    }
    return true;
  }
  // Shard s is created (and so sequenced) on Node s mod 3; the other Nodes
  // join it in order. The shards form in parallel, one step at a time.
  for (unsigned step = 0; step < kStations; ++step) {
    std::vector<std::pair<unsigned, Op>> ops;
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      const unsigned creator = sh % kStations;
      const flip::Address gaddr = flip::group_address(0x7100 + sh);
      unsigned who = creator;
      if (step > 0) {
        unsigned k = 0;
        for (unsigned i = 0; i < kStations; ++i) {
          if (i != creator && ++k == step) who = i;
        }
      }
      group::GroupMember* m = st_[who]->node->shard(sh);
      ops.emplace_back(who, [m, gaddr, step](auto cb) {
        if (step == 0) {
          m->create_group(gaddr, cb);
        } else {
          m->join_group(gaddr, cb);
        }
      });
    }
    if (!form_step(ops)) return false;
  }
  return true;
}

bool Bench::issue(Station& s, std::int64_t t0) {
  const std::size_t slot = s.next_slot & (kPendingSlots - 1);
  Pending& p = s.pending[slot];
  if (p.live.load(std::memory_order_acquire)) return false;  // ring full
  bool multi = false;
  std::uint32_t dest = 0;
  if (w_.shape == Shape::shard) {
    if (rng_.chance(kCrossShardShare)) {
      const auto a = static_cast<std::uint32_t>(rng_.below(kShards));
      auto b = static_cast<std::uint32_t>(rng_.below(kShards - 1));
      if (b >= a) ++b;
      multi = true;
      dest = (1u << a) | (1u << b);
    } else {
      dest = static_cast<std::uint32_t>(rng_.below(kShards));
    }
  }
  MsgHeader h;
  h.origin = s.idx;
  h.dest = dest;
  h.counter = multi ? s.next_xcounter++ : s.next_counter[dest]++;
  h.t_ns = t0;
  h.multi = multi;
  Buffer payload(w_.payload);
  write_header(payload.data(), h);
  const std::size_t fill = w_.payload - kHeaderBytes;
  const std::size_t off = static_cast<std::size_t>(h.counter * 131) %
                          (filler_.size() - fill + 1);
  std::memcpy(payload.data() + kHeaderBytes, filler_.data() + off, fill);

  p.t0 = t0;
  p.counter = h.counter;
  p.dest = dest;
  p.multi = multi;
  p.live.store(true, std::memory_order_relaxed);
  ++s.next_slot;
  ++s.issued;
  if (multi) {
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      if ((dest & (1u << sh)) != 0) ++issued_x_to_[sh];
    }
  }
  s.outstanding.fetch_add(1, std::memory_order_acq_rel);

  std::unique_lock lock(s.rt.mutex(), std::defer_lock);
  {
    Span span(SpanKind::mu_wait, s.idx);
    const std::int64_t a = mono_ns();
    lock.lock();
    if (recording()) mu_wait_.record(mono_ns() - a);
  }
  Span span(SpanKind::send, s.idx);
  auto done = [st = &s, slot](Status status) {
    st->bench.on_complete(*st, slot, status);
  };
  if (s.node == nullptr) {
    s.member->send_to_group(std::move(payload), done);
  } else if (multi) {
    s.node->send_multi(dest, std::move(payload), done);
  } else {
    s.node->send_to_shard(dest, std::move(payload), done);
  }
  return true;
}

void Bench::wait_completion(std::uint32_t seen, std::int64_t until) {
  gen_waiting_.store(1, std::memory_order_seq_cst);
  if (completions_.load(std::memory_order_seq_cst) == seen) {
    futex_wait(completions_, seen,
               std::min<std::int64_t>(until - mono_ns(), 10'000'000));
  }
  gen_waiting_.store(0, std::memory_order_seq_cst);
}

void Bench::closed_loop(std::int64_t until) {
  const std::vector<Station*> from = senders();
  while (mono_ns() < until) {
    const std::uint32_t seen = completions_.load(std::memory_order_seq_cst);
    bool sent = true;
    bool any = false;
    // Round-robin, one send per sender per pass, until all are full.
    while (sent) {
      sent = false;
      for (Station* s : from) {
        if (s->outstanding.load(std::memory_order_acquire) < w_.outstanding &&
            issue(*s, mono_ns())) {
          sent = any = true;
        }
      }
    }
    if (!any) wait_completion(seen, until);
  }
}

void Bench::open_loop(std::int64_t until) {
  const std::vector<Station*> from = senders();
  std::int64_t due = mono_ns();
  while (true) {
    const double gap_s = -std::log1p(-rng_.uniform()) / w_.rate;
    due += static_cast<std::int64_t>(gap_s * 1e9);
    if (due >= until) break;
    Station* s = from[rng_.below(from.size())];
    // Spin to the due time rather than sleep: how long a sleeping thread
    // takes to wake varies by tens of µs with the host's load, and that
    // lateness would be charged to the send. The spin is not program work,
    // so its time is taken out of the CPU metrics.
    const std::int64_t spin_from = mono_ns();
    std::int64_t now = spin_from;
    while (now < due) now = mono_ns();
    if (recording()) {
      spin_ns_ += now - spin_from;
      late_.record(now - due);
    }
    // The clock of this send starts at its scheduled arrival, so a stall
    // is charged to every send queued behind it.
    while (!issue(*s, due)) wait_completion(completions_.load(), until);
  }
  while (mono_ns() < until) wait_completion(completions_.load(), until);
}

std::array<detail::PoolStats, kStations> Bench::probe_loop_threads() {
  std::atomic<std::uint32_t> done{0};
  std::array<detail::PoolStats, kStations> pools{};
  for (auto& sp : st_) {
    Station* s = sp.get();
    std::lock_guard lock(s->rt.mutex());
    s->rt.post(Duration::zero(), [s, &done, &pools] {
      s->loop_thread = ::pthread_self();
      s->loop_tid = static_cast<pid_t>(::syscall(SYS_gettid));
      pools[s->idx] = detail::pool_stats();
      done.fetch_add(1, std::memory_order_seq_cst);
      futex_wake(done);
    });
  }
  while (true) {
    const std::uint32_t n = done.load(std::memory_order_seq_cst);
    if (n == kStations) break;
    futex_wait(done, n, 10'000'000);
  }
  return pools;
}

Snapshot Bench::snapshot() {
  const auto pools = probe_loop_threads();
  Snapshot sn;
  for (unsigned i = 0; i < kStations; ++i) {
    Station& s = *st_[i];
    clockid_t cid{};
    if (::pthread_getcpuclockid(s.loop_thread, &cid) == 0) {
      sn.loop_cpu_ns[i] = thread_cpu_ns(cid);
    }
    sn.loop_nvcsw += nonvoluntary_switches(s.loop_tid);
    sn.pool_hits += pools[i].pool_hits;
    sn.pool_misses += pools[i].pool_misses;
    const transport::UdpIoStats& io = s.rt.io_stats();
    const auto rd = [](const std::atomic<std::uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    sn.tx_datagrams += rd(io.tx_datagrams);
    sn.tx_batches += rd(io.tx_batches);
    sn.wakeups += rd(io.wakeups);
    sn.wake_spurious += rd(io.wake_spurious);
    sn.tx_soft_errors += rd(io.tx_soft_errors);
    sn.tx_dropped += rd(io.tx_dropped);
    sn.rx_truncated += rd(io.rx_truncated);
    sn.tx_backpressure_waits += rd(io.tx_backpressure_waits);

    std::lock_guard lock(s.rt.mutex());
    const flip::Stats& fs = s.flip->stats();
    sn.flip_messages += fs.messages_sent;
    sn.flip_packets += fs.packets_sent;
    sn.bad_packets += fs.bad_packets;
    sn.reassembly_timeouts += fs.reassembly_timeouts;
    const auto add_group = [&sn](const group::GroupStats& g) {
      sn.batch_frames += g.batch_frames_emitted;
      sn.batch_messages += g.batch_messages_packed;
      sn.history_stalls += g.history_stalls;
      sn.send_retries += g.send_retries_fired;
      sn.nacks += g.nacks_sent;
      sn.retransmits += g.retransmits_served;
      sn.duplicates += g.duplicates_dropped;
      sn.resil_acks += g.resil_acks_sent;
    };
    if (s.node) {
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        add_group(s.node->shard(sh)->stats());
      }
      sn.xretries += s.node->stats().xretries;
    } else {
      add_group(s.member->stats());
    }
    if (tracer_) sn.timer_fires += tracer_->timer_fires(i);
  }
  sn.steal_ticks = steal_ticks();
  sn.proc_cpu_ns = process_cpu_ns();
  sn.gen_cpu_ns = thread_cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  sn.wall_ns = mono_ns();
  return sn;
}

bool Bench::drained() {
  for (auto& s : st_) {
    if (s->outstanding.load(std::memory_order_acquire) != 0) return false;
  }
  // Every issued message is delivered in its stream at every station.
  std::array<std::uint64_t, kShards> expect = issued_x_to_;
  for (auto& s : st_) {
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      expect[sh] += s->next_counter[sh];
    }
  }
  for (auto& s : st_) {
    std::lock_guard lock(s->rt.mutex());
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      if (s->streams[sh].delivered != expect[sh]) return false;
    }
  }
  return true;
}

bool Bench::check(std::string* why) {
  std::array<std::unique_lock<std::mutex>, kStations> locks;
  for (unsigned i = 0; i < kStations; ++i) {
    locks[i] = std::unique_lock(st_[i]->rt.mutex());
  }
  if (faulted_) {
    *why = "a member reported a group failure";
    return false;
  }
  for (auto& r : st_) {
    if (r->violations != 0) {
      *why = "station " + std::to_string(r->idx) + ": " + r->first_violation +
             " (" + std::to_string(r->violations) + " violations)";
      return false;
    }
  }
  // Identical delivery order: every member's digest agrees at every
  // checkpoint both reached, per shard.
  for (std::uint32_t sh = 0; sh < kShards; ++sh) {
    for (unsigned i = 1; i < kStations; ++i) {
      const auto& a = st_[0]->streams[sh].checkpoints;
      const auto& b = st_[i]->streams[sh].checkpoints;
      const std::size_t n = std::min(a.size(), b.size());
      if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n),
                      b.begin())) {
        *why = "delivery order differs in shard " + std::to_string(sh);
        return false;
      }
    }
  }
  // No gaps: every send that completed ok was delivered everywhere, and
  // each cross-shard message exactly in its addressed shards.
  for (auto& snd : st_) {
    for (auto& r : st_) {
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        if (r->streams[sh].next[snd->idx] < snd->ok_to[sh]) {
          *why = "station " + std::to_string(r->idx) + " missed sends of " +
                 std::to_string(snd->idx) + " in shard " + std::to_string(sh);
          return false;
        }
      }
      const auto& seen = r->xseen[snd->idx];
      for (const auto& [counter, mask] : snd->ok_x) {
        if (counter >= seen.size() || seen[counter] != mask) {
          *why = "cross-shard message not delivered exactly once in its shards";
          return false;
        }
      }
    }
  }
  return true;
}

RepResult Bench::run() {
  RepResult res;
  const double calib_ms = calibration_ms();
  if (calib_ms <= 0) {
    std::fprintf(stderr, "%s rep %u: calibration failed\n", w_.name,
                 cfg_.rep);
    return res;
  }
  const std::int64_t t_setup = mono_ns();
  if (!build_and_form()) {
    std::fprintf(stderr, "%s rep %u: group formation failed\n", w_.name,
                 cfg_.rep);
    return res;
  }
  const double setup_s = static_cast<double>(mono_ns() - t_setup) / 1e9;

  // The generator's timed waits must end on time: in a prototype that slept
  // to each open-loop arrival, the default 50 us timer slack doubled
  // open1k's p50. Loop threads were created before this and keep the
  // default.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (tracer_) tracer_->mark_generator_thread();

  const auto secs = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  generate(mono_ns() + secs(kWarmupS));
  const Snapshot a = snapshot();
  recording_.store(true, std::memory_order_seq_cst);
  if (tracer_) tracer_->set_recording(true);
  generate(a.wall_ns + secs(cfg_.window_s));
  recording_.store(false, std::memory_order_seq_cst);
  if (tracer_) tracer_->set_recording(false);
  const Snapshot b = snapshot();

  const std::int64_t drain_until = mono_ns() + secs(kDrainS);
  while (!drained() && mono_ns() < drain_until) ::usleep(1000);

  std::string why;
  res.correct = check(&why);
  if (!res.correct) {
    std::fprintf(stderr, "%s rep %u: CHECK FAILED: %s\n", w_.name, cfg_.rep,
                 why.c_str());
  }

  // Merge per-station results (callbacks are quiet: the window is closed
  // and check() held every mutex).
  LogHistogram send_lat, xsend_lat, deliver_lat;
  std::uint64_t ok = 0, ok_x = 0, failed = 0, pending = 0;
  for (auto& s : st_) {
    std::lock_guard lock(s->rt.mutex());
    send_lat.merge(s->send_lat);
    xsend_lat.merge(s->xsend_lat);
    deliver_lat.merge(s->deliver_lat);
    ok += s->window_ok;
    ok_x += s->window_ok_x;
    failed += s->failed;
    pending += static_cast<std::uint64_t>(std::max(0, s->outstanding.load()));
    res.attempted += s->issued;
  }
  res.failed = failed + pending;
  const double wall_s = static_cast<double>(b.wall_ns - a.wall_ns) / 1e9;
  const double msgs = static_cast<double>(std::max<std::uint64_t>(ok, 1));
  const auto us = [](double ns) { return ns / 1e3; };
  const auto ratio = [](std::uint64_t n, std::uint64_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);

  auto& m = res.metrics;
  // Times that host speed sets are reported at the reference speed (see
  // kReferenceCalibMs); the wall-clock values go under raw.<name>.
  const double speed = kReferenceCalibMs / calib_ms;
  const auto timed = [&m, speed](const std::string& name, double raw) {
    m["raw." + name] = raw;
    m[name] = raw * speed;
  };
  m["host.calib_ms"] = calib_ms;
  timed("setup_s", setup_s);
  // A closed loop's rate is set by CPU speed, an open loop's by its
  // schedule.
  const double rate = static_cast<double>(ok) / wall_s;
  m["raw.throughput_msg_s"] = rate;
  m["throughput_msg_s"] = w_.shape == Shape::open ? rate : rate / speed;
  timed("send_p50_us", us(send_lat.quantile(0.50)));
  timed("send_p90_us", us(send_lat.quantile(0.90)));
  timed("send_p99_us", us(send_lat.quantile(0.99)));
  timed("deliver_p50_us", us(deliver_lat.quantile(0.50)));
  timed("deliver_p90_us", us(deliver_lat.quantile(0.90)));
  timed("deliver_p99_us", us(deliver_lat.quantile(0.99)));
  if (w_.shape == Shape::shard) {
    timed("xsend_p50_us", us(xsend_lat.quantile(0.50)));
  }
  timed("cpu_us_per_msg",
        us(static_cast<double>(b.proc_cpu_ns - a.proc_cpu_ns - spin_ns_) /
           msgs));
  m["fail_ratio"] = ratio(res.failed, res.attempted);
  m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Counters from the public stats structs (both runs).
  const auto d = [&](std::uint64_t Snapshot::*f) { return b.*f - a.*f; };
  const double cpu_ticks =
      wall_s * static_cast<double>(::sysconf(_SC_CLK_TCK)) *
      static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  m["host.steal_ratio"] =
      static_cast<double>(d(&Snapshot::steal_ticks)) / std::max(cpu_ticks, 1.0);
  m["transport.datagrams_per_msg"] = ratio(d(&Snapshot::tx_datagrams), ok);
  m["transport.datagrams_per_syscall"] =
      ratio(d(&Snapshot::tx_datagrams), d(&Snapshot::tx_batches));
  m["transport.wakeups_per_msg"] = ratio(d(&Snapshot::wakeups), ok);
  m["transport.wake_spurious_ratio"] =
      ratio(d(&Snapshot::wake_spurious), d(&Snapshot::wakeups));
  m["transport.tx_soft_errors"] =
      static_cast<double>(d(&Snapshot::tx_soft_errors));
  m["transport.tx_dropped"] = static_cast<double>(d(&Snapshot::tx_dropped));
  m["transport.rx_truncated"] = static_cast<double>(d(&Snapshot::rx_truncated));
  m["transport.tx_backpressure_waits"] =
      static_cast<double>(d(&Snapshot::tx_backpressure_waits));
  std::array<double, kStations> busy{};
  std::int64_t loop_cpu = 0;
  for (unsigned i = 0; i < kStations; ++i) {
    const std::int64_t c = b.loop_cpu_ns[i] - a.loop_cpu_ns[i];
    loop_cpu += c;
    busy[i] = static_cast<double>(c) / 1e9 / wall_s;
  }
  m["transport.loop_busy.seq"] = busy[0];
  m["transport.loop_busy.member"] = (busy[1] + busy[2]) / 2.0;
  m["transport.loop_preempt_per_s"] =
      static_cast<double>(d(&Snapshot::loop_nvcsw)) / wall_s;
  m["transport.mu_wait_p50_us"] = us(mu_wait_.quantile(0.50));
  m["transport.mu_wait_p99_us"] = us(mu_wait_.quantile(0.99));
  m["flip.packets_per_msg"] =
      ratio(d(&Snapshot::flip_packets), d(&Snapshot::flip_messages));
  m["flip.bad_packets"] = static_cast<double>(d(&Snapshot::bad_packets));
  m["flip.reassembly_timeouts"] =
      static_cast<double>(d(&Snapshot::reassembly_timeouts));
  m["group.batch_k"] =
      ratio(d(&Snapshot::batch_messages), d(&Snapshot::batch_frames));
  m["group.history_stalls"] = static_cast<double>(d(&Snapshot::history_stalls));
  m["group.send_retries"] = static_cast<double>(d(&Snapshot::send_retries));
  m["group.nacks_per_kmsg"] = 1000.0 * ratio(d(&Snapshot::nacks), ok);
  m["group.retransmits_per_kmsg"] =
      1000.0 * ratio(d(&Snapshot::retransmits), ok);
  m["group.duplicates_dropped"] = static_cast<double>(d(&Snapshot::duplicates));
  m["group.resil_acks_per_msg"] = ratio(d(&Snapshot::resil_acks), ok);
  m["group.xretries"] = static_cast<double>(d(&Snapshot::xretries));
  m["group.xshare"] = ratio(ok_x, ok);
  m["group.xsend_p50_us"] = us(xsend_lat.quantile(0.50));
  m["common.pool_miss_ratio"] =
      ratio(d(&Snapshot::pool_misses),
            d(&Snapshot::pool_hits) + d(&Snapshot::pool_misses));
  m["loadgen.late_p50_us"] = us(late_.quantile(0.50));
  m["loadgen.late_p99_us"] = us(late_.quantile(0.99));
  m["loadgen.busy"] =
      static_cast<double>(b.gen_cpu_ns - a.gen_cpu_ns - spin_ns_) / 1e9 /
      wall_s;

  // A p99 needs at least ten samples beyond it; a late generator means
  // the open loop did not offer its schedule.
  for (const LogHistogram* h : {&send_lat, &deliver_lat}) {
    if (h->count() < 1000) res.valid = false;
  }
  if (w_.shape == Shape::open && m["loadgen.late_p99_us"] > kMaxLateP99Us) {
    res.valid = false;
  }
  if (m["host.steal_ratio"] > kMaxStealRatio) res.valid = false;
  if (!res.valid) {
    std::fprintf(stderr,
                 "%s rep %u: invalid (send samples %llu, deliver samples %llu, "
                 "generator late p99 %.1f us, host steal %.3f)\n",
                 w_.name, cfg_.rep,
                 static_cast<unsigned long long>(send_lat.count()),
                 static_cast<unsigned long long>(deliver_lat.count()),
                 m["loadgen.late_p99_us"], m["host.steal_ratio"]);
  }

  if (tracer_) {
    const auto per = [](std::int64_t ns, std::uint64_t n) {
      return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
    };
    // Spans cover one sampling period in kSampleEvery; scale sums up.
    constexpr double sampled = Tracer::kSampleEvery;
    const SpanTotals tx = tracer_->totals(SpanKind::tx);
    const SpanTotals rx = tracer_->totals(SpanKind::rx);
    const SpanTotals send = tracer_->totals(SpanKind::send);
    const SpanTotals task = tracer_->totals(SpanKind::task);
    LogHistogram wire, task_wait;
    std::vector<Buffer> samples;
    for (unsigned i = 0; i < kStations; ++i) {
      std::lock_guard lock(st_[i]->rt.mutex());
      Tracer::StationState& ts = tracer_->station(i);
      wire.merge(ts.wire);
      task_wait.merge(ts.task_wait);
      for (Buffer& f : ts.samples) samples.push_back(std::move(f));
    }
    m["transport.tx_call_ns"] = per(tx.total_ns, tx.count);
    m["transport.wire_p50_us"] = us(wire.quantile(0.50));
    m["transport.wire_p99_us"] = us(wire.quantile(0.99));
    m["transport.io_self_us_per_msg"] =
        us((static_cast<double>(loop_cpu) -
            sampled * static_cast<double>(tracer_->loop_self_ns())) /
           msgs);
    m["flip.rx_self_us"] = us(sampled * static_cast<double>(rx.self_ns) / msgs);
    m["group.send_call_us"] = us(per(send.self_ns, send.count));
    m["group.task_us"] = us(per(task.self_ns, task.count));
    m["group.task_wait_p50_us"] = us(task_wait.quantile(0.50));
    m["group.timer_fires_per_s"] =
        static_cast<double>(d(&Snapshot::timer_fires)) / wall_s;
    const ReplayCost rc = replay_codecs(samples);
    m["flip.encode_ns_per_frame"] = rc.flip_encode_ns;
    m["flip.decode_ns_per_frame"] = rc.flip_decode_ns;
    // FLIP codec CPU per message: one encode per packet sent, one decode
    // per datagram received (every datagram sent on loopback arrives).
    m["flip.codec_us_per_msg"] =
        us((static_cast<double>(d(&Snapshot::flip_packets)) *
                rc.flip_encode_ns +
            static_cast<double>(d(&Snapshot::tx_datagrams)) *
                rc.flip_decode_ns) /
           msgs);
    m["group.encode_ns_per_msg"] = rc.group_encode_ns;
    m["group.decode_ns_per_msg"] = rc.group_decode_ns;
    if (!cfg_.trace_dir.empty()) {
      const std::string path = cfg_.trace_dir + "/" + w_.name + "-rep" +
                               std::to_string(cfg_.rep) + ".spans.jsonl";
      if (!tracer_->write_spans(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }
  return res;
}

}  // namespace

RepResult run_repetition(const RepConfig& cfg) {
  Bench bench(cfg);
  return bench.run();
}

}  // namespace live
