// Instrumentation for the live group benchmark.
//
//   - LogHistogram: a fixed-size log-bucket latency histogram (64 linear
//     sub-buckets per power of two, so a read-back value is within 1/128 of
//     the recorded one). No allocation after construction, so recording
//     never moves the process's peak RSS.
//   - Tracer / Span: spans recorded around the calls into each layer during
//     a fixed duty cycle of sampling periods, with self time (duration minus
//     the time covered by child spans) accumulated per (kind, station) on
//     the recording thread, plus a bounded per-thread span log written as
//     JSON lines when the run ends.
//   - TimedDevice / TimedExecutor: interposers on the public
//     transport::Device / transport::Executor seam (the same seam
//     FaultDevice and JitterExecutor wrap). They add tx/rx/task/timer spans,
//     match transmitted frames to their receptions by a key over the frame
//     bytes (wire latency), time task post -> run, and sample frames for the
//     codec replay.
//
// Threading: a station's device and executor calls run with that station's
// UdpRuntime mutex held (the Device lock protocol), so everything the
// interposers keep per station is written under that mutex. Span totals are
// single-writer relaxed atomics, readable from any thread.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "transport/runtime.hpp"

namespace live {

using amoeba::Buffer;
using amoeba::BufView;
using amoeba::Duration;

/// CLOCK_MONOTONIC in ns (the clock UdpRuntime's steady_clock reads).
inline std::int64_t mono_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Timestamps of the traced path, in CLOCK_MONOTONIC nanoseconds. On x86
/// they come from the TSC, scaled by a calibration the Tracer takes at
/// construction. That is cheaper than clock_gettime, which matters because
/// the traced path reads the clock several times per message, mostly
/// under the runtime mutex the generator waits on.
class TraceClock {
 public:
  static void calibrate();
  static std::int64_t now() noexcept {
#if defined(__x86_64__)
    if (ns_per_tick_ > 0) {
      const auto dt = static_cast<double>(__builtin_ia32_rdtsc() - tsc0_);
      return ns0_ + static_cast<std::int64_t>(dt * ns_per_tick_);
    }
#endif
    return mono_ns();
  }

 private:
  static inline std::uint64_t tsc0_ = 0;
  static inline std::int64_t ns0_ = 0;
  static inline double ns_per_tick_ = 0;
};

/// Fixed-size log-bucket histogram of non-negative nanosecond values.
class LogHistogram {
 public:
  void record(std::int64_t ns) noexcept {
    ++buckets_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++count_;
  }
  void merge(const LogHistogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const noexcept { return count_; }
  /// Value in ns at quantile q (the ceil(q * n)-th smallest sample, read
  /// back as its bucket midpoint); 0 when empty.
  double quantile(double q) const noexcept;

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 40;  // clamps at ~36 minutes
  static constexpr std::size_t kBuckets =
      kSub + (kMaxExp - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (std::uint64_t{2} << kMaxExp) - 1;
    }
    const std::uint64_t top = v >> (e - kSubBits);  // in [kSub, 2 * kSub)
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub +
                                    (top - kSub));
  }
  static double midpoint(std::size_t i) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_{0};
};

enum class SpanKind : std::uint8_t {
  mu_wait,   // generator: acquiring UdpRuntime::mutex()
  send,      // generator: send_to_group / send_to_shard / send_multi
  tx,        // TimedDevice: Device::send_*
  rx,        // TimedDevice: receive handler (FLIP decode + group dispatch)
  task,      // TimedExecutor: posted task
  timer,     // TimedExecutor: timer callback
  deliver,   // benchmark delivery callback
  complete,  // benchmark send-completion callback
};
inline constexpr std::size_t kSpanKinds = 8;
inline constexpr unsigned kMaxStations = 3;
const char* span_name(SpanKind k) noexcept;

struct SpanTotals {
  std::uint64_t count{0};
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};
};

class ThreadLog;

/// Per-process span and frame-matching state of one traced repetition.
class Tracer {
 public:
  /// `log_capacity` bounds the span records each thread keeps for the
  /// JSON-lines dump; totals cover every sampled span regardless.
  explicit Tracer(std::size_t log_capacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer spans report to (null: spans are no-ops).
  static Tracer* active() noexcept {
    return g_active.load(std::memory_order_acquire);
  }
  static void install(Tracer* t) noexcept {
    g_active.store(t, std::memory_order_release);
  }

  /// Spans, wire matches, task waits and samples count only while set.
  bool recording() const noexcept {
    return recording_.load(std::memory_order_relaxed);
  }
  void set_recording(bool on) noexcept {
    recording_.store(on, std::memory_order_seq_cst);
  }
  /// Spans and frame matches are taken during one sampling period out of
  /// every kSampleEvery, so the instrumentation's cost under the runtime
  /// mutex (which the generator waits on) is an eighth of tracing every
  /// call. Per-call means and percentiles need no correction; per-message
  /// sums are multiplied by kSampleEvery.
  static constexpr std::int64_t kSamplePeriodNs = 1'000'000;
  static constexpr int kSampleEvery = 8;
  static bool in_sample(std::int64_t now) noexcept {
    return (now / kSamplePeriodNs) % kSampleEvery == 0;
  }
  bool sampling(std::int64_t now) const noexcept {
    return recording() && in_sample(now);
  }

  ThreadLog& thread_log();
  /// Marks the calling thread as the load generator (not a loop thread).
  void mark_generator_thread();

  // --- Frame matching (wire latency) ---------------------------------------
  /// Station `station` handed `frame` to its device. Caller holds that
  /// station's runtime mutex.
  void note_tx(unsigned station, const BufView& frame);
  /// Station `station`'s handler saw `frame` from station `src`. Caller
  /// holds `station`'s runtime mutex.
  void note_rx(unsigned station, unsigned src, const BufView& frame);

  // --- Per-station state, written under the station's runtime mutex ------
  struct StationState {
    LogHistogram wire;       // send_* call -> receiver handler entry
    LogHistogram task_wait;  // post -> run
    std::uint64_t tx_frames{0};
    std::vector<Buffer> samples;  // transmitted frames kept for replay
  };
  StationState& station(unsigned s) { return stations_.at(s); }
  std::uint64_t timer_fires(unsigned s) const {
    return timer_fires_.at(s).load(std::memory_order_relaxed);
  }
  void count_timer_fire(unsigned s) {
    timer_fires_.at(s).fetch_add(1, std::memory_order_relaxed);
  }

  // --- Results (read after the window) -------------------------------------
  SpanTotals totals(SpanKind k) const;
  SpanTotals totals(SpanKind k, unsigned station) const;
  /// Sum of span self time recorded on loop threads (everything but the
  /// generator): the time loop threads spent inside instrumented calls.
  std::int64_t loop_self_ns() const;
  /// Write every kept span as one JSON object per line. False on I/O error.
  bool write_spans(const std::string& path) const;

 private:
  struct WireSlot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::int64_t> t{0};
  };
  static constexpr std::size_t kWireSlots = 4096;
  static constexpr std::size_t kSampleCap = 1365;  // ~4096 over 3 stations
  static constexpr std::uint64_t kSampleStride = 97;

  static std::atomic<Tracer*> g_active;

  std::size_t log_capacity_;
  std::atomic<bool> recording_{false};
  std::array<StationState, kMaxStations> stations_;
  std::array<std::atomic<std::uint64_t>, kMaxStations> timer_fires_{};
  /// Per sending station: written only under that station's mutex, read
  /// lock-free by receivers (seqlock per slot).
  std::array<std::unique_ptr<std::array<WireSlot, kWireSlots>>, kMaxStations>
      wire_;
  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadLog>> threads_;
};

/// One recorded span, as dumped to the JSON-lines trace.
struct SpanRecord {
  SpanKind kind{SpanKind::send};
  std::uint8_t station{0};
  std::uint32_t thread{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t id{0};
  std::uint64_t parent{0};
};

/// Span state of one thread: the open-span stack, exact per-(station, kind)
/// totals, and the bounded record log.
class ThreadLog {
 public:
  ThreadLog(std::uint32_t index, std::size_t log_capacity);

  bool begin(SpanKind k, unsigned station, std::int64_t now) noexcept;
  void end(std::int64_t now) noexcept;

  SpanTotals totals(SpanKind k, unsigned station) const noexcept;
  std::int64_t self_ns() const noexcept;
  bool generator{false};
  const std::vector<SpanRecord>& records() const { return log_; }

 private:
  struct Frame {
    SpanKind kind{SpanKind::send};
    unsigned station{0};
    std::int64_t start{0};
    std::int64_t child{0};
    std::uint64_t id{0};
  };
  struct Totals {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> total_ns{0};
    std::atomic<std::int64_t> self_ns{0};
  };
  static constexpr int kMaxDepth = 16;

  std::uint32_t index_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_{0};
  std::uint64_t next_id_{1};
  std::array<std::array<Totals, kSpanKinds>, kMaxStations> totals_{};
  std::vector<SpanRecord> log_;
};

/// RAII span: a no-op unless a tracer is installed and sampling.
class Span {
 public:
  Span(SpanKind k, unsigned station) noexcept {
    Tracer* t = Tracer::active();
    if (t == nullptr || !t->recording()) return;
    const std::int64_t now = TraceClock::now();
    if (!Tracer::in_sample(now)) return;
    ThreadLog& log = t->thread_log();
    if (log.begin(k, station, now)) log_ = &log;
  }
  ~Span() {
    if (log_ != nullptr) log_->end(TraceClock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLog* log_{nullptr};
};

/// Device interposer: tx/rx spans, frame matching, frame sampling.
class TimedDevice final : public amoeba::transport::Device {
 public:
  TimedDevice(amoeba::transport::Device& inner, unsigned station,
              Tracer& tracer)
      : inner_(inner), station_(station), tracer_(tracer) {}
  TimedDevice(const TimedDevice&) = delete;
  TimedDevice& operator=(const TimedDevice&) = delete;

  amoeba::transport::StationId station() const override {
    return inner_.station();
  }
  std::size_t max_payload() const override { return inner_.max_payload(); }
  Duration tx_cost() const override { return inner_.tx_cost(); }
  void send_unicast(amoeba::transport::StationId dst, BufView payload,
                    std::size_t wire_bytes) override {
    Span s(SpanKind::tx, station_);
    tracer_.note_tx(station_, payload);
    inner_.send_unicast(dst, std::move(payload), wire_bytes);
  }
  void send_multicast(std::uint64_t key, BufView payload,
                      std::size_t wire_bytes) override {
    Span s(SpanKind::tx, station_);
    tracer_.note_tx(station_, payload);
    inner_.send_multicast(key, std::move(payload), wire_bytes);
  }
  void send_broadcast(BufView payload, std::size_t wire_bytes) override {
    Span s(SpanKind::tx, station_);
    tracer_.note_tx(station_, payload);
    inner_.send_broadcast(std::move(payload), wire_bytes);
  }
  void subscribe(std::uint64_t key) override { inner_.subscribe(key); }
  void unsubscribe(std::uint64_t key) override { inner_.unsubscribe(key); }
  void set_promiscuous(bool on) override { inner_.set_promiscuous(on); }
  void set_receive_handler(
      std::function<void(amoeba::transport::StationId, BufView)> fn) override;

 private:
  amoeba::transport::Device& inner_;
  unsigned station_;
  Tracer& tracer_;
};

/// Executor interposer: task/timer spans, post -> run wait, timer counts.
class TimedExecutor final : public amoeba::transport::Executor {
 public:
  TimedExecutor(amoeba::transport::Executor& inner, unsigned station,
                Tracer& tracer)
      : inner_(inner), station_(station), tracer_(tracer) {}
  TimedExecutor(const TimedExecutor&) = delete;
  TimedExecutor& operator=(const TimedExecutor&) = delete;

  amoeba::Time now() const override { return inner_.now(); }
  void post(Duration cost, std::function<void()> fn) override {
    inner_.post(cost, wrap_task(std::move(fn)));
  }
  void post_idle(std::function<void()> fn) override {
    inner_.post_idle(wrap_task(std::move(fn)));
  }
  void charge(Duration cost) override { inner_.charge(cost); }
  amoeba::transport::TimerId set_timer(Duration delay,
                                       std::function<void()> fn) override;
  void cancel_timer(amoeba::transport::TimerId id) override {
    inner_.cancel_timer(id);
  }
  const amoeba::sim::CostModel& costs() const override {
    return inner_.costs();
  }

 private:
  std::function<void()> wrap_task(std::function<void()> fn);

  amoeba::transport::Executor& inner_;
  unsigned station_;
  Tracer& tracer_;
};

/// Codec replay over sampled frames (ns per item; 0 when nothing sampled).
struct ReplayCost {
  double flip_encode_ns{0};
  double flip_decode_ns{0};
  double group_encode_ns{0};
  double group_decode_ns{0};
};
ReplayCost replay_codecs(const std::vector<Buffer>& frames);

}  // namespace live
