#include "live_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "flip/packet.hpp"
#include "group/message.hpp"

namespace live {

namespace {

/// Keeps the codec replay's results observable so no call is elided.
volatile std::uint64_t g_replay_sink = 0;

thread_local ThreadLog* t_log = nullptr;
thread_local const Tracer* t_owner = nullptr;

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Key of one FLIP frame: its length, the routing/reassembly fields at the
/// front (addresses, msg_id, lengths, offset) and the CRC trailer. Unique
/// per fragment per sending stack; fan-out copies share it.
std::uint64_t frame_key(const BufView& f) noexcept {
  const std::uint8_t* p = f.data();
  const std::size_t n = f.size();
  std::uint64_t h = mix64(n);
  const std::size_t head = std::min<std::size_t>(n, 40);
  for (std::size_t i = 0; i + 8 <= head; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = mix64(h ^ w);
  }
  if (n >= 4) {
    std::uint32_t crc = 0;
    std::memcpy(&crc, p + n - 4, 4);
    h = mix64(h ^ crc);
  }
  return h;
}

template <typename T>
void bump(std::atomic<T>& a, T by) noexcept {
  a.store(a.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

}  // namespace

void TraceClock::calibrate() {
#if defined(__x86_64__)
  const std::int64_t ns_a = mono_ns();
  const std::uint64_t tsc_a = __builtin_ia32_rdtsc();
  const timespec pause{0, 20'000'000};
  ::nanosleep(&pause, nullptr);
  const std::int64_t ns_b = mono_ns();
  const std::uint64_t tsc_b = __builtin_ia32_rdtsc();
  if (tsc_b > tsc_a && ns_b > ns_a) {
    tsc0_ = tsc_a;
    ns0_ = ns_a;
    ns_per_tick_ = static_cast<double>(ns_b - ns_a) /
                   static_cast<double>(tsc_b - tsc_a);
  }
#endif
}

double LogHistogram::midpoint(std::size_t i) noexcept {
  if (i < kSub) return static_cast<double>(i);
  const std::size_t k = i - kSub;
  const std::size_t shift = k / kSub;
  const std::uint64_t top = k % kSub + kSub;
  const std::uint64_t lo = top << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
}

double LogHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

const char* span_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::mu_wait: return "gen.mu_wait";
    case SpanKind::send: return "gen.send";
    case SpanKind::tx: return "dev.tx";
    case SpanKind::rx: return "dev.rx";
    case SpanKind::task: return "exec.task";
    case SpanKind::timer: return "exec.timer";
    case SpanKind::deliver: return "app.deliver";
    case SpanKind::complete: return "app.complete";
  }
  return "?";
}

// --- ThreadLog ---------------------------------------------------------------

ThreadLog::ThreadLog(std::uint32_t index, std::size_t log_capacity)
    : index_(index) {
  log_.reserve(log_capacity);
}

bool ThreadLog::begin(SpanKind k, unsigned station, std::int64_t now) noexcept {
  if (depth_ >= kMaxDepth || station >= kMaxStations) return false;
  stack_[static_cast<std::size_t>(depth_++)] =
      Frame{k, station, now, 0, (std::uint64_t{index_} << 40) | next_id_++};
  return true;
}

void ThreadLog::end(std::int64_t now) noexcept {
  const Frame f = stack_[static_cast<std::size_t>(--depth_)];
  const std::int64_t dur = now - f.start;
  std::uint64_t parent = 0;
  if (depth_ > 0) {
    Frame& up = stack_[static_cast<std::size_t>(depth_ - 1)];
    up.child += dur;
    parent = up.id;
  }
  Totals& t = totals_[f.station][static_cast<std::size_t>(f.kind)];
  bump(t.count, std::uint64_t{1});
  bump(t.total_ns, dur);
  bump(t.self_ns, dur - f.child);
  if (log_.size() < log_.capacity()) {
    log_.push_back(SpanRecord{f.kind, static_cast<std::uint8_t>(f.station),
                              index_, f.start, now, f.id, parent});
  }
}

SpanTotals ThreadLog::totals(SpanKind k, unsigned station) const noexcept {
  const Totals& t = totals_[station][static_cast<std::size_t>(k)];
  return SpanTotals{t.count.load(std::memory_order_relaxed),
                    t.total_ns.load(std::memory_order_relaxed),
                    t.self_ns.load(std::memory_order_relaxed)};
}

std::int64_t ThreadLog::self_ns() const noexcept {
  std::int64_t sum = 0;
  for (const auto& per_station : totals_) {
    for (const Totals& t : per_station) {
      sum += t.self_ns.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

// --- Tracer ------------------------------------------------------------------

std::atomic<Tracer*> Tracer::g_active{nullptr};

Tracer::Tracer(std::size_t log_capacity) : log_capacity_(log_capacity) {
  TraceClock::calibrate();
  for (auto& w : wire_) {
    w = std::make_unique<std::array<WireSlot, kWireSlots>>();
  }
  for (auto& st : stations_) st.samples.reserve(kSampleCap);
}

Tracer::~Tracer() {
  if (active() == this) install(nullptr);
}

ThreadLog& Tracer::thread_log() {
  if (t_owner != this || t_log == nullptr) {
    std::lock_guard lock(threads_mu_);
    threads_.push_back(std::make_unique<ThreadLog>(
        static_cast<std::uint32_t>(threads_.size()), log_capacity_));
    t_log = threads_.back().get();
    t_owner = this;
  }
  return *t_log;
}

void Tracer::mark_generator_thread() { thread_log().generator = true; }

void Tracer::note_tx(unsigned s, const BufView& frame) {
  if (!recording() || s >= kMaxStations) return;
  StationState& st = stations_[s];
  if (st.tx_frames++ % kSampleStride == 0 && st.samples.size() < kSampleCap) {
    st.samples.emplace_back(frame.begin(), frame.end());
  }
  const std::int64_t now = TraceClock::now();
  if (!in_sample(now)) return;
  const std::uint64_t k = frame_key(frame);
  WireSlot& slot = (*wire_[s])[k & (kWireSlots - 1)];
  // Seqlock writer; writers of one station are serialized by its mutex.
  const std::uint32_t q = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.key.store(k, std::memory_order_relaxed);
  slot.t.store(now, std::memory_order_relaxed);
  slot.seq.store(q + 2, std::memory_order_release);
}

void Tracer::note_rx(unsigned s, unsigned src, const BufView& frame) {
  if (!recording() || s >= kMaxStations || src >= kMaxStations || src == s) {
    return;
  }
  // A frame noted at the end of a sampling period may arrive in the next.
  const std::int64_t now = TraceClock::now();
  if (!in_sample(now) && !in_sample(now - kSamplePeriodNs)) return;
  const std::uint64_t k = frame_key(frame);
  const WireSlot& slot = (*wire_[src])[k & (kWireSlots - 1)];
  const std::uint32_t q1 = slot.seq.load(std::memory_order_acquire);
  const std::uint64_t key = slot.key.load(std::memory_order_relaxed);
  const std::int64_t t = slot.t.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint32_t q2 = slot.seq.load(std::memory_order_relaxed);
  // A torn read or an overwritten slot is simply not matched.
  if ((q1 & 1u) != 0 || q1 != q2 || key != k) return;
  stations_[s].wire.record(now - t);
}

SpanTotals Tracer::totals(SpanKind k) const {
  SpanTotals sum;
  for (unsigned s = 0; s < kMaxStations; ++s) {
    const SpanTotals t = totals(k, s);
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

SpanTotals Tracer::totals(SpanKind k, unsigned station) const {
  std::lock_guard lock(threads_mu_);
  SpanTotals sum;
  for (const auto& t : threads_) {
    const SpanTotals one = t->totals(k, station);
    sum.count += one.count;
    sum.total_ns += one.total_ns;
    sum.self_ns += one.self_ns;
  }
  return sum;
}

std::int64_t Tracer::loop_self_ns() const {
  std::lock_guard lock(threads_mu_);
  std::int64_t sum = 0;
  for (const auto& t : threads_) {
    if (!t->generator) sum += t->self_ns();
  }
  return sum;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(threads_mu_);
  for (const auto& t : threads_) {
    for (const SpanRecord& r : t->records()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"station\":%u,\"thread\":%u,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"id\":%llu,"
                   "\"parent\":%llu}\n",
                   span_name(r.kind), unsigned{r.station}, r.thread,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent));
    }
  }
  return std::fclose(f) == 0;
}

// --- Interposers -------------------------------------------------------------

void TimedDevice::set_receive_handler(
    std::function<void(amoeba::transport::StationId, BufView)> fn) {
  inner_.set_receive_handler(
      [this, fn = std::move(fn)](amoeba::transport::StationId src, BufView p) {
        tracer_.note_rx(station_, src, p);
        Span s(SpanKind::rx, station_);
        fn(src, std::move(p));
      });
}

amoeba::transport::TimerId TimedExecutor::set_timer(
    Duration delay, std::function<void()> fn) {
  return inner_.set_timer(delay, [this, fn = std::move(fn)] {
    if (tracer_.recording()) tracer_.count_timer_fire(station_);
    Span s(SpanKind::timer, station_);
    fn();
  });
}

std::function<void()> TimedExecutor::wrap_task(std::function<void()> fn) {
  const std::int64_t posted = TraceClock::now();
  if (!tracer_.sampling(posted)) return fn;
  return [this, posted, fn = std::move(fn)] {
    tracer_.station(station_).task_wait.record(TraceClock::now() - posted);
    Span s(SpanKind::task, station_);
    fn();
  };
}

// --- Codec replay ------------------------------------------------------------

ReplayCost replay_codecs(const std::vector<Buffer>& frames) {
  using amoeba::flip::DecodedPacket;
  std::vector<BufView> views;
  std::vector<DecodedPacket> packets;
  std::vector<BufView> messages;  // single-fragment group wire messages
  for (const Buffer& f : frames) {
    BufView v = BufView::copy_of(f);
    std::optional<DecodedPacket> d = amoeba::flip::decode_packet(v);
    if (!d.has_value()) continue;
    if (d->header.frag_offset == 0 &&
        d->header.total_len == d->fragment.size() &&
        amoeba::group::decode_wire(d->fragment).has_value()) {
      messages.push_back(d->fragment);
    }
    views.push_back(std::move(v));
    packets.push_back(std::move(*d));
  }
  ReplayCost cost;
  std::uint64_t sink = 0;
  // Repeat the sample until ~200k items went through each codec, so the
  // per-item mean is not a handful of cold calls.
  const auto passes = [](std::size_t n) {
    return n == 0 ? std::size_t{0} : std::max<std::size_t>(1, 200'000 / n);
  };
  const auto per_item = [](std::int64_t ns, std::size_t items) {
    return items == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(items);
  };

  std::size_t reps = passes(packets.size());
  std::int64_t t0 = mono_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const DecodedPacket& p : packets) {
      const BufView out =
          amoeba::flip::encode_packet(p.header, p.fragment.span());
      sink += out.size() + out[out.size() - 1];
    }
  }
  cost.flip_encode_ns = per_item(mono_ns() - t0, reps * packets.size());
  t0 = mono_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const BufView& v : views) {
      const auto d = amoeba::flip::decode_packet(v);
      sink += d.has_value() ? d->fragment.size() : 1;
    }
  }
  cost.flip_decode_ns = per_item(mono_ns() - t0, reps * views.size());

  std::vector<amoeba::group::WireMsg> wires;
  for (const BufView& m : messages) {
    wires.push_back(*amoeba::group::decode_wire(m));
  }
  reps = passes(messages.size());
  t0 = mono_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const BufView& m : messages) {
      const auto w = amoeba::group::decode_wire(m);
      sink += w.has_value() ? w->payload.size() : 1;
    }
  }
  cost.group_decode_ns = per_item(mono_ns() - t0, reps * messages.size());
  t0 = mono_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const amoeba::group::WireMsg& w : wires) {
      const BufView out = amoeba::group::encode_wire(w);
      sink += out.size();
    }
  }
  cost.group_encode_ns = per_item(mono_ns() - t0, reps * wires.size());

  g_replay_sink = sink;
  return cost;
}

}  // namespace live
