// bench_live_group: the real group protocol (GroupMember / Node ->
// FlipStack -> UdpRuntime) over loopback UDP, measured end to end and per
// layer. Three protocol stations run in one process, each on its own
// UdpRuntime, driven by one generator thread.
//
//   bench_live_group [--workload NAME] [--seed N] [--seconds S]
//                    [--trace] [--trace-dir DIR] [--out FILE]
//
// Each (workload, repetition) runs in a fresh child process
// (/proc/self/exe --child ...): form the group(s), warm up, measure one
// window, drain, check delivery order and completeness. A run is 10
// repetitions with windows of S / 10 seconds. The parent prints
// `<workload> <metric> <value> <unit>` lines with the median over the
// repetitions, and writes them as JSON to --out. Times that host speed sets
// (setup, latencies, CPU per message, closed-loop rates) are scaled to a
// reference speed, measured by timing fixed work in each repetition; the
// wall-clock values are reported as raw.<name>.
//
// A repetition that did not measure the program (too few samples, a late
// open-loop generator, a contended host) is invalid: it is left out of the
// medians and run again, up to a fifth as many extra repetitions. A run left
// with fewer than half its repetitions valid is itself invalid.
//
// --trace makes it 6 repetitions, alternating untraced and traced ones. The
// traced ones put TimedDevice / TimedExecutor between each runtime and its
// stack and give the per-layer metrics; end-to-end metrics always come from
// untraced repetitions. Exit status is 0 when every check passed.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "live_trace.hpp"
#include "workload.hpp"

namespace {

using live::RepResult;
using live::Workload;

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
  bool traced_only;
};

// Every metric the benchmark reports; README.md defines each one.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true, false},
    {"throughput_msg_s", "msg/s", true, false},
    {"send_p50_us", "us", true, false},
    {"send_p90_us", "us", true, false},
    {"send_p99_us", "us", true, false},
    {"deliver_p50_us", "us", true, false},
    {"deliver_p90_us", "us", true, false},
    {"deliver_p99_us", "us", true, false},
    {"xsend_p50_us", "us", true, false},
    {"cpu_us_per_msg", "us", true, false},
    {"fail_ratio", "ratio", true, false},
    {"peak_rss_mb", "MiB", true, false},
    {"raw.setup_s", "s", true, false},
    {"raw.throughput_msg_s", "msg/s", true, false},
    {"raw.send_p50_us", "us", true, false},
    {"raw.send_p90_us", "us", true, false},
    {"raw.send_p99_us", "us", true, false},
    {"raw.deliver_p50_us", "us", true, false},
    {"raw.deliver_p90_us", "us", true, false},
    {"raw.deliver_p99_us", "us", true, false},
    {"raw.xsend_p50_us", "us", true, false},
    {"raw.cpu_us_per_msg", "us", true, false},
    {"host.calib_ms", "ms", true, false},
    {"host.steal_ratio", "ratio", true, false},
    {"transport.tx_call_ns", "ns", false, true},
    {"transport.datagrams_per_msg", "1/msg", false, false},
    {"transport.datagrams_per_syscall", "1/syscall", false, false},
    {"transport.wakeups_per_msg", "1/msg", false, false},
    {"transport.wake_spurious_ratio", "ratio", false, false},
    {"transport.wire_p50_us", "us", false, true},
    {"transport.wire_p99_us", "us", false, true},
    {"transport.io_self_us_per_msg", "us", false, true},
    {"transport.mu_wait_p50_us", "us", false, false},
    {"transport.mu_wait_p99_us", "us", false, false},
    {"transport.loop_busy.seq", "ratio", false, false},
    {"transport.loop_busy.member", "ratio", false, false},
    {"transport.loop_preempt_per_s", "1/s", false, false},
    {"transport.tx_soft_errors", "count", false, false},
    {"transport.tx_dropped", "count", false, false},
    {"transport.rx_truncated", "count", false, false},
    {"transport.tx_backpressure_waits", "count", false, false},
    {"flip.rx_self_us", "us", false, true},
    {"flip.encode_ns_per_frame", "ns", false, true},
    {"flip.decode_ns_per_frame", "ns", false, true},
    {"flip.codec_us_per_msg", "us", false, true},
    {"flip.packets_per_msg", "1/msg", false, false},
    {"flip.bad_packets", "count", false, false},
    {"flip.reassembly_timeouts", "count", false, false},
    {"group.send_call_us", "us", false, true},
    {"group.task_us", "us", false, true},
    {"group.task_wait_p50_us", "us", false, true},
    {"group.timer_fires_per_s", "1/s", false, true},
    {"group.encode_ns_per_msg", "ns", false, true},
    {"group.decode_ns_per_msg", "ns", false, true},
    {"group.batch_k", "1/frame", false, false},
    {"group.history_stalls", "count", false, false},
    {"group.send_retries", "count", false, false},
    {"group.nacks_per_kmsg", "1/kmsg", false, false},
    {"group.retransmits_per_kmsg", "1/kmsg", false, false},
    {"group.duplicates_dropped", "count", false, false},
    {"group.resil_acks_per_msg", "1/msg", false, false},
    {"group.xretries", "count", false, false},
    {"group.xshare", "ratio", false, false},
    {"group.xsend_p50_us", "us", false, false},
    {"common.pool_miss_ratio", "ratio", false, false},
    {"loadgen.late_p50_us", "us", false, false},
    {"loadgen.late_p99_us", "us", false, false},
    {"loadgen.busy", "ratio", false, false},
    {"trace.overhead", "ratio", false, true},
};

/// Repetitions per run; a traced run alternates untraced and traced ones.
constexpr unsigned kReps = 10;
constexpr unsigned kTracedReps = 6;
/// At most reps / this many extra repetitions replace invalid ones, which
/// bounds a run's time: 12 untraced repetitions take about 35 s.
constexpr unsigned kExtraRepsDivisor = 5;

struct Options {
  std::string workload;  // empty: all
  std::uint64_t seed{1};
  double seconds{20.0};  // measured seconds per workload, over all reps
  bool trace{false};
  std::string trace_dir;
  std::string out;
  // Child mode.
  bool child{false};
  bool traced{false};
  unsigned rep{0};
  double window_s{2.0};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_live_group: %s\n"
               "usage: bench_live_group [--workload NAME] [--seed N] "
               "[--seconds S] [--trace] [--trace-dir DIR] "
               "[--out FILE]\n",
               why);
  std::exit(2);
}

double parse_number(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v >= 0)) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number(value(), "--seed"));
    } else if (a == "--seconds") {
      o.seconds = parse_number(value(), "--seconds");
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--trace-dir") {
      o.trace_dir = value();
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--child") {
      o.child = true;
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--rep") {
      o.rep = static_cast<unsigned>(parse_number(value(), "--rep"));
    } else if (a == "--window") {
      o.window_s = parse_number(value(), "--window");
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!o.workload.empty() && live::find_workload(o.workload) == nullptr) {
    usage(("unknown workload " + o.workload).c_str());
  }
  return o;
}

// --- child ------------------------------------------------------------------

int run_child(const Options& o) {
  live::RepConfig cfg;
  cfg.workload = live::find_workload(o.workload);
  if (cfg.workload == nullptr) usage("--child needs --workload");
  cfg.seed = o.seed;
  cfg.rep = o.rep;
  cfg.window_s = o.window_s;
  cfg.traced = o.traced;
  cfg.trace_dir = o.trace_dir;
  const RepResult r = live::run_repetition(cfg);
  std::printf("correct %d\nvalid %d\nattempted %llu\nfailed %llu\n",
              r.correct ? 1 : 0, r.valid ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [name, v] : r.metrics) {
    std::printf("m %s %.17g\n", name.c_str(), v);
  }
  return std::fflush(stdout) == 0 && r.correct ? 0 : 1;
}

// --- parent -----------------------------------------------------------------

/// Run one repetition in a fresh child process and parse its report.
RepResult spawn_rep(const Options& o, const Workload& w, unsigned rep,
                    bool traced, double window_s) {
  RepResult res;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return res;
  std::vector<std::string> args = {"bench_live_group", "--child",
                                   "--workload", w.name,
                                   "--seed", std::to_string(o.seed),
                                   "--rep", std::to_string(rep),
                                   "--window", std::to_string(window_s)};
  if (traced) args.emplace_back("--traced");
  if (traced && !o.trace_dir.empty()) {
    args.emplace_back("--trace-dir");
    args.push_back(o.trace_dir);
  }
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return res;
  if (pid == 0) {
    // A repetition never outlives the parent that would collect it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  // Formation, warm-up, window, drain and replay take a few seconds past
  // the window; a child that hangs is killed well inside any time budget.
  const std::int64_t deadline =
      live::mono_ns() + static_cast<std::int64_t>((window_s + 30.0) * 1e9);
  std::string text;
  bool killed = false;
  while (true) {
    const std::int64_t left_ms = (deadline - live::mono_ns()) / 1'000'000;
    if (left_ms <= 0) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int wait_ms = static_cast<int>(std::min<std::int64_t>(left_ms, 1000));
    if (::poll(&p, 1, wait_ms) <= 0) {
      continue;
    }
    char buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (killed) {
    std::fprintf(stderr, "%s rep %u: timed out, killed\n", w.name, rep);
    return res;
  }
  std::size_t pos = 0;
  bool have_correct = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    char key[128];
    double v = 0;
    if (std::sscanf(line.c_str(), "m %127s %lf", key, &v) == 2) {
      res.metrics[key] = v;
    } else if (std::sscanf(line.c_str(), "%127s %lf", key, &v) == 2) {
      const std::string k = key;
      if (k == "correct") {
        res.correct = v != 0;
        have_correct = true;
      }
      if (k == "valid") res.valid = v != 0;
      if (k == "attempted") res.attempted = static_cast<std::uint64_t>(v);
      if (k == "failed") res.failed = static_cast<std::uint64_t>(v);
    }
  }
  if (!have_correct) res.correct = false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) res.correct = false;
  return res;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct WorkloadResult {
  const Workload* w{nullptr};
  bool correct{true};
  bool valid{true};  // every median is over valid repetitions only
  unsigned invalid_reps{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::pair<const MetricDef*, std::vector<double>>> values;
  std::vector<std::pair<const MetricDef*, double>> medians;
};

unsigned reps_per_run(const Options& o) {
  return o.trace ? kTracedReps : kReps;
}

WorkloadResult run_workload(const Options& o, const Workload& w) {
  WorkloadResult wr;
  wr.w = &w;
  const unsigned reps = reps_per_run(o);
  const std::size_t want_traced = o.trace ? reps / 2 : 0;
  const std::size_t want_plain = reps - want_traced;
  const double window_s = o.seconds / reps;
  // Valid repetitions of each kind, and the invalid ones in case too few
  // valid ones arrive.
  std::vector<RepResult> plain, traced, plain_invalid, traced_invalid;
  for (unsigned k = 0; k < reps + reps / kExtraRepsDivisor; ++k) {
    const bool need_plain = plain.size() < want_plain;
    const bool need_traced = traced.size() < want_traced;
    if (!need_plain && !need_traced) break;
    const bool t = need_traced && (!need_plain || k % 2 == 1);
    RepResult r = spawn_rep(o, w, k, t, window_s);
    wr.correct = wr.correct && r.correct;
    wr.attempted += r.attempted;
    wr.failed += r.failed;
    if (!r.valid) ++wr.invalid_reps;
    auto& kind = t ? (r.valid ? traced : traced_invalid)
                   : (r.valid ? plain : plain_invalid);
    kind.push_back(std::move(r));
  }
  // Out of extra repetitions: half the wanted number of valid ones still
  // make a median; with fewer, report over all of them, flagged invalid.
  for (auto [good, bad, want] : {std::tuple(&plain, &plain_invalid, want_plain),
                                 std::tuple(&traced, &traced_invalid,
                                            want_traced)}) {
    if (good->size() * 2 >= want) continue;
    wr.valid = false;
    for (RepResult& r : *bad) good->push_back(std::move(r));
  }
  const auto collect = [](const std::vector<RepResult>& results,
                          const char* name) {
    std::vector<double> v;
    for (const RepResult& r : results) {
      const auto it = r.metrics.find(name);
      if (it != r.metrics.end()) v.push_back(it->second);
    }
    return v;
  };
  for (const MetricDef& m : kMetrics) {
    std::vector<double> v;
    if (std::string(m.name) == "trace.overhead") {
      const double base = median(collect(plain, "throughput_msg_s"));
      const double with = median(collect(traced, "throughput_msg_s"));
      if (!o.trace || base <= 0) continue;
      v.push_back(1.0 - with / base);  // share of throughput tracing costs
    } else if (m.end_to_end) {
      v = collect(plain, m.name);
    } else if (o.trace) {
      v = collect(traced, m.name);
    } else if (!m.traced_only) {
      v = collect(plain, m.name);
    }
    if (v.empty()) continue;
    wr.medians.emplace_back(&m, median(v));
    wr.values.emplace_back(&m, std::move(v));
  }
  return wr;
}

void write_json(const Options& o, const std::vector<WorkloadResult>& all) {
  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return;
  }
  std::fprintf(f,
               "{\"benchmark\": \"bench_live_group\", \"seed\": %llu, "
               "\"reps\": %u, \"window_s\": %.6g, \"trace\": %s,\n"
               " \"workloads\": {",
               static_cast<unsigned long long>(o.seed), reps_per_run(o),
               o.seconds / reps_per_run(o), o.trace ? "true" : "false");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const WorkloadResult& wr = all[i];
    std::fprintf(f,
                 "%s\n  \"%s\": {\"correct\": %s, \"valid\": %s, "
                 "\"invalid_reps\": %u, \"attempted\": %llu, "
                 "\"failed\": %llu,\n   \"metrics\": {",
                 i == 0 ? "" : ",", wr.w->name, wr.correct ? "true" : "false",
                 wr.valid ? "true" : "false", wr.invalid_reps,
                 static_cast<unsigned long long>(wr.attempted),
                 static_cast<unsigned long long>(wr.failed));
    for (std::size_t j = 0; j < wr.values.size(); ++j) {
      const auto& [def, vals] = wr.values[j];
      std::fprintf(f,
                   "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                   "\"layer\": %s, \"reps\": [",
                   j == 0 ? "" : ",", def->name, wr.medians[j].second,
                   def->unit, def->end_to_end ? "false" : "true");
      for (std::size_t k = 0; k < vals.size(); ++k) {
        std::fprintf(f, "%s%.17g", k == 0 ? "" : ", ", vals[k]);
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
  }
}

int run_parent(const Options& o) {
  std::vector<WorkloadResult> all;
  bool ok = true;
  for (const Workload& w : live::kWorkloads) {
    if (!o.workload.empty() && o.workload != w.name) continue;
    all.push_back(run_workload(o, w));
    const WorkloadResult& wr = all.back();
    for (const auto& [def, v] : wr.medians) {
      std::printf("%s %s %.6g %s\n", w.name, def->name, v, def->unit);
    }
    std::printf("%s checks %s; %u invalid repetitions%s\n", w.name,
                wr.correct ? "passed" : "FAILED", wr.invalid_reps,
                wr.valid ? " left out" : ", too many: run invalid");
    std::fflush(stdout);
    ok = ok && wr.correct;
  }
  if (!o.out.empty()) write_json(o, all);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  return o.child ? run_child(o) : run_parent(o);
}
