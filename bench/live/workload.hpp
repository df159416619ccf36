// Workload definitions and the per-repetition runner of bench_live_group.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "group/config.hpp"

namespace live {

inline constexpr unsigned kStations = 3;
inline constexpr unsigned kShards = 4;

enum class Shape : std::uint8_t {
  closed,  // each sender keeps `outstanding` sends in flight
  open,    // seeded Poisson arrivals at `rate` msg/s over the senders
  shard,   // 3 Nodes x 4 shards; 90 % send_to_shard, 10 % send_multi
};

struct Workload {
  const char* name;
  Shape shape;
  amoeba::group::Method method;
  std::uint32_t resilience;
  std::size_t payload;      // bytes, including the 32-byte check header
  int max_outstanding;      // GroupConfig::max_outstanding
  int outstanding;          // closed loop: sends each sender keeps in flight
  double rate;              // open loop: total arrivals per second
};

/// The four workloads; why each exists is in README.md.
inline constexpr Workload kWorkloads[] = {
    {"pb64", Shape::closed, amoeba::group::Method::pb, 0, 64, 16, 16, 0},
    {"bb8k_r1", Shape::closed, amoeba::group::Method::bb, 1, 8000, 1, 1, 0},
    {"open1k", Shape::open, amoeba::group::Method::dynamic, 0, 1024, 1, 0,
     10'000},
    {"shard4_x10", Shape::shard, amoeba::group::Method::pb, 0, 64, 1, 2, 0},
};

const Workload* find_workload(const std::string& name);

/// What one repetition (one child process) reports.
struct RepResult {
  bool correct{false};
  bool valid{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> metrics;  // by metric name
};

struct RepConfig {
  const Workload* workload{nullptr};
  std::uint64_t seed{1};
  unsigned rep{0};
  double window_s{2.0};
  bool traced{false};
  std::string trace_dir;  // empty: no span dump
};

/// Form the group(s), warm up, measure one window, drain, check, and tear
/// down. Runs in a fresh child process per repetition.
RepResult run_repetition(const RepConfig& cfg);

}  // namespace live
