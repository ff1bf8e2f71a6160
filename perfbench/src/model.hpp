// The benchmark's inputs as pure functions of the seed, so the checks can
// recompute every value the program should have stored or returned.
//
// Collection nodes carry 64 u64 metrics. Three nodes in four run the
// benchmark-owned "perfnode" plugin: metric 0 is the sample sequence, a
// seeded block of counters advances on every sample, and the remaining
// metrics are gauges that change every 5-40 samples — so a pull usually
// ships a small delta. Every fourth node runs the built-in "synthetic"
// plugin, which rewrites all 64 metrics (value = seq + index), so its pulls
// ship full chunks.
//
// The history dataset is the bench_query shape: 64 nodes x 16 metrics,
// one row per node every 100 ms, value = tick * 64 + node + metric.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

constexpr std::size_t kNodeMetrics = 64;
/// Sampling and collection interval. One second leaves each stage hundreds
/// of milliseconds of slack (see tree.hpp), so a host that stalls a thread
/// for a few hundred milliseconds does not lose samples.
constexpr DurationNs kSampleInterval = kNsPerSec;

enum class NodeKind : std::uint8_t { kPerfNode, kSynthetic };

inline NodeKind KindOf(std::uint32_t node) {
  return node % 4 == 3 ? NodeKind::kSynthetic : NodeKind::kPerfNode;
}

inline const char* PluginOf(NodeKind kind) {
  return kind == NodeKind::kSynthetic ? "synthetic" : "perfnode";
}

inline std::string InstanceName(std::uint32_t node) {
  return "n" + std::to_string(node) + "/" + PluginOf(KindOf(node));
}

/// Node id from an instance name built by InstanceName ("n<id>/...").
inline std::uint32_t NodeOfInstance(const std::string& instance) {
  std::uint32_t v = 0;
  for (std::size_t i = 1; i < instance.size() && instance[i] != '/'; ++i) {
    v = v * 10 + static_cast<std::uint32_t>(instance[i] - '0');
  }
  return v;
}

/// Seeded shape of one perfnode node.
struct PerfNodeShape {
  std::uint32_t block_start = 1;  ///< first counter metric
  std::uint32_t block_len = 8;    ///< counters advancing every sample

  PerfNodeShape(std::uint64_t seed, std::uint32_t node) {
    block_len = 4 + static_cast<std::uint32_t>(Mix(seed, node, 1) % 13);
    block_start = 1 + static_cast<std::uint32_t>(
                          Mix(seed, node, 2) % (kNodeMetrics - block_len));
  }
  bool counter(std::size_t i) const {
    return i >= block_start && i < block_start + block_len;
  }
};

constexpr std::uint64_t kValueMask = (1ull << 40) - 1;  // exact as double

/// Gauge epoch of metric @p i at sample @p seq; the gauge's value changes
/// exactly when its epoch does.
inline std::uint64_t GaugeEpoch(std::uint64_t seed, std::uint32_t node,
                                std::size_t i, std::uint64_t seq) {
  const std::uint64_t period = 5 + Mix(seed, node, i, 3) % 36;
  const std::uint64_t phase = Mix(seed, node, i, 4) % period;
  return (seq + phase) / period;
}

/// Value of metric @p i on @p node at sample @p seq (seq >= 1).
inline std::uint64_t NodeValue(std::uint64_t seed, std::uint32_t node,
                               const PerfNodeShape& shape, std::size_t i,
                               std::uint64_t seq) {
  if (KindOf(node) == NodeKind::kSynthetic) return seq + i;
  if (i == 0) return seq;
  if (shape.counter(i)) {
    const std::uint64_t base = Mix(seed, node, i, 5) & kValueMask;
    const std::uint64_t step = 1 + Mix(seed, node, i, 6) % 1000;
    return base + seq * step;
  }
  return Mix(seed, node, i, GaugeEpoch(seed, node, i, seq) + 7) & kValueMask;
}

// --- history dataset --------------------------------------------------------

constexpr std::size_t kHistNodes = 64;
constexpr std::size_t kHistMetrics = 16;
constexpr std::size_t kHistTicks = 15625;  // 64 x 15625 = 1M rows
constexpr DurationNs kHistTick = 100 * kNsPerMs;

inline std::uint64_t HistValue(std::uint64_t tick, std::uint64_t node,
                               std::uint64_t metric) {
  return tick * kHistNodes + node + metric;
}

}  // namespace perfbench
