// Timing decorators for the co-estimation backends, and the layer clock they
// feed.
//
// The simulation master reaches every pricing layer through the one
// core::ComponentEstimator seam. Each decorator here wraps one built-in
// backend, forwards every virtual of its role unchanged, and adds the host
// time of each forwarded call to a per-layer clock. They are registered in
// core::estimator_registry() under "timed.<built-in name>" and selected
// through CoEstimatorConfig::estimators, so a traced run measures each layer
// from outside without any change to the program itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/coestimator_config.hpp"

namespace e2e {

/// One bucket of decorated host time. The *Prepare buckets collect
/// ComponentEstimator::prepare(); every other bucket is time spent inside a
/// run.
enum class Layer : std::size_t {
  kIss,             // sw.iss: begin_run, cost, replay
  kSwPrepare,       // sw.iss: prepare (SW compile)
  kHwGateCost,      // hw.gate: begin_run, cost, reset, run_separate steps
  kHwGateEnqueue,   // hw.gate: enqueue
  kHwGateResync,    // hw.gate: resync_if_dirty
  kHwGateFlush,     // hw.gate: flush() and every FlushJob::work it returns
  kHwPrepare,       // every HW backend: prepare (HW synthesis, worker spawn)
  kHwAnalytical,    // hw.analytical: every call but prepare
  kRemoteEnqueue,   // hw.gate.remote proxy: enqueue
  kRemoteFlush,     // hw.gate.remote proxy: flush() and its jobs
  kRemoteOther,     // hw.gate.remote proxy: every other call but prepare
  kIcache,          // cache.icache: begin_run, access, access_core
  kCoherence,       // cache.icache: data_access (MSI model)
  kBus,             // bus.arbiter / bus.noc: begin_run, submit, advance
  kResourcePrepare,  // cache and bus backends: prepare
  kCount
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] constexpr bool is_prepare(Layer l) {
  return l == Layer::kSwPrepare || l == Layer::kHwPrepare ||
         l == Layer::kResourcePrepare;
}

/// Process-wide decorated time and call counts, summed over all threads.
struct LayerTotals {
  std::array<double, kLayerCount> ms{};
  std::array<std::uint64_t, kLayerCount> calls{};

  [[nodiscard]] double at(Layer l) const {
    return ms[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t calls_at(Layer l) const {
    return calls[static_cast<std::size_t>(l)];
  }
  /// Decorated time inside runs (every bucket but the prepare ones).
  [[nodiscard]] double run_ms() const;
  /// Decorated time inside prepare().
  [[nodiscard]] double prepare_ms() const;

  LayerTotals& operator+=(const LayerTotals& o);
  [[nodiscard]] LayerTotals operator-(const LayerTotals& o) const;
};

/// Snapshot of the layer clock. Differences of two snapshots attribute the
/// decorated time spent between them, on every thread.
[[nodiscard]] LayerTotals layer_clock();

/// Warm-cache counters of the decorated backends, published when each
/// backend is destroyed (so they cover its whole life since prepare()).
struct WarmTotals {
  std::uint64_t iss_block_hits = 0;
  std::uint64_t iss_block_fills = 0;
  std::uint64_t rcache_hits = 0;
  std::uint64_t rcache_fills = 0;

  [[nodiscard]] WarmTotals operator-(const WarmTotals& o) const;
  WarmTotals& operator+=(const WarmTotals& o);
};
[[nodiscard]] WarmTotals warm_totals();

/// Registers the "timed.*" decorators (idempotent).
void register_timed_backends();

/// An EstimatorSelection naming the decorator of every built-in role
/// backend (sw.iss, hw.gate, cache.icache, bus.arbiter, bus.noc). With
/// hw_remote the master appends ".remote" to the hw_gate name, which
/// selects the decorator of the hw.gate.remote proxy.
[[nodiscard]] socpower::core::EstimatorSelection timed_selection();

/// Name of the hw.analytical decorator (for estimators.hw_gate).
inline constexpr const char* kTimedAnalytical = "timed.hw.analytical";

}  // namespace e2e
