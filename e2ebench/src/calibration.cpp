#include "calibration.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace e2e {

namespace {

// A toy discrete-event loop with the instruction mix of a simulator: a
// priority queue of timed events, hashed per-process state, data-dependent
// branches and scattered loads and stores into a small memory.
std::uint64_t kernel_once() {
  using Event = std::pair<std::uint32_t, std::uint32_t>;  // (time, process)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::uint32_t> state;
  std::vector<std::uint32_t> memory(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  for (std::uint32_t p = 0; p < 64; ++p) queue.push({p, p});
  for (int step = 0; step < 15000; ++step) {
    const auto [t, p] = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& s = state[p ^ static_cast<std::uint32_t>(x & 511)];
    s += static_cast<std::uint32_t>(x);
    if (s & 1)
      memory[(s >> 3) & 4095] ^= p;
    else
      acc += memory[x & 4095];
    queue.push({t + 1 + static_cast<std::uint32_t>(x & 15), p});
  }
  return acc + state.size();
}

}  // namespace

double reference_kernel_ms() {
  // Keeps the kernel's result observable; probes run it on several threads.
  static std::atomic<std::uint64_t> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  sink.fetch_add(kernel_once(), std::memory_order_relaxed);
  return ms_since(t0);
}

void SpeedProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> ms(threads_, 0.0);
  std::vector<std::thread> helpers;
  for (unsigned i = 1; i < threads_; ++i)
    helpers.emplace_back([&ms, i] { ms[i] = reference_kernel_ms(); });
  ms[0] = reference_kernel_ms();
  for (std::thread& t : helpers) t.join();
  samples_.push_back(std::accumulate(ms.begin(), ms.end(), 0.0) /
                     static_cast<double>(threads_));
  last_ = std::chrono::steady_clock::now();
  overhead_ms_ += std::chrono::duration<double, std::milli>(last_ - t0).count();
}

void SpeedProbe::maybe_sample() {
  if (ms_since(last_) >= kProbeIntervalMs) sample();
}

double SpeedProbe::scale() const {
  if (samples_.empty()) return 1.0;
  std::vector<double> v = samples_;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return kReferenceKernelMs / v[v.size() / 2];
}

}  // namespace e2e
