// Machine-speed reference for the benchmark's timings.
//
// The benchmark is meant to run on shared machines whose speed drifts by
// tens of per cent within seconds (frequency changes, other tenants on the
// same cores). The reference kernel is built only from the benchmark's own
// code: no change to the program can move it, while a drift in machine speed
// moves it and the program alike. A SpeedProbe samples it around and, every
// kProbeIntervalMs, inside each pass; main.cpp scales that pass's host
// times by kReferenceKernelMs / (median sample), i.e. it reports host time
// at the speed where the kernel takes kReferenceKernelMs.
#pragma once

#include <chrono>
#include <vector>

namespace e2e {

/// Kernel time that defines the reference speed.
inline constexpr double kReferenceKernelMs = 1.0;
inline constexpr double kProbeIntervalMs = 100.0;

/// Host milliseconds one run of the reference kernel takes now.
[[nodiscard]] double reference_kernel_ms();

class SpeedProbe {
 public:
  /// A workload that keeps `threads` threads busy is sampled on as many
  /// threads at once, so contention between its threads and from other
  /// tenants on those cores shows in the samples.
  void set_threads(unsigned threads) { threads_ = threads; }
  /// Runs the kernel once per thread and records the mean time.
  void sample();
  /// sample() if kProbeIntervalMs have passed since the last sample.
  void maybe_sample();
  /// kReferenceKernelMs / the median sample (1 without samples).
  [[nodiscard]] double scale() const;
  /// Host time spent sampling so far.
  [[nodiscard]] double overhead_ms() const { return overhead_ms_; }

 private:
  unsigned threads_ = 1;
  std::vector<double> samples_;
  double overhead_ms_ = 0.0;
  std::chrono::steady_clock::time_point last_{};
};

}  // namespace e2e
