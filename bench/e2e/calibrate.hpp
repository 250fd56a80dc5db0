#pragma once
/// \file calibrate.hpp
/// Host-speed calibration.  The benchmark shares its machine with other
/// tenants, whose memory traffic slows this host's random memory accesses
/// by 20% to 2.5x for minutes at a time, while plain arithmetic barely
/// moves: far more than the regressions the benchmark must catch.  So every
/// phase of a run is paired with a fixed synthetic kernel run between its
/// repetitions, and its times are reported as
///
///     corrected = wall x kReferenceSeconds / median calibration
///
/// i.e. the wall time the phase would have taken on the reference host.
/// The kernel uses no library code, so a change to the library moves the
/// wall time but not the calibration.  README.md gives the measured effect.

namespace hpcgraph::e2e {

/// Calibration time of the kernel on the reference host (4-vCPU Xeon VM,
/// 300 MiB shared L3) when quiet, at 4 threads.
inline constexpr double kReferenceSeconds = 0.07;

/// Wall seconds of a fixed kernel on `threads` fresh threads: random
/// gathers over a shared 32 MiB table (larger than the per-core caches, as
/// a graph's vertex arrays are), once in lockstep phases separated by
/// barriers, timed on the wall clock with thread start-up, and once
/// free-running, timed per thread and averaged.  Graph sweeps see both
/// costs: memory latency, and waiting on the slowest rank.
double calibrate(unsigned threads);

/// calibrate_arith() on the reference host when quiet.
inline constexpr double kArithReferenceSeconds = 0.075;

/// Wall seconds of a fixed single-threaded loop of 64-bit hashing.  Set-up
/// is bound by the generators' random-number arithmetic, which the memory
/// kernel does not track (it made set-up times noisier, not steadier).
double calibrate_arith();

}  // namespace hpcgraph::e2e
