#pragma once
/// \file phase_timer.hpp
/// Per-rank computation / communication / idle time accounting — the
/// instrument behind Figure 3 of the paper.
///
/// The communicator attributes time inside collectives as follows:
///   * waiting at a barrier for other ranks  -> idle
///   * copying payload between rank buffers  -> comm
/// Everything else between reset() and snapshot() is computation.  This
/// matches the paper's decomposition: "the time that each task spends in
/// computation, the time that a task is idle waiting for updates from other
/// tasks, and the total time spent in communication."

#include "util/timer.hpp"

namespace hpcgraph::parcomm {

/// Canonical serialized field names for PhaseBreakdown, shared by every
/// emitter (SuperstepTrace JSON, the obs metrics registry, trace_report.py).
namespace phase_field {
inline constexpr const char* kComp = "comp_s";
inline constexpr const char* kComm = "comm_s";
inline constexpr const char* kIdle = "idle_s";
inline constexpr const char* kPack = "pack_s";
inline constexpr const char* kRoute = "route_s";
inline constexpr const char* kSweepBusyMax = "sweep_busy_max_s";
inline constexpr const char* kSweepBusyTotal = "sweep_busy_total_s";
inline constexpr const char* kTotal = "total_s";
}  // namespace phase_field

/// One rank's measured breakdown over a region.
struct PhaseBreakdown {
  double comp = 0;   ///< seconds in local computation
  double comm = 0;   ///< seconds moving payload
  double idle = 0;   ///< seconds waiting for other ranks
  double pack = 0;   ///< subset of comp: ghost-exchange pack/scatter staging
  double route = 0;  ///< subset of comp: frontier-layer send-queue builds
                     ///< (owner counts + Algorithm-3 sink pushes)
  double sweep_busy_max = 0;    ///< overlay: Σ per-loop max thread busy time
  double sweep_busy_total = 0;  ///< overlay: Σ per-loop total thread busy time
  double total = 0;  ///< wall seconds of the region

  double comp_ratio() const { return total > 0 ? comp / total : 0; }
  double comm_ratio() const { return total > 0 ? comm / total : 0; }
  double idle_ratio() const { return total > 0 ? idle / total : 0; }

  /// Difference of two snapshots of the *same running region*: the breakdown
  /// of what happened between them.  Lets per-superstep telemetry measure each
  /// round without reset()ing the timer out from under an enclosing
  /// measurement (bench regions snapshot the whole run).
  PhaseBreakdown operator-(const PhaseBreakdown& o) const {
    PhaseBreakdown d;
    d.comp = comp - o.comp;
    d.comm = comm - o.comm;
    d.idle = idle - o.idle;
    d.pack = pack - o.pack;
    d.route = route - o.route;
    d.sweep_busy_max = sweep_busy_max - o.sweep_busy_max;
    d.sweep_busy_total = sweep_busy_total - o.sweep_busy_total;
    d.total = total - o.total;
    if (d.comp < 0) d.comp = 0;  // clock noise at microsecond scale
    return d;
  }
};

/// Accumulates comm/idle inside the communicator; comp is derived.
class PhaseTimer {
 public:
  /// Start (or restart) a measured region.
  void reset() {
    comm_.reset();
    idle_.reset();
    pack_.reset();
    route_.reset();
    sweep_busy_max_.reset();
    sweep_busy_total_.reset();
    region_ = Timer{};
  }

  void add_comm(double s) { comm_.add(s); }
  void add_idle(double s) { idle_.add(s); }
  /// Ghost-exchange payload staging (pack/scatter).  Reported separately but
  /// still attributed to comp in the comp/comm/idle decomposition, since it
  /// is rank-local work that overlaps nothing.
  void add_pack(double s) { pack_.add(s); }
  /// Frontier-layer routing (owner-count pass + send-queue build inside
  /// engine::route_to_owners).  Like pack: rank-local work attributed to
  /// comp, reported separately so traces show what the queue cycle costs.
  void add_route(double s) { route_.add(s); }
  /// Intra-rank sweep imbalance overlay from the thread pool's SweepStats:
  /// busy_max is the sum over scheduled loops of the slowest thread's busy
  /// time (the critical path), busy_total the aggregate across threads.
  /// busy_max / (busy_total / nthreads) is the time-imbalance factor; the
  /// time already lands in comp, this just attributes its skew.
  void add_sweep(double busy_max, double busy_total) {
    sweep_busy_max_.add(busy_max);
    sweep_busy_total_.add(busy_total);
  }

  /// Breakdown of the region so far.
  PhaseBreakdown snapshot() const {
    PhaseBreakdown b;
    b.total = region_.elapsed();
    b.comm = comm_.total();
    b.idle = idle_.total();
    b.pack = pack_.total();
    b.route = route_.total();
    b.sweep_busy_max = sweep_busy_max_.total();
    b.sweep_busy_total = sweep_busy_total_.total();
    b.comp = b.total - b.comm - b.idle;
    if (b.comp < 0) b.comp = 0;  // clock noise at microsecond scale
    return b;
  }

 private:
  AccumTimer comm_;
  AccumTimer idle_;
  AccumTimer pack_;
  AccumTimer route_;
  AccumTimer sweep_busy_max_;
  AccumTimer sweep_busy_total_;
  Timer region_;
};

}  // namespace hpcgraph::parcomm
