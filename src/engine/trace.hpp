#pragma once
/// \file trace.hpp
/// Per-superstep telemetry: the structured record the SuperstepEngine emits
/// each round, the in-memory trace collecting them, and the snapshot helper
/// that measures one superstep without disturbing enclosing instrumentation.
///
/// Cross-system graph-processing studies compare *per-superstep* metrics —
/// frontier size, bytes on wire, phase decomposition per round — not just
/// end-to-end walls.  The trace makes every engine-driven analytic emit that
/// unit of comparison for free.
///
/// Aggregation model: records are pushed by **rank 0 only**.  The
/// `active`/`touched`/`residual` fields are global (every rank computes the
/// same value from the engine's fused allreduce); the CommStats and
/// PhaseBreakdown deltas are rank 0's local view of the round.  On this
/// simulated-MPI runtime ranks run symmetric collective schedules, so rank
/// 0's counters are representative; a real-MPI port would gather all ranks.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "parcomm/comm.hpp"
#include "parcomm/comm_stats.hpp"
#include "parcomm/phase_timer.hpp"
#include "util/parallel_for.hpp"

namespace hpcgraph::engine {

/// Per-round frontier-layer telemetry: what run_frontier (or a bespoke
/// loop adopting RoundTrace) decided and why.  Empty rep = the round ran
/// no frontier machinery (value kernels).
struct FrontierRoundInfo {
  const char* rep = "";   ///< representation ("queue"/"bitmap"; "" = n/a)
  const char* dir = "";   ///< expansion direction ("push"/"pull")
  double density = 0.0;   ///< active_global / n_global of the expanded set
  std::uint64_t degree = 0;  ///< global frontier-degree sum (crossover input)
  bool crossover = false;    ///< rep or dir changed entering this round
};

/// One bulk-synchronous round of one engine run.
struct SuperstepRecord {
  std::uint64_t index = 0;      ///< trace-global, monotone (assigned by push)
  std::string analytic;         ///< engine run label ("pagerank", "sssp", ...)
  std::uint64_t superstep = 0;  ///< 0-based round within the run
  std::uint64_t active = 0;     ///< global frontier size / changed vertices
  std::uint64_t touched = 0;    ///< global vertices processed this round
  double residual = 0.0;        ///< global residual (kernel-defined, e.g. L1)
  bool converged = false;       ///< this round triggered the stop condition
  std::string wire;             ///< ghost wire format used ("dense"/"sparse"/
                                ///< "queue" for alltoallv frontier kernels)
  std::uint64_t exchange_us = 0;  ///< rank-0 wall µs inside the round's
                                  ///< ghost exchange
  parcomm::CommStats comm;      ///< rank-0 counter delta over the round
  parcomm::PhaseBreakdown phase;  ///< rank-0 comp/comm/idle/pack delta

  // Frontier-layer telemetry (run_frontier rounds and bespoke loops that
  // report it; empty frontier_rep marks a round without one).
  std::string frontier_rep;       ///< "queue" / "bitmap"; "" when n/a
  std::string frontier_dir;       ///< "push" / "pull"
  double density = 0.0;           ///< global frontier density this round
  std::uint64_t degree = 0;       ///< global frontier-degree sum
  bool crossover = false;         ///< representation/direction flip

  // Intra-rank sweep-imbalance telemetry (rank-0 pool, delta over the
  // round's scheduled loops).  Zero when the round ran no scheduled loops.
  std::string schedule;               ///< loop schedule ("static"/...; ""
                                      ///< when the round had none)
  std::uint32_t sweep_threads = 0;    ///< pool width behind the sweeps
  std::uint64_t sweep_busy_max_us = 0;    ///< Σ per-loop max thread busy µs
  std::uint64_t sweep_busy_total_us = 0;  ///< Σ per-loop total busy µs
  std::uint64_t sweep_edges_max = 0;      ///< Σ per-loop max thread weight
  std::uint64_t sweep_edges_total = 0;    ///< Σ per-loop total weight

  /// Max/mean work per thread across the round's scheduled sweeps
  /// (1.0 == perfectly balanced; 0 when no weighted sweeps ran).
  double sweep_imbalance() const {
    if (sweep_edges_total == 0 || sweep_threads == 0) return 0.0;
    const double mean = static_cast<double>(sweep_edges_total) /
                        static_cast<double>(sweep_threads);
    return static_cast<double>(sweep_edges_max) / mean;
  }

  /// Copies a round's frontier-layer decision into the frontier_* fields.
  /// Shared by the engine and RoundTrace; a default-constructed info (empty
  /// rep) leaves the record marked frontier-less.
  void set_frontier(const FrontierRoundInfo& f) {
    frontier_rep = f.rep;
    frontier_dir = f.dir;
    density = f.density;
    degree = f.degree;
    crossover = f.crossover;
  }

  /// Folds a pool's SweepStats delta (plus the schedule it ran under) into
  /// the sweep_* fields.  Shared by the engine and RoundTrace.
  void set_sweep(const SweepStats& d, unsigned nthreads, Schedule sched) {
    if (d.loops == 0) return;
    schedule = schedule_label(sched);
    sweep_threads = nthreads;
    sweep_busy_max_us = static_cast<std::uint64_t>(d.busy_max * 1e6);
    sweep_busy_total_us = static_cast<std::uint64_t>(d.busy_total * 1e6);
    sweep_edges_max = d.work_max;
    sweep_edges_total = d.work_total;
  }
};

/// Append-only in-memory trace; serializable to JSON.  Not thread-safe by
/// design: the engine pushes from rank 0 only.
class SuperstepTrace {
 public:
  /// Appends `rec`, overwriting rec.index with the trace-global counter so
  /// indices stay monotone across multiple engine runs (k-core stages, a
  /// WCC seed run + coloring run, back-to-back analytics in one session).
  void push(SuperstepRecord rec) {
    rec.index = records_.size();
    records_.push_back(std::move(rec));
  }

  const std::vector<SuperstepRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Serialize the whole trace as a single JSON object
  /// `{"schema": ..., "supersteps": [...]}`.
  std::string to_json() const;

  /// Write to_json() to `path`; throws via HG_CHECK on I/O failure.
  void write_json(const std::string& path) const;

 private:
  std::vector<SuperstepRecord> records_;
};

/// Captures CommStats + PhaseTimer at construction and fills a record with
/// the deltas at finish().  Snapshot-based, so an enclosing measurement
/// (bench region, another recorder) keeps seeing the full run.
class StepRecorder {
 public:
  explicit StepRecorder(parcomm::Communicator& comm)
      : comm_(comm),
        stats0_(comm.stats()),
        phase0_(comm.phase_timer().snapshot()) {}

  /// Fill the comm/phase delta fields of `rec` for the region since
  /// construction.
  void finish(SuperstepRecord& rec) const {
    rec.comm = comm_.stats() - stats0_;
    rec.phase = comm_.phase_timer().snapshot() - phase0_;
  }

 private:
  parcomm::Communicator& comm_;
  parcomm::CommStats stats0_;
  parcomm::PhaseBreakdown phase0_;
};

/// Telemetry-only engine adoption for analytics that keep bespoke loops
/// (the BFS variants, whose Algorithm-2 structure is its own reference):
/// bundles the rank-0 gate, the per-round StepRecorder and the record
/// assembly so a hand-rolled loop emits the same SuperstepRecord stream as
/// an engine-driven one.  Call begin() at the top of each round and end()
/// after the round's terminating allreduce.
class RoundTrace {
 public:
  /// \param pool   Optional: the rank's thread pool, for per-round sweep
  ///               imbalance deltas.  \param sched labels those sweeps.
  RoundTrace(SuperstepTrace* trace, parcomm::Communicator& comm,
             std::string analytic, ThreadPool* pool = nullptr,
             Schedule sched = Schedule::kStatic)
      : trace_(trace && comm.rank() == 0 ? trace : nullptr),
        comm_(comm),
        analytic_(std::move(analytic)),
        pool_(pool),
        sched_(sched) {}

  void begin() {
    if (!trace_) return;
    rec0_.emplace(comm_);
    if (pool_) sweep0_ = pool_->sweep_stats();
  }

  /// \param superstep     0-based round index within the run
  /// \param processed     global vertices processed this round (touched)
  /// \param next_active   global frontier/changed count after the round;
  ///                      zero marks the run converged
  /// \param wire          wire-format label for the round
  /// \param finfo         optional frontier-layer decision for the round
  void end(std::uint64_t superstep, std::uint64_t processed,
           std::uint64_t next_active, const char* wire,
           const FrontierRoundInfo& finfo = {}) {
    if (!trace_) return;
    SuperstepRecord rec;
    rec.analytic = analytic_;
    rec.superstep = superstep;
    rec.active = next_active;
    rec.touched = processed;
    rec.converged = next_active == 0;
    rec.wire = wire;
    rec.set_frontier(finfo);
    rec0_->finish(rec);
    if (pool_)
      rec.set_sweep(pool_->sweep_stats() - sweep0_, pool_->num_threads(),
                    sched_);
    trace_->push(std::move(rec));
    rec0_.reset();
  }

 private:
  SuperstepTrace* trace_;
  parcomm::Communicator& comm_;
  std::string analytic_;
  ThreadPool* pool_;
  Schedule sched_;
  SweepStats sweep0_;
  std::optional<StepRecorder> rec0_;
};

}  // namespace hpcgraph::engine
