#pragma once
/// \file superstep.hpp
/// The bulk-synchronous superstep engine — one outer loop for every
/// analytic.
///
/// The paper's central observation is that its six analytics fall into two
/// computational classes: *PageRank-like* dense value propagation over
/// boundary exchanges, and *BFS-like* frontier expansion over per-owner
/// queues.  Before this engine existed, each analytic hand-rolled the same
/// iterate → mark-changed → ghost-exchange → allreduce-convergence skeleton;
/// now a kernel supplies only the per-round computation and the engine owns
/// the loop: pool fallback, GhostExchange lifecycle, the `retain_queues`
/// ablation fallback, the fused convergence allreduce, the iteration cutoff
/// and per-superstep telemetry.  Any loop-level optimization lands here
/// once and every analytic inherits it.
///
/// ## ValueKernel (PageRank-like)
///
/// Required members:
///   * `using Value = T;`                    exchanged per-vertex value type
///   * `std::span<Value> values()`           length >= g.n_total(); ghost
///                                           slots are refreshed by the
///                                           engine's exchange each round
///   * `dgraph::Adjacency adjacency()`       boundary rule for the engine's
///                                           own GhostExchange (not needed if
///                                           `ghosts()` is provided)
///   * `void compute(StepContext&)`          local sweep; mark changed
///                                           vertices on ctx.gx and report
///                                           ctx.active/touched/residual
///   * `bool converged(uint64 active_global, double residual_global)`
///                                           stop decision from the fused
///                                           allreduce (same inputs on every
///                                           rank -> same decision)
/// Optional members (detected with `if constexpr (requires ...)`):
///   * `dgraph::GhostExchange* ghosts()`     reuse a caller-owned plan (built
///                                           once across k-core stages)
///   * `dgraph::GhostMode ghost_mode()`      wire policy (default kDense)
///   * `bool retain_queues()`                false = rebuild-ablation: each
///                                           round exchanges through a fresh
///                                           dense queue (exchange_fresh)
///   * `std::vector<lvid_t>* changed_ghosts()`  receive ghost slots whose
///                                           value flipped (k-core)
///   * `void init(StepContext&)`             pre-loop seeding; if the kernel
///                                           also defines
///                                           `static constexpr bool kSeedExchange = true`
///                                           the engine runs one exchange
///                                           after it (WCC pushes re-colored
///                                           giant members before round 0)
///   * `void apply(StepContext&)`            post-exchange step (PageRank's
///                                           gather+delta, k-core's ghost
///                                           decrement application)
///
/// Round structure (collective order is part of the engine's contract —
/// ported analytics reproduce their pre-engine exchange/allreduce sequence
/// exactly, which is what keeps outputs bit-for-bit identical):
///
///     compute -> exchange -> [apply] -> fused allreduce -> record -> stop?
///
/// ## FrontierKernel (BFS-like)
///
/// Required members:
///   * `std::uint64_t active_local()`        current frontier size
///   * `void step(FrontierStepContext&)`     expand + route (through the
///                                           frontier layer's
///                                           route_to_owners) + apply +
///                                           swap; report ctx.touched/
///                                           residual/degree_local
/// Optional members:
///   * `engine::FrontierPolicy frontier_policy()`  crossover rules (order
///                                           sensitivity, pull support,
///                                           alpha/beta/density thresholds);
///                                           default: push-only hybrid
///   * `engine::DistFrontier* frontier()`    expose the active set so the
///                                           engine converts its
///                                           representation to each round's
///                                           decision before step()
///   * `std::uint64_t degree_local()`        pre-loop local frontier-degree
///                                           sum (round 0's crossover input)
///   * `dgraph::GhostExchange* ghosts()`     caller-owned plan for kernels
///                                           that publish dense frontiers
///
/// The engine sizes the frontier globally before round 0 (empty frontier =>
/// zero supersteps) and after every step; it stops when the global frontier
/// drains or the superstep cutoff hits.  Each round it resolves the
/// frontier representation and push/pull direction through
/// `frontier_decide` — a pure function of the globally-allreduced frontier
/// size and degree sum, evaluated identically on every rank — and hands the
/// decision to the kernel in the FrontierStepContext.
///
/// ## Convergence
///
/// One fused allreduce per round carries {active, touched, degree,
/// residual}: the convergence signal, the crossover input, and the
/// telemetry in a single collective.  The combiner adds element-wise in
/// rank order — the same FP addition order as a scalar allreduce_sum — so
/// PageRank's L1 residual is bitwise the value the old hand-rolled
/// `allreduce_sum(delta_local)` produced, and the frontier-degree sum that
/// drives the crossover is bit-identical across runs and rank counts.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dgraph/dist_graph.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/frontier.hpp"
#include "engine/trace.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/parallel_for.hpp"
#include "util/timer.hpp"

namespace hpcgraph::engine {

/// Per-round view the engine hands to kernel hooks.
struct StepContext {
  const dgraph::DistGraph& g;
  parcomm::Communicator& comm;
  ThreadPool& pool;                    ///< resolved pool (never null)
  dgraph::GhostExchange* gx = nullptr; ///< exchange plan (null for frontier
                                       ///< kernels that route their own)
  std::uint64_t superstep = 0;         ///< 0-based round within this run

  /// Loop-scheduling strategy resolved by the engine for this run (the
  /// config's schedule when the kernel declares `kScheduleAware`, else
  /// kStatic).  Kernels pass it to the pool's scheduled loops.
  Schedule schedule = Schedule::kStatic;

  // Kernel -> engine outputs, reset before each round and folded into the
  // fused allreduce after it.
  std::uint64_t active_local = 0;   ///< changed / newly-frontier vertices
  std::uint64_t touched_local = 0;  ///< vertices this rank processed
  double residual_local = 0.0;      ///< kernel-defined residual contribution
};

/// StepContext plus the frontier layer's per-round view: the engine's
/// representation/direction decision (in), the allreduced globals it was
/// made from (in), and the next frontier's degree sum (out — fused into
/// the convergence allreduce to drive the *next* round's decision).
struct FrontierStepContext : StepContext {
  FrontierRep rep = FrontierRep::kQueue;  ///< representation this round
  FrontierDir dir = FrontierDir::kPush;   ///< expansion direction
  bool crossover = false;  ///< rep or dir changed entering this round
  std::uint64_t active_global = 0;  ///< global size of the frontier expanded
  std::uint64_t degree_global = 0;  ///< its global frontier-degree sum
  std::uint64_t degree_local = 0;   ///< OUT: next frontier's local degree sum
};

/// What a finished engine run reports back to the analytic.
struct EngineResult {
  std::uint64_t supersteps = 0;   ///< rounds executed (== old loop counters)
  bool converged = false;         ///< kernel stop (vs. superstep cutoff)
  std::uint64_t last_active = 0;  ///< global active count of the final round
  double last_residual = 0.0;     ///< global residual of the final round
};

/// Engine-level knobs; analytics fill this from their CommonOptions.
struct EngineConfig {
  ThreadPool* pool = nullptr;     ///< worker pool (null = inline 1-thread)
  std::uint64_t max_supersteps = UINT64_MAX;  ///< iteration cutoff
  SuperstepTrace* trace = nullptr;  ///< telemetry sink (rank 0 pushes)
  const char* name = "";            ///< analytic label in trace records
  /// Loop schedule for the kernel's parallel sweeps and the exchange's
  /// pack/scatter loops.  Takes effect only for kernels that declare
  /// `static constexpr bool kScheduleAware = true`; everything else keeps
  /// kStatic.  Must be set identically on every rank: the schedule can
  /// change which sweep variant a kernel runs, and mismatched variants would
  /// diverge the collective sequence.
  Schedule schedule = Schedule::kStatic;
  /// Frontier representation override for run_frontier kernels
  /// (`--frontier`): kQueue/kBitmap force one representation, kHybrid
  /// (default) lets the engine cross over on the global frontier-degree
  /// sum.  Must be set identically on every rank.
  FrontierMode frontier = FrontierMode::kHybrid;
};

template <class K>
concept ValueKernel =
    requires(K k, StepContext& ctx, std::uint64_t a, double r) {
      typename K::Value;
      { k.values() } -> std::convertible_to<std::span<typename K::Value>>;
      k.compute(ctx);
      { k.converged(a, r) } -> std::convertible_to<bool>;
    } &&
    (requires(K k) {
      { k.adjacency() } -> std::same_as<dgraph::Adjacency>;
    } || requires(K k) {
      { k.ghosts() } -> std::convertible_to<dgraph::GhostExchange*>;
    });

template <class K>
concept FrontierKernel = requires(K k, FrontierStepContext& ctx) {
  { k.active_local() } -> std::convertible_to<std::uint64_t>;
  k.step(ctx);
};

/// Runs kernels over one distributed graph.  Collective: every rank must
/// construct the engine and call the same run_* methods in the same order.
class SuperstepEngine {
 public:
  SuperstepEngine(const dgraph::DistGraph& g, parcomm::Communicator& comm,
                  EngineConfig cfg = {})
      : g_(g), comm_(comm), cfg_(cfg), pf_(cfg.pool) {}

  /// PageRank-like run: dense sweeps + ghost exchanges to a fixpoint.
  template <ValueKernel K>
  EngineResult run_value(K& kernel) {
    using T = typename K::Value;
    ThreadPool& tp = pf_.get();

    // Exchange plan: borrow the kernel's retained plan if it has one, else
    // build (collectively) from the kernel's adjacency rule.
    dgraph::GhostExchange* gx = nullptr;
    std::optional<dgraph::GhostExchange> owned;
    if constexpr (requires { kernel.ghosts(); }) {
      gx = kernel.ghosts();
    } else {
      owned.emplace(g_, comm_, kernel.adjacency(), cfg_.pool);
      gx = &*owned;
    }

    dgraph::GhostMode mode = dgraph::GhostMode::kDense;
    if constexpr (requires { kernel.ghost_mode(); }) mode = kernel.ghost_mode();

    bool retain = true;
    if constexpr (requires { kernel.retain_queues(); })
      retain = kernel.retain_queues();

    std::vector<lvid_t>* changed_ghosts = nullptr;
    if constexpr (requires { kernel.changed_ghosts(); })
      changed_ghosts = kernel.changed_ghosts();

    const auto do_exchange = [&] {
      std::span<T> vals = kernel.values();
      if (retain) {
        gx->exchange<T>(vals, comm_, mode, changed_ghosts);
      } else {
        // Rebuild ablation: no change history on a fresh queue, so the
        // round goes through the always-dense exchange_fresh helper.
        dgraph::exchange_fresh<T>(g_, comm_, gx->adjacency(), cfg_.pool, vals,
                                  changed_ghosts);
      }
    };

    // Schedule opt-in: kernels whose sweeps are written against the
    // deterministic chunk-grid contract declare kScheduleAware
    // (with an optional runtime veto `schedule_ok()` — e.g. LP's in-place
    // Gauss-Seidel sweep is order-dependent); everything else keeps the
    // legacy static split.
    Schedule sched = Schedule::kStatic;
    if constexpr (requires { K::kScheduleAware; }) {
      if constexpr (K::kScheduleAware) {
        sched = cfg_.schedule;
        if constexpr (requires { kernel.schedule_ok(); })
          if (!kernel.schedule_ok()) sched = Schedule::kStatic;
      }
    }
    gx->set_schedule(sched);

    StepContext ctx{g_, comm_, tp, gx};
    ctx.schedule = sched;
    if constexpr (requires { kernel.init(ctx); }) {
      kernel.init(ctx);
      if constexpr (requires { K::kSeedExchange; }) {
        if constexpr (K::kSeedExchange) do_exchange();
      }
    }

    EngineResult res;
    for (std::uint64_t step = 0; step < cfg_.max_supersteps; ++step) {
      const auto rec0 = begin_record();
      const SweepStats sweep0 = tp.sweep_stats();
      ctx.superstep = step;
      ctx.active_local = 0;
      ctx.touched_local = 0;
      ctx.residual_local = 0.0;

      obs::Span round_span(obs::span_name::kSuperstep);
      {
        obs::Span sp(obs::span_name::kCompute);
        kernel.compute(ctx);
      }
      obs::Span exchange_span(obs::span_name::kExchange);
      do_exchange();
      const double exchange_s = exchange_span.close();
      if constexpr (requires { kernel.apply(ctx); }) kernel.apply(ctx);

      const Signal sig = fused_allreduce(
          {ctx.active_local, ctx.touched_local, 0, ctx.residual_local});
      ++res.supersteps;
      res.last_active = sig.active;
      res.last_residual = sig.residual;
      res.converged = kernel.converged(sig.active, sig.residual);
      obs::counter(obs::counter_name::kFrontierActive,
                   static_cast<double>(sig.active));

      // Fold this round's intra-rank sweep imbalance into the phase timer
      // *before* the recorder snapshots its delta, then attach the raw
      // numbers to the record.
      const SweepStats sweep_d = tp.sweep_stats() - sweep0;
      comm_.phase_timer().add_sweep(sweep_d.busy_max, sweep_d.busy_total);
      if (sweep_d.busy_max > 0)
        obs::counter(obs::counter_name::kPoolOccupancy,
                     sweep_d.busy_total /
                         (sweep_d.busy_max *
                          static_cast<double>(tp.num_threads())));
      end_record(rec0, step, sig, res.converged,
                 retain ? dgraph::ghost_mode_label(gx->last_round_mode())
                        : "dense",
                 exchange_s, sweep_d, tp.num_threads(), sched);
      if (res.converged) break;
    }
    return res;
  }

  /// BFS-like run: expand the frontier until it drains globally.  Each
  /// round the engine resolves the frontier representation and push/pull
  /// direction (frontier_decide on the fused allreduce's globals — the
  /// same pure function of the same values on every rank), converts the
  /// kernel's DistFrontier if it exposes one, and records per-superstep
  /// density/representation/direction telemetry.
  template <FrontierKernel K>
  EngineResult run_frontier(K& kernel) {
    ThreadPool& tp = pf_.get();

    dgraph::GhostExchange* gx = nullptr;
    if constexpr (requires { kernel.ghosts(); }) gx = kernel.ghosts();

    Schedule sched = Schedule::kStatic;
    if constexpr (requires { K::kScheduleAware; }) {
      if constexpr (K::kScheduleAware) sched = cfg_.schedule;
    }
    if (gx) gx->set_schedule(sched);

    // Crossover policy: the kernel's pins + thresholds, the config's
    // user-facing mode override.
    FrontierPolicy policy;
    if constexpr (requires { kernel.frontier_policy(); })
      policy = kernel.frontier_policy();
    policy.mode = cfg_.frontier;

    FrontierStepContext ctx{{g_, comm_, tp, gx}};
    ctx.schedule = sched;
    if constexpr (requires { kernel.init(ctx); }) kernel.init(ctx);

    EngineResult res;
    // Pre-loop sizing: fuse the initial frontier size with its degree sum
    // (round 0's crossover input) in one collective.
    std::uint64_t degree_local0 = 0;
    if constexpr (requires { kernel.degree_local(); })
      degree_local0 = kernel.degree_local();
    {
      const Signal sz =
          fused_allreduce({kernel.active_local(), 0, degree_local0, 0.0});
      ctx.active_global = sz.active;
      ctx.degree_global = sz.degree;
    }
    res.converged = (ctx.active_global == 0);  // empty frontier: done

    FrontierDir dir = FrontierDir::kPush;
    FrontierRep rep = FrontierRep::kQueue;
    while (ctx.active_global != 0 && res.supersteps < cfg_.max_supersteps) {
      const auto rec0 = begin_record();
      obs::Span round_span(obs::span_name::kSuperstep);
      const SweepStats sweep0 = tp.sweep_stats();
      ctx.superstep = res.supersteps;
      ctx.touched_local = 0;
      ctx.residual_local = 0.0;
      ctx.degree_local = 0;

      const FrontierDecision dec =
          frontier_decide(policy, dir, ctx.active_global, ctx.degree_global,
                          g_.n_global(), g_.m_global());
      ctx.crossover =
          res.supersteps > 0 && (dec.rep != rep || dec.dir != dir);
      rep = dec.rep;
      dir = dec.dir;
      ctx.rep = rep;
      ctx.dir = dir;
      if constexpr (requires { kernel.frontier(); }) {
        if (DistFrontier* f = kernel.frontier()) f->set_rep(rep);
      }

      {
        obs::Span sp(obs::span_name::kFrontierStep);
        kernel.step(ctx);
      }

      const Signal sig =
          fused_allreduce({kernel.active_local(), ctx.touched_local,
                           ctx.degree_local, ctx.residual_local});
      ++res.supersteps;
      res.last_active = sig.active;
      res.last_residual = sig.residual;
      res.converged = (sig.active == 0);
      obs::counter(obs::counter_name::kFrontierActive,
                   static_cast<double>(sig.active));

      const SweepStats sweep_d = tp.sweep_stats() - sweep0;
      comm_.phase_timer().add_sweep(sweep_d.busy_max, sweep_d.busy_total);
      if (sweep_d.busy_max > 0)
        obs::counter(obs::counter_name::kPoolOccupancy,
                     sweep_d.busy_total /
                         (sweep_d.busy_max *
                          static_cast<double>(tp.num_threads())));
      FrontierRoundInfo finfo;
      finfo.rep = frontier_rep_label(rep);
      finfo.dir = frontier_dir_label(dir);
      finfo.density = g_.n_global() > 0
                          ? static_cast<double>(ctx.active_global) /
                                static_cast<double>(g_.n_global())
                          : 0.0;
      finfo.degree = ctx.degree_global;
      finfo.crossover = ctx.crossover;
      end_record(rec0, res.supersteps - 1, sig, res.converged,
                 dir == FrontierDir::kPull ? "dense" : "queue", 0, sweep_d,
                 tp.num_threads(), sched, finfo);

      ctx.active_global = sig.active;
      ctx.degree_global = sig.degree;
    }
    return res;
  }

 private:
  /// The fused per-round collective: convergence signal + telemetry in one
  /// allreduce.  Element-wise sums combined in rank order (bitwise-equal to
  /// the scalar allreduce_sum each field replaced).  `degree` is the
  /// frontier-degree sum run_frontier's crossover decision consumes (0 for
  /// value kernels and kernels that report none).
  struct Signal {
    std::uint64_t active;
    std::uint64_t touched;
    std::uint64_t degree;
    double residual;
  };
  Signal fused_allreduce(Signal s) {
    return comm_.allreduce(s, [](Signal a, Signal b) {
      return Signal{a.active + b.active, a.touched + b.touched,
                    a.degree + b.degree, a.residual + b.residual};
    });
  }

  bool recording() const { return cfg_.trace && comm_.rank() == 0; }
  std::optional<StepRecorder> begin_record() {
    if (!recording()) return std::nullopt;
    return std::make_optional<StepRecorder>(comm_);
  }
  void end_record(const std::optional<StepRecorder>& rec0, std::uint64_t step,
                  const Signal& sig, bool converged, const char* wire,
                  double exchange_s, const SweepStats& sweep_d,
                  unsigned nthreads, Schedule sched,
                  const FrontierRoundInfo& finfo = {}) {
    if (!rec0) return;
    SuperstepRecord rec;
    rec.analytic = cfg_.name;
    rec.superstep = step;
    rec.active = sig.active;
    rec.touched = sig.touched;
    rec.residual = sig.residual;
    rec.converged = converged;
    rec.wire = wire;
    rec.exchange_us = static_cast<std::uint64_t>(exchange_s * 1e6);
    rec.set_sweep(sweep_d, nthreads, sched);
    rec.set_frontier(finfo);
    rec0->finish(rec);
    cfg_.trace->push(std::move(rec));
  }

  const dgraph::DistGraph& g_;
  parcomm::Communicator& comm_;
  EngineConfig cfg_;
  PoolFallback pf_;
};

}  // namespace hpcgraph::engine
