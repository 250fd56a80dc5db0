#pragma once
/// \file superstep.hpp
/// The bulk-synchronous superstep engine — one outer loop for every
/// analytic.
///
/// The paper's central observation is that its six analytics fall into two
/// computational classes: *PageRank-like* dense value propagation over
/// boundary exchanges, and *BFS-like* frontier expansion over per-owner
/// queues.  Before this engine existed, each analytic hand-rolled the same
/// iterate → ghost-exchange → allreduce-convergence skeleton;
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
///   * `dgraph::Adjacency adjacency()`       boundary rule: the run's
///                                           GhostExchange uses the graph's
///                                           plan for it (built on the graph's
///                                           first request, shared after)
///   * `void compute(StepContext&)`          local sweep; report
///                                           ctx.active/touched/residual
///   * `bool converged(uint64 active_global, double residual_global)`
///                                           stop decision from the fused
///                                           allreduce (same inputs on every
///                                           rank -> same decision)
/// Optional members (detected with `if constexpr (requires ...)`):
///   * `bool retain_queues()`                false = rebuild-ablation: each
///                                           round exchanges through a fresh
///                                           queue (exchange_fresh)
///   * `std::vector<lvid_t>* changed_ghosts()`  receive ghost slots whose
///                                           value flipped (k-core)
///   * `void apply(StepContext&)`            post-exchange step (PageRank's
///                                           gather+delta, k-core's ghost
///                                           decrement application)
///
/// Round structure (collective order is part of the engine's contract —
/// ported analytics reproduce their pre-engine exchange/allreduce sequence
/// exactly, which is what keeps outputs bit-for-bit identical):
///
///     compute -> exchange -> [apply] -> fused allreduce -> stamp -> stop?
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
///                                           default: push only
///   * `engine::DistFrontier* frontier()`    expose the active set so the
///                                           engine converts its
///                                           representation to each round's
///                                           decision before step()
///   * `std::uint64_t degree_local()`        pre-loop local frontier-degree
///                                           sum (round 0's crossover input)
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
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/parallel_for.hpp"

namespace hpcgraph::engine {

/// Per-round view the engine hands to kernel hooks.
struct StepContext {
  const dgraph::DistGraph& g;
  parcomm::Communicator& comm;
  ThreadPool& pool;                    ///< resolved pool (never null)
  std::uint64_t superstep = 0;         ///< 0-based round within this run

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
};

/// One finished round as the trace records it.  The counts and the residual
/// are globals from the round's fused allreduce, so every rank stamps the
/// same record on its own lane.
struct RoundCounters {
  std::uint64_t active = 0;   ///< frontier / changed vertices after the round
  std::uint64_t touched = 0;  ///< vertices processed
  double residual = 0.0;      ///< kernel-defined residual
  /// Frontier rounds: the decision the round ran under and the expanded
  /// frontier's degree sum.  Value rounds leave `frontier` empty.
  std::optional<FrontierDecision> frontier = std::nullopt;
  std::uint64_t degree = 0;
};

/// Stamps `rc` as counters on the calling rank's lane, plus the pool's sweep
/// occupancy since `sweep0`; a no-op on an untraced thread.  run_value,
/// run_frontier and the MS-BFS level loop call it at the end of every round.
inline void stamp_round(const RoundCounters& rc, const ThreadPool& pool,
                        const SweepStats& sweep0) {
  namespace cn = obs::counter_name;
  const auto flag = [](bool b) { return b ? 1.0 : 0.0; };
  obs::counter(cn::kFrontierActive, static_cast<double>(rc.active));
  obs::counter(cn::kTouched, static_cast<double>(rc.touched));
  obs::counter(cn::kResidual, rc.residual);
  if (rc.frontier) {
    obs::counter(cn::kFrontierDegree, static_cast<double>(rc.degree));
    obs::counter(cn::kFrontierPull,
                 flag(rc.frontier->dir == FrontierDir::kPull));
    obs::counter(cn::kFrontierBitmap,
                 flag(rc.frontier->rep == FrontierRep::kBitmap));
  }
  const SweepStats d = pool.sweep_stats() - sweep0;
  if (d.busy_max > 0)
    obs::counter(cn::kPoolOccupancy,
                 d.busy_total /
                     (d.busy_max * static_cast<double>(pool.num_threads())));
}

template <class K>
concept ValueKernel =
    requires(K k, StepContext& ctx, std::uint64_t a, double r) {
      typename K::Value;
      { k.values() } -> std::convertible_to<std::span<typename K::Value>>;
      k.compute(ctx);
      { k.converged(a, r) } -> std::convertible_to<bool>;
      { k.adjacency() } -> std::same_as<dgraph::Adjacency>;
    };

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

    bool retain = true;
    if constexpr (requires { kernel.retain_queues(); })
      retain = kernel.retain_queues();

    // Per-run exchange over the graph's plan for the kernel's adjacency
    // rule (collective only on the graph's first request for that rule).
    // The rebuild ablation neither builds nor caches that plan.
    std::optional<dgraph::GhostExchange> gx;
    if (retain) gx.emplace(g_, comm_, kernel.adjacency(), cfg_.pool);

    std::vector<lvid_t>* changed_ghosts = nullptr;
    if constexpr (requires { kernel.changed_ghosts(); })
      changed_ghosts = kernel.changed_ghosts();

    StepContext ctx{g_, comm_, tp};
    EngineResult res;
    for (std::uint64_t step = 0; step < cfg_.max_supersteps; ++step) {
      obs::Span round_span(obs::span_name::kSuperstep);
      const SweepStats sweep0 = tp.sweep_stats();
      ctx.superstep = step;
      ctx.active_local = 0;
      ctx.touched_local = 0;
      ctx.residual_local = 0.0;

      {
        obs::Span sp(obs::span_name::kCompute);
        kernel.compute(ctx);
      }
      {
        obs::Span sp(obs::span_name::kExchange);
        std::span<T> vals = kernel.values();
        if (gx) {
          gx->exchange<T>(vals, comm_, changed_ghosts);
        } else {
          // Rebuild ablation: the round ships over a freshly built plan.
          dgraph::exchange_fresh<T>(g_, comm_, kernel.adjacency(), cfg_.pool,
                                    vals, changed_ghosts);
        }
      }
      if constexpr (requires { kernel.apply(ctx); }) kernel.apply(ctx);

      const Signal sig = fused_allreduce(
          {ctx.active_local, ctx.touched_local, 0, ctx.residual_local});
      ++res.supersteps;
      res.last_active = sig.active;
      res.last_residual = sig.residual;
      res.converged = kernel.converged(sig.active, sig.residual);
      stamp_round(
          {.active = sig.active, .touched = sig.touched, .residual = sig.residual},
          tp, sweep0);
      if (res.converged) break;
    }
    return res;
  }

  /// BFS-like run: expand the frontier until it drains globally.  Each
  /// round the engine resolves the frontier representation and push/pull
  /// direction (frontier_decide on the fused allreduce's globals — the
  /// same pure function of the same values on every rank), converts the
  /// kernel's DistFrontier if it exposes one, and stamps the round's
  /// representation, direction and degree sum (stamp_round).
  template <FrontierKernel K>
  EngineResult run_frontier(K& kernel) {
    ThreadPool& tp = pf_.get();

    // Crossover policy: the kernel's pins and thresholds.
    FrontierPolicy policy;
    if constexpr (requires { kernel.frontier_policy(); })
      policy = kernel.frontier_policy();

    FrontierStepContext ctx{{g_, comm_, tp}};

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
    while (ctx.active_global != 0 && res.supersteps < cfg_.max_supersteps) {
      obs::Span round_span(obs::span_name::kSuperstep);
      const SweepStats sweep0 = tp.sweep_stats();
      ctx.superstep = res.supersteps;
      ctx.touched_local = 0;
      ctx.residual_local = 0.0;
      ctx.degree_local = 0;

      const FrontierDecision dec =
          frontier_decide(policy, dir, ctx.active_global, ctx.degree_global,
                          g_.n_global(), g_.m_global());
      dir = dec.dir;
      ctx.rep = dec.rep;
      ctx.dir = dec.dir;
      if constexpr (requires { kernel.frontier(); }) {
        if (DistFrontier* f = kernel.frontier()) f->set_rep(dec.rep);
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
      stamp_round({.active = sig.active,
                   .touched = sig.touched,
                   .residual = sig.residual,
                   .frontier = dec,
                   .degree = ctx.degree_global},
                  tp, sweep0);

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

  const dgraph::DistGraph& g_;
  parcomm::Communicator& comm_;
  EngineConfig cfg_;
  PoolFallback pf_;
};

}  // namespace hpcgraph::engine
