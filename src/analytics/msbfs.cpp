#include "analytics/msbfs.hpp"

#include <algorithm>
#include <bit>

#include "dgraph/ghost_exchange.hpp"
#include "engine/frontier.hpp"
#include "engine/superstep.hpp"
#include "obs/tracer.hpp"
#include "util/bitmask64.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using dgraph::GhostExchange;
using parcomm::Communicator;

namespace {

/// One batch of <= kMsBfsMaxBatch roots.  Returns the number of frontier
/// expansions executed; adds the batch's global (root, vertex) reach count
/// to *visited.  kMasked applies opts.allowed; it is a template parameter so
/// the unmasked batch pays no per-vertex load or branch for it.
template <bool kMasked>
int run_batch(const DistGraph& g, Communicator& comm, GhostExchange& gx,
              std::span<const gvid_t> batch, std::size_t batch_begin,
              const MsBfsOptions& opts, ThreadPool& tp,
              const MsBfsLevelVisitor& visit, std::uint64_t* visited) {
  const lvid_t n_loc = g.n_loc();
  const std::size_t n_total = g.n_total();
  const unsigned nt = tp.num_threads();
  const std::uint64_t full = bits::low_mask(batch.size());
  const std::span<const std::uint64_t> allowed = opts.allowed;

  // Per-vertex visit masks over locals + ghosts; bit j belongs to batch[j].
  std::vector<std::uint64_t> seen(n_total, 0);
  std::vector<std::uint64_t> frontier(n_total, 0);
  std::vector<std::uint64_t> next(n_total, 0);
  std::vector<std::uint64_t> newly(n_loc, 0);

  std::vector<lvid_t> act;  // frontier-active local vertices
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const gvid_t r = batch[j];
    HG_CHECK(r < g.n_global());
    if (g.owner_of_global(r) != comm.rank()) continue;
    const lvid_t l = g.local_id_checked(r);
    if constexpr (kMasked) {
      if ((allowed[l] & bits::bit(j)) == 0) continue;
    }
    if (frontier[l] == 0) act.push_back(l);
    seen[l] |= bits::bit(j);
    frontier[l] |= bits::bit(j);
    newly[l] |= bits::bit(j);
  }
  if (!act.empty()) visit(0, newly, batch, batch_begin);

  // Finalize grid: span geometry over the locals; per-span active lists
  // concatenated in span order keep act[] (and hence every downstream
  // collective payload) bit-identical at every pool width.
  const ChunkGrid fin_grid = span_grid(n_loc, {}, nt);
  std::vector<std::vector<lvid_t>> cact(fin_grid.size());
  ChunkGrid pull_grid;  // reverse-degree weighted, built on first pull level
  std::uint64_t active_global = comm.allreduce_sum<std::uint64_t>(act.size());
  std::int64_t level = 0;
  int num_levels = 0;

  // Push/pull crossover through the frontier layer's shared decision
  // function: the MS-BFS density rule on allreduced state — a pure function
  // evaluated identically on every rank, so the levels stay lockstep.  The
  // masks are the dense representation already.
  engine::FrontierPolicy policy;
  policy.allow_pull = true;
  policy.pull_density = opts.dense_threshold;
  engine::FrontierDir dir = engine::FrontierDir::kPush;

  while (active_global != 0) {
    obs::Span level_span(obs::span_name::kSuperstep);
    const SweepStats sweep0 = tp.sweep_stats();
    ++num_levels;
    const std::uint64_t processed = active_global;
    const engine::FrontierDecision dec = engine::frontier_decide(
        policy, dir, active_global, 0, g.n_global(), g.m_global());
    dir = dec.dir;
    const bool pull = dir == engine::FrontierDir::kPull;

    if (pull) {
      // ---- Dense (pull): publish frontier masks, gather over the reverse
      // adjacency of every unsaturated vertex.  Writes are per-destination:
      // no atomics. ----
      gx.exchange(std::span<std::uint64_t>(frontier), comm);
      if (pull_grid.empty() && n_loc > 0) {
        // Gather cost is bounded by reverse-adjacency degree.
        std::vector<std::uint64_t> rev(n_loc + 1, 0);
        for (lvid_t v = 0; v < n_loc; ++v) {
          std::uint64_t d = 0;
          if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth)
            d += g.in_degree(v);
          if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth)
            d += g.out_degree(v);
          rev[v + 1] = rev[v] + d;
        }
        pull_grid = span_grid(n_loc, rev, nt);
      }
      tp.for_ranges(pull_grid, [&](unsigned, std::uint64_t lo,
                                   std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          const lvid_t v = static_cast<lvid_t>(i);
          std::uint64_t open = ~seen[v] & full;
          if constexpr (kMasked) open &= allowed[v];
          if (open == 0) {  // already reached by every root allowed here
            next[v] = 0;
            continue;
          }
          std::uint64_t gather = 0;
          // Parents sit in the *reverse* adjacency of the traversal.
          if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.in_neighbors(v)) gather |= frontier[u];
          if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.out_neighbors(v)) gather |= frontier[u];
          next[v] = gather;
        }
      });
    } else {
      // ---- Sparse (push): scatter active masks along the traversal
      // adjacency; bits for remote vertices accumulate on ghost replicas
      // and OR-merge into the owners through the reverse exchange. ----
      tp.for_ranges(0, n_total,
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      std::fill(next.begin() + static_cast<std::ptrdiff_t>(lo),
                                next.begin() + static_cast<std::ptrdiff_t>(hi),
                                std::uint64_t{0});
                    });
      const bool concurrent = nt > 1;
      tp.for_ranges(0, act.size(), [&](unsigned, std::uint64_t lo,
                                       std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          const lvid_t v = act[i];
          const std::uint64_t m = frontier[v];
          const auto scatter = [&](lvid_t u) {
            if (concurrent) {
              bits::atomic_or(next[u], m);
            } else {
              next[u] |= m;
            }
          };
          if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.out_neighbors(v)) scatter(u);
          if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.in_neighbors(v)) scatter(u);
        }
      });
      gx.reduce(std::span<std::uint64_t>(next), comm,
                [](std::uint64_t a, std::uint64_t b) { return a | b; });
    }

    // ---- Finalize the level: newly = next & ~seen [& allowed],
    // batch-wide at once. ----
    for (auto& cv : cact) cv.clear();
    tp.for_chunks(fin_grid,
                  [&](unsigned, std::uint64_t c, const Chunk& ck) {
                    auto& mine = cact[c];
                    for (std::uint64_t i = ck.begin; i < ck.end; ++i) {
                      const lvid_t v = static_cast<lvid_t>(i);
                      std::uint64_t nw = next[v] & ~seen[v];
                      if constexpr (kMasked) nw &= allowed[v];
                      newly[v] = nw;
                      frontier[v] = nw;
                      if (nw != 0) {
                        seen[v] |= nw;
                        mine.push_back(v);
                      }
                    }
                  });
    act.clear();
    concat_chunk_lists(cact, act);

    ++level;
    if (!act.empty()) visit(level, newly, batch, batch_begin);
    active_global = comm.allreduce_sum<std::uint64_t>(act.size());
    // The batch masks are always the dense (bitmap) representation.
    engine::stamp_round(
        {.active = active_global,
         .touched = processed,
         .frontier = engine::FrontierDecision{engine::FrontierRep::kBitmap,
                                              dir}},
        tp, sweep0);
  }

  if (visited) {
    std::uint64_t local = 0;
    for (lvid_t v = 0; v < n_loc; ++v)
      local += static_cast<std::uint64_t>(std::popcount(seen[v]));
    *visited += comm.allreduce_sum<std::uint64_t>(local);
  }
  return num_levels;
}

}  // namespace

MsBfsResult msbfs_visit(const DistGraph& g, Communicator& comm,
                        std::span<const gvid_t> roots,
                        const MsBfsOptions& opts,
                        const MsBfsLevelVisitor& visit) {
  HG_CHECK_MSG(opts.batch_size >= 1 && opts.batch_size <= kMsBfsMaxBatch,
               "MS-BFS batch size must be in [1, 64], got "
                   << opts.batch_size);
  HG_CHECK(opts.dense_threshold >= 0.0);
  const bool masked = !opts.allowed.empty();
  HG_CHECK_MSG(!masked || opts.allowed.size() == g.n_loc(),
               "MS-BFS allowed masks: need one per local vertex ("
                   << g.n_loc() << "), got " << opts.allowed.size());
  HG_CHECK_MSG(!masked || roots.size() <= opts.batch_size,
               "MS-BFS allowed masks index one batch of at most "
                   << opts.batch_size << " roots, got " << roots.size());

  ScopedPool pf(opts.common);
  ThreadPool& tp = pf.get();

  // Every batch, and every call on this graph, runs over the graph's kBoth
  // plan (built on its first request).
  GhostExchange gx(g, comm, dgraph::Adjacency::kBoth, opts.common.pool);

  MsBfsResult res;
  res.n_roots = roots.size();
  for (std::size_t b = 0; b < roots.size(); b += opts.batch_size) {
    const std::size_t len = std::min(opts.batch_size, roots.size() - b);
    const auto batch = roots.subspan(b, len);
    const int levels =
        masked ? run_batch<true>(g, comm, gx, batch, b, opts, tp, visit,
                                 &res.visited)
               : run_batch<false>(g, comm, gx, batch, b, opts, tp, visit,
                                  &res.visited);
    res.num_levels = std::max(res.num_levels, levels);
  }
  return res;
}

MsBfsResult msbfs(const DistGraph& g, Communicator& comm,
                  std::span<const gvid_t> roots, const MsBfsOptions& opts) {
  const lvid_t n_loc = g.n_loc();
  std::vector<std::int64_t> level(roots.size() * n_loc, kUnvisited);
  MsBfsResult res = msbfs_visit(
      g, comm, roots, opts,
      [&](std::int64_t lv, std::span<const std::uint64_t> newly,
          std::span<const gvid_t>, std::size_t batch_begin) {
        for (lvid_t v = 0; v < n_loc; ++v) {
          bits::for_each_set_bit(newly[v], [&](std::size_t j) {
            level[(batch_begin + j) * n_loc + v] = lv;
          });
        }
      });
  res.level = std::move(level);
  return res;
}

}  // namespace hpcgraph::analytics
