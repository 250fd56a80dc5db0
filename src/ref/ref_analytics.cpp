#include "ref/ref_analytics.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>

#include "util/error.hpp"
#include "util/label_counter.hpp"
#include "util/rng.hpp"

namespace hpcgraph::ref {

std::vector<double> pagerank(const SeqGraph& g, int iterations,
                             double damping) {
  const gvid_t n = g.n();
  HG_CHECK(n > 0);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);

  for (int it = 0; it < iterations; ++it) {
    double dangling = 0;
    for (gvid_t v = 0; v < n; ++v)
      if (g.out_degree(v) == 0) dangling += rank[v];

    const double base =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (gvid_t u = 0; u < n; ++u) {
      const double share =
          g.out_degree(u) ? damping * rank[u] /
                                static_cast<double>(g.out_degree(u))
                          : 0.0;
      for (const gvid_t v : g.out_neighbors(u)) next[v] += share;
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<std::int64_t> bfs_levels(const SeqGraph& g, gvid_t root,
                                     bool directed) {
  std::vector<std::int64_t> level(g.n(), kUnreachableLevel);
  std::deque<gvid_t> q;
  level[root] = 0;
  q.push_back(root);
  while (!q.empty()) {
    const gvid_t v = q.front();
    q.pop_front();
    const auto visit = [&](gvid_t u) {
      if (level[u] == kUnreachableLevel) {
        level[u] = level[v] + 1;
        q.push_back(u);
      }
    };
    for (const gvid_t u : g.out_neighbors(v)) visit(u);
    if (!directed)
      for (const gvid_t u : g.in_neighbors(v)) visit(u);
  }
  return level;
}

std::vector<gvid_t> wcc(const SeqGraph& g) {
  // Union-find with path halving; canonical label = min id in component.
  std::vector<gvid_t> parent(g.n());
  for (gvid_t v = 0; v < g.n(); ++v) parent[v] = v;

  const auto find = [&](gvid_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  const auto unite = [&](gvid_t a, gvid_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);  // keep the smaller id as root
    parent[b] = a;
  };

  for (gvid_t v = 0; v < g.n(); ++v)
    for (const gvid_t u : g.out_neighbors(v)) unite(v, u);

  std::vector<gvid_t> comp(g.n());
  for (gvid_t v = 0; v < g.n(); ++v) comp[v] = find(v);
  return comp;
}

std::vector<gvid_t> scc(const SeqGraph& g) {
  // Iterative Tarjan.
  const gvid_t n = g.n();
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  std::vector<std::uint64_t> index(n, kUnset), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<gvid_t> stack;
  std::vector<gvid_t> comp(n, kNullGvid);
  std::uint64_t next_index = 0;

  struct Frame {
    gvid_t v;
    std::size_t edge_pos;
  };
  std::vector<Frame> call;

  for (gvid_t start = 0; start < n; ++start) {
    if (index[start] != kUnset) continue;
    call.push_back({start, 0});
    while (!call.empty()) {
      Frame& f = call.back();
      const gvid_t v = f.v;
      if (f.edge_pos == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      const auto nbrs = g.out_neighbors(v);
      while (f.edge_pos < nbrs.size()) {
        const gvid_t u = nbrs[f.edge_pos++];
        if (index[u] == kUnset) {
          call.push_back({u, 0});
          descended = true;
          break;
        }
        if (on_stack[u]) lowlink[v] = std::min(lowlink[v], index[u]);
      }
      if (descended) continue;
      if (lowlink[v] == index[v]) {
        // Root of an SCC: pop members; canonical label = min member id.
        gvid_t label = v;
        std::size_t first = stack.size();
        while (true) {
          --first;
          label = std::min(label, stack[first]);
          if (stack[first] == v) break;
        }
        for (std::size_t i = first; i < stack.size(); ++i) {
          comp[stack[i]] = label;
          on_stack[stack[i]] = false;
        }
        stack.resize(first);
      }
      call.pop_back();
      if (!call.empty()) {
        Frame& parent = call.back();
        lowlink[parent.v] = std::min(lowlink[parent.v], lowlink[v]);
      }
    }
  }
  return comp;
}

std::vector<gvid_t> largest_scc(const SeqGraph& g) {
  const std::vector<gvid_t> comp = scc(g);
  std::map<gvid_t, std::uint64_t> sizes;
  for (const gvid_t c : comp) ++sizes[c];
  gvid_t best = comp.empty() ? 0 : comp[0];
  std::uint64_t best_size = 0;
  for (const auto& [label, size] : sizes)
    if (size > best_size) {
      best_size = size;
      best = label;
    }
  std::vector<gvid_t> members;
  members.reserve(best_size);
  for (gvid_t v = 0; v < g.n(); ++v)
    if (comp[v] == best) members.push_back(v);
  return members;
}

double harmonic_centrality(const SeqGraph& g, gvid_t v) {
  const std::vector<std::int64_t> level = bfs_levels(g, v, /*directed=*/true);
  double sum = 0;
  for (gvid_t u = 0; u < g.n(); ++u)
    if (u != v && level[u] > 0)
      sum += 1.0 / static_cast<double>(level[u]);
  return sum;
}

namespace {

/// The sequential 2^i peel behind kcore_approx and kcore_stages: stage i
/// removes vertices of total degree < 2^i to the fixpoint, stamping bound
/// 2^i on each, then calls on_stage(i, alive, deg).  Stops after the first
/// stage that leaves nothing alive.
template <typename F>
std::vector<std::uint64_t> peel_powers(const SeqGraph& g, unsigned max_i,
                                       F&& on_stage) {
  const gvid_t n = g.n();
  std::vector<std::uint64_t> bound(n, std::uint64_t{1} << max_i);
  std::vector<std::uint64_t> deg(n);
  std::vector<bool> alive(n, true);
  for (gvid_t v = 0; v < n; ++v) deg[v] = g.out_degree(v) + g.in_degree(v);

  for (unsigned i = 1; i <= max_i; ++i) {
    const std::uint64_t threshold = std::uint64_t{1} << i;
    bool changed = true;
    while (changed) {
      changed = false;
      for (gvid_t v = 0; v < n; ++v) {
        if (!alive[v] || deg[v] >= threshold) continue;
        alive[v] = false;
        bound[v] = threshold;
        changed = true;
        for (const gvid_t u : g.out_neighbors(v))
          if (alive[u] && deg[u] > 0) --deg[u];
        for (const gvid_t u : g.in_neighbors(v))
          if (alive[u] && deg[u] > 0) --deg[u];
      }
    }
    on_stage(i, alive, deg);
    // Early out: everything removed.
    if (std::none_of(alive.begin(), alive.end(), [](bool a) { return a; }))
      break;
  }
  return bound;
}

}  // namespace

std::vector<std::uint64_t> kcore_approx(const SeqGraph& g, unsigned max_i) {
  return peel_powers(g, max_i, [](unsigned, const std::vector<bool>&,
                                  const std::vector<std::uint64_t>&) {});
}

std::vector<KCoreStage> kcore_stages(const SeqGraph& g, unsigned max_i) {
  std::vector<KCoreStage> stages;
  std::uint64_t alive_before = g.n();
  peel_powers(g, max_i, [&](unsigned i, const std::vector<bool>& alive,
                            const std::vector<std::uint64_t>& deg) {
    KCoreStage s;
    s.i = i;
    s.threshold = std::uint64_t{1} << i;
    s.alive_after = static_cast<std::uint64_t>(
        std::count(alive.begin(), alive.end(), true));
    s.removed = alive_before - s.alive_after;
    alive_before = s.alive_after;
    for (gvid_t v = 0; v < g.n(); ++v)
      if (alive[v] && (s.root == kNullGvid || deg[v] > deg[s.root])) s.root = v;
    if (s.root != kNullGvid) {
      std::vector<bool> seen(g.n(), false);
      std::deque<gvid_t> q{s.root};
      seen[s.root] = true;
      while (!q.empty()) {
        const gvid_t v = q.front();
        q.pop_front();
        ++s.largest_cc;
        const auto visit = [&](gvid_t u) {
          if (alive[u] && !seen[u]) {
            seen[u] = true;
            q.push_back(u);
          }
        };
        for (const gvid_t u : g.out_neighbors(v)) visit(u);
        for (const gvid_t u : g.in_neighbors(v)) visit(u);
      }
    }
    stages.push_back(s);
  });
  return stages;
}

std::vector<std::uint64_t> kcore_exact(const SeqGraph& g) {
  const gvid_t n = g.n();
  std::vector<std::uint64_t> deg(n), core(n, 0);
  std::vector<bool> removed(n, false);
  for (gvid_t v = 0; v < n; ++v) deg[v] = g.out_degree(v) + g.in_degree(v);

  // Peel in nondecreasing current-degree order (bucket-free O(n^2 worst),
  // fine at reference scale).  core(v) = the running max of the minimum
  // degree observed up to v's removal.
  std::uint64_t max_so_far = 0;
  for (gvid_t step = 0; step < n; ++step) {
    gvid_t pick = kNullGvid;
    std::uint64_t dmin = ~std::uint64_t{0};
    for (gvid_t v = 0; v < n; ++v)
      if (!removed[v] && deg[v] < dmin) {
        dmin = deg[v];
        pick = v;
      }
    if (pick == kNullGvid) break;
    removed[pick] = true;
    max_so_far = std::max(max_so_far, dmin);
    core[pick] = max_so_far;
    for (const gvid_t u : g.out_neighbors(pick))
      if (!removed[u] && deg[u] > 0) --deg[u];
    for (const gvid_t u : g.in_neighbors(pick))
      if (!removed[u] && deg[u] > 0) --deg[u];
  }
  return core;
}

std::vector<std::uint64_t> label_propagation(const SeqGraph& g,
                                             int iterations,
                                             std::uint64_t tie_seed) {
  const gvid_t n = g.n();
  std::vector<std::uint64_t> labels(n), next(n);
  for (gvid_t v = 0; v < n; ++v) labels[v] = v;

  LabelCounter lmap;
  for (int it = 0; it < iterations; ++it) {
    for (gvid_t v = 0; v < n; ++v) {
      lmap.clear();
      for (const gvid_t u : g.out_neighbors(v)) lmap.add(labels[u]);
      for (const gvid_t u : g.in_neighbors(v)) lmap.add(labels[u]);
      next[v] = lmap.argmax(tie_seed + static_cast<std::uint64_t>(it),
                            labels[v]);
    }
    labels.swap(next);
  }
  return labels;
}

std::vector<std::uint64_t> sssp_dijkstra(const SeqGraph& g, gvid_t root,
                                         std::uint64_t max_weight) {
  std::vector<std::uint64_t> dist(g.n(), kInfDistance);
  using Entry = std::pair<std::uint64_t, gvid_t>;  // (distance, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[root] = 0;
  pq.push({0, root});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;  // stale entry
    for (const gvid_t u : g.out_neighbors(v)) {
      const std::uint64_t cand =
          d + hpcgraph::splitmix64(v * 0x9ddfea08eb382d69ULL + u) %
                  max_weight + 1;
      if (cand < dist[u]) {
        dist[u] = cand;
        pq.push({cand, u});
      }
    }
  }
  return dist;
}

std::vector<double> betweenness_brandes(const SeqGraph& g,
                                        std::span<const gvid_t> sources) {
  const gvid_t n = g.n();
  std::vector<double> score(n, 0.0);
  std::vector<std::int64_t> level(n);
  std::vector<double> sigma(n), delta(n);

  for (const gvid_t s : sources) {
    std::fill(level.begin(), level.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    level[s] = 0;
    sigma[s] = 1.0;

    // Level-synchronous forward sweep (multi-edges count as distinct
    // paths), recording per-level frontiers.
    std::vector<std::vector<gvid_t>> frontiers{{s}};
    while (!frontiers.back().empty()) {
      std::vector<gvid_t> next;
      const std::int64_t l = static_cast<std::int64_t>(frontiers.size()) - 1;
      for (const gvid_t u : frontiers.back())
        for (const gvid_t v : g.out_neighbors(u)) {
          if (level[v] == -1) {
            level[v] = l + 1;
            next.push_back(v);
          }
          if (level[v] == l + 1) sigma[v] += sigma[u];
        }
      frontiers.push_back(std::move(next));
    }

    // Backward dependency accumulation, deepest level first.
    for (std::size_t li = frontiers.size(); li-- > 0;) {
      const std::int64_t l = static_cast<std::int64_t>(li);
      for (const gvid_t u : frontiers[li]) {
        double acc = 0;
        for (const gvid_t v : g.out_neighbors(u))
          if (level[v] == l + 1 && sigma[v] > 0)
            acc += sigma[u] / sigma[v] * (1.0 + delta[v]);
        delta[u] = acc;
      }
    }
    for (gvid_t v = 0; v < n; ++v)
      if (v != s && level[v] > 0) score[v] += delta[v];
  }
  return score;
}

std::uint64_t triangle_count(const SeqGraph& g) {
  const gvid_t n = g.n();
  // Deduplicated undirected adjacency, self loops dropped.
  std::vector<std::vector<gvid_t>> nbrs(n);
  for (gvid_t v = 0; v < n; ++v) {
    auto& a = nbrs[v];
    for (const gvid_t u : g.out_neighbors(v)) a.push_back(u);
    for (const gvid_t u : g.in_neighbors(v)) a.push_back(u);
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    a.erase(std::remove(a.begin(), a.end(), v), a.end());
  }
  // Degree-ordered orientation, then sorted-list intersection per edge.
  const auto rank_lt = [&](gvid_t x, gvid_t y) {
    if (nbrs[x].size() != nbrs[y].size())
      return nbrs[x].size() < nbrs[y].size();
    return x < y;
  };
  std::vector<std::vector<gvid_t>> oriented(n);
  for (gvid_t v = 0; v < n; ++v)
    for (const gvid_t u : nbrs[v])
      if (rank_lt(v, u)) oriented[v].push_back(u);

  std::uint64_t triangles = 0;
  for (gvid_t v = 0; v < n; ++v)
    for (const gvid_t u : oriented[v]) {
      // |N+(v) ∩ N+(u)| closes triangles with v as the lowest corner.
      const auto& a = oriented[v];
      const auto& b = oriented[u];
      std::size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          ++triangles;
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  return triangles;
}

std::vector<std::uint64_t> normalize_labels(
    const std::vector<std::uint64_t>& labels) {
  std::map<std::uint64_t, std::uint64_t> canon;  // label -> min vertex id
  for (std::size_t v = 0; v < labels.size(); ++v) {
    const auto [it, inserted] = canon.emplace(labels[v], v);
    if (!inserted) it->second = std::min<std::uint64_t>(it->second, v);
  }
  std::vector<std::uint64_t> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) out[v] = canon[labels[v]];
  return out;
}

}  // namespace hpcgraph::ref
