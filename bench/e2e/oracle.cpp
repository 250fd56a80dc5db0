#include "oracle.hpp"

#include <algorithm>
#include <numeric>

#include "ref/ref_analytics.hpp"
#include "ref/seq_graph.hpp"
#include "util/error.hpp"
#include "util/label_counter.hpp"

namespace hpcgraph::e2e {

namespace {

template <typename T>
std::uint64_t vector_hash(const std::vector<T>& vals) {
  std::uint64_t h = 0;
  for (gvid_t v = 0; v < vals.size(); ++v)
    h += vertex_term(v, static_cast<std::uint64_t>(vals[v]));
  return h;
}

std::uint64_t total_degree(const ref::SeqGraph& g, gvid_t v) {
  return g.out_degree(v) + g.in_degree(v);
}

/// Vertices by total degree, descending, ties to the smaller id (the order
/// analytics::max_degree_vertex and harmonic_top_k select by).
std::vector<gvid_t> top_degree(const ref::SeqGraph& g, std::size_t k) {
  std::vector<gvid_t> ids(g.n());
  std::iota(ids.begin(), ids.end(), gvid_t{0});
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k),
                    ids.end(), [&](gvid_t a, gvid_t b) {
                      const auto da = total_degree(g, a), db = total_degree(g, b);
                      return da != db ? da > db : a < b;
                    });
  ids.resize(k);
  return ids;
}

/// ref::label_propagation with one counter per vertex, sized to its degree.
/// The src/ref oracle reuses a single LabelCounter whose capacity grows to
/// the largest degree, and argmax() scans every slot, so each vertex costs
/// O(max degree) — about 10 s per run on webgraph 2^17.  Counting and
/// tie-breaking are the same LabelCounter code and argmax's result does not
/// depend on slot order, so the labels are identical; reference() checks
/// that against the src/ref oracle on small graphs.
std::vector<std::uint64_t> sized_label_propagation(const ref::SeqGraph& g,
                                                   int iterations) {
  std::vector<std::uint64_t> labels(g.n()), next(g.n());
  std::iota(labels.begin(), labels.end(), std::uint64_t{0});
  for (int it = 0; it < iterations; ++it) {
    for (gvid_t v = 0; v < g.n(); ++v) {
      LabelCounter lmap(g.out_degree(v) + g.in_degree(v));
      for (const gvid_t u : g.out_neighbors(v)) lmap.add(labels[u]);
      for (const gvid_t u : g.in_neighbors(v)) lmap.add(labels[u]);
      next[v] = lmap.argmax(static_cast<std::uint64_t>(it), labels[v]);
    }
    labels.swap(next);
  }
  return labels;
}

/// Largest graph on which the src/ref Label Propagation is also run.
constexpr gvid_t kRefLpMaxN = gvid_t{1} << 14;

/// Digest of a full PageRank score vector (indexed by global id).
Digest pagerank_digest(const std::vector<double>& scores) {
  Digest d;
  d.approx.assign(kSketches, 0.0);
  for (gvid_t v = 0; v < scores.size(); ++v)
    for (unsigned k = 0; k < kSketches; ++k)
      d.approx[k] += scores[v] * sketch_weight(v, k);
  d.abs_tol = kPageRankL1;
  return d;
}

}  // namespace

Reference reference(const Workload& w, const gen::EdgeList& el,
                    const Inputs& in, int pr_iterations, bool ref_lp) {
  const ref::SeqGraph g = ref::SeqGraph::from(el);
  Reference r;
  std::uint64_t edges = 0;
  for (const gen::Edge& e : el.edges) edges += vertex_term(e.src, e.dst);
  // Out-CSR term plus three times the in-CSR term (see csr_hash).
  r.ingest.exact = 4 * edges;

  for (const Stage s : w.stages) {
    std::vector<Digest> ds(1);
    Digest& d = ds[0];
    switch (s) {
      case Stage::kPageRank:
        r.pagerank = ref::pagerank(g, pr_iterations);
        d = pagerank_digest(r.pagerank);
        break;
      case Stage::kLabelProp: {
        const std::vector<std::uint64_t> labels =
            sized_label_propagation(g, 10);
        HG_CHECK_MSG((!ref_lp && g.n() > kRefLpMaxN) ||
                         labels == ref::label_propagation(g, 10),
                     "bench Label Propagation reference differs from src/ref");
        d.exact = vector_hash(labels);
        break;
      }
      case Stage::kWcc:
        d.exact = vector_hash(ref::wcc(g));
        break;
      case Stage::kHarmonic: {
        const gvid_t v = top_degree(g, 1).at(0);
        d.exact = v;
        d.approx = {ref::harmonic_centrality(g, v)};
        d.rel_tol = kHarmonicRel;
        break;
      }
      case Stage::kKCore:
        d.exact = vector_hash(ref::kcore_approx(g, kKCoreMaxI));
        break;
      case Stage::kScc: {
        std::vector<std::uint8_t> member(g.n(), 0);
        for (const gvid_t v : ref::largest_scc(g)) member[v] = 1;
        d.exact = vector_hash(member);
        break;
      }
      case Stage::kHarmonicTopK: {
        std::vector<gvid_t> top = top_degree(g, kTopK);
        std::sort(top.begin(), top.end());
        for (const gvid_t v : top) {
          d.exact += vertex_term(v, 0);
          d.approx.push_back(ref::harmonic_centrality(g, v));
        }
        d.rel_tol = kHarmonicRel;
        break;
      }
      case Stage::kBfsDirOpt:
        ds.clear();
        for (const gvid_t root : in.bfs_roots) {
          std::vector<std::int64_t> level = ref::bfs_levels(g, root, true);
          ds.push_back({vector_hash(level), {}, 0, 0});
        }
        break;
      case Stage::kSnapshotSave:
        break;
      case Stage::kSnapshotLoad:
        d = r.ingest;
        break;
    }
    r.stages.push_back(std::move(ds));
  }
  return r;
}

}  // namespace hpcgraph::e2e
