#include "pipeline.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "analytics/analytics.hpp"
#include "dgraph/builder.hpp"
#include "dgraph/snapshot.hpp"
#include "gen/rmat.hpp"
#include "gen/webgraph.hpp"
#include "io/binary_edge_io.hpp"
#include "obs/export.hpp"
#include "parcomm/comm.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace hpcgraph::e2e {

using dgraph::DistGraph;
using dgraph::PartitionKind;
using parcomm::Communicator;

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kPageRank: return "pagerank";
    case Stage::kLabelProp: return "label_prop";
    case Stage::kWcc: return "wcc";
    case Stage::kHarmonic: return "harmonic";
    case Stage::kKCore: return "kcore";
    case Stage::kScc: return "scc";
    case Stage::kHarmonicTopK: return "harmonic_top_k";
    case Stage::kBfsDirOpt: return "bfs_diropt";
    case Stage::kSnapshotSave: return "snapshot.save";
    case Stage::kSnapshotLoad: return "snapshot.load";
  }
  return "?";
}

const char* stage_span(Stage s) {
  // Literals: obs lanes store the name pointer.
  switch (s) {
    case Stage::kPageRank: return "bench.pagerank";
    case Stage::kLabelProp: return "bench.label_prop";
    case Stage::kWcc: return "bench.wcc";
    case Stage::kHarmonic: return "bench.harmonic";
    case Stage::kKCore: return "bench.kcore";
    case Stage::kScc: return "bench.scc";
    case Stage::kHarmonicTopK: return "bench.harmonic_top_k";
    case Stage::kBfsDirOpt: return "bench.bfs_diropt";
    case Stage::kSnapshotSave: return "bench.snapshot.save";
    case Stage::kSnapshotLoad: return "bench.snapshot.load";
  }
  return "bench.?";
}

// Each workload puts a different layer on the critical path; README.md
// records why each exists and what it measured.  Every one uses at most
// four threads (ranks x pool threads) in one process.  No webgraph workload
// runs SCC: the max-degree-product pivot misses the giant SCC on most
// webgraph seeds (a known failure, README.md), and every operation the
// benchmark times must pass its oracle check.  Label Propagation, k-core
// and BFS times depend on the graph's structure (where the hubs fall, how
// many peeling rounds), not only its size, so those workloads average over
// four graphs from each seed; ingest and snapshot times do not (README.md).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "web-pipeline", .rmat = false, .scale = 16, .graphs = 4,
       .partition = PartitionKind::kVertexBlock, .ranks = 4, .threads = 1,
       .pr_iterations = 10, .pr_tolerance = 0.0,
       .stages = {Stage::kPageRank, Stage::kLabelProp, Stage::kWcc,
                  Stage::kHarmonic, Stage::kKCore}},
      {.name = "rmat-traverse", .rmat = true, .scale = 17, .graphs = 4,
       .partition = PartitionKind::kVertexBlock, .ranks = 4, .threads = 1,
       .pr_iterations = 0, .pr_tolerance = 0.0,
       .stages = {Stage::kWcc, Stage::kScc, Stage::kKCore,
                  Stage::kHarmonicTopK, Stage::kBfsDirOpt}},
      {.name = "web-rand-pagerank", .rmat = false, .scale = 17, .graphs = 4,
       .partition = PartitionKind::kRandom, .ranks = 2, .threads = 2,
       .pr_iterations = 200, .pr_tolerance = 1e-9,
       .stages = {Stage::kPageRank, Stage::kWcc}},
      {.name = "web-snapshot", .rmat = false, .scale = 19, .graphs = 1,
       .partition = PartitionKind::kVertexBlock, .ranks = 4, .threads = 1,
       .pr_iterations = 10, .pr_tolerance = 0.0,
       .stages = {Stage::kSnapshotSave, Stage::kSnapshotLoad,
                  Stage::kPageRank, Stage::kWcc}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

gen::EdgeList generate(const Workload& w, unsigned scale, std::uint64_t seed) {
  if (w.rmat) {
    gen::RmatParams p;
    p.scale = scale;
    p.avg_degree = 16;
    p.seed = seed;
    return gen::rmat(p);
  }
  gen::WebGraphParams p;
  p.n = gvid_t{1} << scale;
  p.avg_degree = 16;
  p.seed = seed;
  return std::move(gen::webgraph(p).graph);
}

std::vector<gvid_t> pick_bfs_roots(const gen::EdgeList& el,
                                   std::uint64_t seed) {
  std::vector<std::uint8_t> has_out(el.n, 0);
  for (const gen::Edge& e : el.edges) has_out[e.src] = 1;
  std::vector<gvid_t> roots;
  Rng rng(seed ^ 0xbf5ULL);
  while (roots.size() < kBfsRoots) {
    const gvid_t v = rng.below(el.n);
    if (has_out[v] && std::find(roots.begin(), roots.end(), v) == roots.end())
      roots.push_back(v);
  }
  return roots;
}

namespace {

/// Values one rank records for the host to aggregate after the run.
struct RankSlot {
  dgraph::BuildTiming timing;
  std::uint64_t ghosts = 0;
  std::uint64_t edges = 0;
  std::vector<double> cpu, sweep;
  std::vector<std::uint64_t> bytes, collectives;
};

/// Results kept past the timed region, digested afterwards.
struct Outputs {
  analytics::PageRankResult pr;
  analytics::LabelPropResult lp;
  analytics::WccResult wcc;
  gvid_t hc_vertex = kNullGvid;
  double hc = 0;
  analytics::KCoreResult kcore;
  analytics::SccResult scc;
  std::vector<analytics::ScoredVertex> top;
  std::vector<analytics::BfsResult> bfs;
};

/// Collective: sum over local vertices of vertex_term(gid, value(v)).
template <typename F>
std::uint64_t vertex_hash(const DistGraph& g, Communicator& comm, F&& value) {
  std::uint64_t h = 0;
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    h += vertex_term(g.global_id(v), static_cast<std::uint64_t>(value(v)));
  return comm.allreduce_sum(h);
}

/// Collective: edge-multiset hash of both CSRs (out term + 3 x in term, so
/// a builder that drops or corrupts either direction changes the sum).
std::uint64_t csr_hash(const DistGraph& g, Communicator& comm) {
  std::uint64_t out = 0, in = 0;
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    const gvid_t gv = g.global_id(v);
    for (const lvid_t u : g.out_neighbors(v))
      out += vertex_term(gv, g.global_id(u));
    for (const lvid_t u : g.in_neighbors(v))
      in += vertex_term(g.global_id(u), gv);
  }
  return comm.allreduce_sum(out + 3 * in);
}

template <typename T>
bool same(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// This rank's share of the reloaded graph equals the built one.
bool same_graph(const DistGraph& a, const DistGraph& b) {
  return a.n_global() == b.n_global() && a.m_global() == b.m_global() &&
         a.n_loc() == b.n_loc() && a.n_gst() == b.n_gst() &&
         same(a.out_index(), b.out_index()) &&
         same(a.out_edges_raw(), b.out_edges_raw()) &&
         same(a.in_index(), b.in_index()) &&
         same(a.in_edges_raw(), b.in_edges_raw()) &&
         same(a.ghost_globals(), b.ghost_globals()) &&
         same(a.boundary_locals(), b.boundary_locals());
}

struct Sketch {
  double s[kSketches];
};

/// Collective: stage digests of one repetition (untimed).
std::vector<Digest> stage_digests(Stage s, const DistGraph& g,
                                  const DistGraph& built, Communicator& comm,
                                  const Outputs& o) {
  std::vector<Digest> ds(1);
  Digest& d = ds[0];
  switch (s) {
    case Stage::kPageRank: {
      Sketch local{};
      for (lvid_t v = 0; v < g.n_loc(); ++v)
        for (unsigned k = 0; k < kSketches; ++k)
          local.s[k] += o.pr.scores[v] * sketch_weight(g.global_id(v), k);
      const Sketch all = comm.allreduce(local, [](Sketch a, const Sketch& b) {
        for (unsigned k = 0; k < kSketches; ++k) a.s[k] += b.s[k];
        return a;
      });
      d.approx.assign(all.s, all.s + kSketches);
      break;
    }
    case Stage::kLabelProp:
      d.exact = vertex_hash(g, comm, [&](lvid_t v) { return o.lp.labels[v]; });
      break;
    case Stage::kWcc:
      d.exact = vertex_hash(g, comm, [&](lvid_t v) { return o.wcc.comp[v]; });
      break;
    case Stage::kHarmonic:
      d.exact = o.hc_vertex;
      d.approx = {o.hc};
      break;
    case Stage::kKCore:
      d.exact = vertex_hash(g, comm, [&](lvid_t v) { return o.kcore.bound[v]; });
      break;
    case Stage::kScc:
      d.exact = vertex_hash(g, comm, [&](lvid_t v) { return o.scc.member[v]; });
      break;
    case Stage::kHarmonicTopK: {
      std::vector<analytics::ScoredVertex> top = o.top;
      std::sort(top.begin(), top.end(),
                [](const auto& a, const auto& b) { return a.gid < b.gid; });
      for (const auto& sv : top) {
        d.exact += vertex_term(sv.gid, 0);
        d.approx.push_back(sv.score);
      }
      break;
    }
    case Stage::kBfsDirOpt:
      ds.clear();
      for (const analytics::BfsResult& b : o.bfs) {
        Digest bd;
        // Unreached vertices hash as the oracle's level -1.
        bd.exact = vertex_hash(g, comm, [&](lvid_t v) {
          return b.level[v] < 0 ? std::int64_t{-1} : b.level[v];
        });
        ds.push_back(std::move(bd));
      }
      break;
    case Stage::kSnapshotSave:
      break;
    case Stage::kSnapshotLoad: {
      const bool differs = comm.allreduce_lor(!same_graph(g, built));
      const std::uint64_t h = csr_hash(g, comm);
      d.exact = differs ? 0 : h;
      break;
    }
  }
  return ds;
}

std::uint64_t rounds_of(Stage s, const Outputs& o) {
  switch (s) {
    case Stage::kPageRank: return static_cast<std::uint64_t>(o.pr.iterations_run);
    case Stage::kLabelProp: return static_cast<std::uint64_t>(o.lp.iterations_run);
    case Stage::kWcc:
      return static_cast<std::uint64_t>(o.wcc.bfs_levels + o.wcc.coloring_iters);
    case Stage::kKCore: {
      std::uint64_t r = 0;
      for (const auto& st : o.kcore.stages) r += static_cast<std::uint64_t>(st.peel_sweeps);
      return r;
    }
    case Stage::kScc:
      return static_cast<std::uint64_t>(o.scc.fw_levels + o.scc.bw_levels);
    case Stage::kBfsDirOpt: {
      std::uint64_t r = 0;
      for (const auto& b : o.bfs) r += static_cast<std::uint64_t>(b.num_levels);
      return r;
    }
    default: return 0;  // harmonic and snapshots report no rounds
  }
}

}  // namespace

RepSample run_rep(const Workload& w, const Inputs& in, bool gather_pagerank,
                  obs::Tracer* tracer) {
  const std::size_t ns = w.stages.size();
  RepSample rep;
  rep.stages.resize(ns);
  std::vector<RankSlot> slots(static_cast<std::size_t>(w.ranks));
  for (RankSlot& s : slots) {
    s.cpu.assign(ns, 0);
    s.sweep.assign(ns, 0);
    s.bytes.assign(ns, 0);
    s.collectives.assign(ns, 0);
  }

  // Install before the ranks spawn so their pools get worker lanes.
  if (tracer) tracer->install();
  parcomm::CommWorld world(w.ranks);
  try {
    world.run([&](Communicator& comm) {
      obs::RankGuard obs_guard(comm.rank());
      ThreadPool pool(w.threads);
      analytics::CommonOptions common;
      common.pool = &pool;
      const bool root = comm.rank() == 0;
      RankSlot& slot = slots[static_cast<std::size_t>(comm.rank())];

      comm.barrier();
      Timer clock;
      const DistGraph built = dgraph::Builder::from_file(
          comm, in.edge_file, io::EdgeFormat::kU32, w.partition, in.n_global,
          &slot.timing);
      comm.barrier();
      const double t_ingest = clock.elapsed();
      slot.ghosts = built.n_gst();
      slot.edges = built.m_out() + built.m_in();

      std::optional<DistGraph> reloaded;
      const DistGraph* g = &built;
      std::vector<const DistGraph*> ran_on(ns, g);
      Outputs out;
      double t_prev = t_ingest;
      for (std::size_t i = 0; i < ns; ++i) {
        const Stage s = w.stages[i];
        const double cpu0 = thread_cpu_seconds();
        const parcomm::CommStats st0 = comm.stats();
        const double sweep0 = pool.sweep_stats().busy_max;
        {
          obs::Span span(stage_span(s));
          switch (s) {
            case Stage::kPageRank: {
              analytics::PageRankOptions o;
              o.max_iterations = w.pr_iterations;
              o.tolerance = w.pr_tolerance;
              o.common = common;
              out.pr = analytics::pagerank(*g, comm, o);
              break;
            }
            case Stage::kLabelProp: {
              analytics::LabelPropOptions o;
              o.iterations = 10;
              o.common = common;
              out.lp = analytics::label_propagation(*g, comm, o);
              break;
            }
            case Stage::kWcc: {
              analytics::WccOptions o;
              o.common = common;
              out.wcc = analytics::wcc(*g, comm, o);
              break;
            }
            case Stage::kHarmonic: {
              analytics::HarmonicOptions o;
              o.common = common;
              out.hc_vertex = analytics::max_degree_vertex(*g, comm);
              out.hc = analytics::harmonic_centrality(*g, comm, out.hc_vertex, o);
              break;
            }
            case Stage::kKCore: {
              analytics::KCoreOptions o;
              o.max_i = kKCoreMaxI;
              o.common = common;
              out.kcore = analytics::kcore_approx(*g, comm, o);
              break;
            }
            case Stage::kScc: {
              analytics::SccOptions o;
              o.common = common;
              out.scc = analytics::largest_scc(*g, comm, o);
              break;
            }
            case Stage::kHarmonicTopK: {
              analytics::HarmonicOptions o;
              o.common = common;
              out.top = analytics::harmonic_top_k(*g, comm, kTopK, o);
              break;
            }
            case Stage::kBfsDirOpt: {
              analytics::BfsOptions o;
              o.direction_optimizing = true;
              o.common = common;
              out.bfs.clear();
              for (const gvid_t r : in.bfs_roots)
                out.bfs.push_back(analytics::bfs(*g, comm, r, o));
              break;
            }
            case Stage::kSnapshotSave:
              dgraph::save_snapshot(*g, comm, in.snapshot_prefix);
              break;
            case Stage::kSnapshotLoad:
              reloaded.emplace(dgraph::load_snapshot(comm, in.snapshot_prefix));
              g = &*reloaded;
              break;
          }
        }
        slot.cpu[i] = thread_cpu_seconds() - cpu0;
        const parcomm::CommStats d = comm.stats() - st0;
        slot.bytes[i] = d.bytes_remote;
        slot.collectives[i] = d.collective_calls;
        slot.sweep[i] = pool.sweep_stats().busy_max - sweep0;
        ran_on[i] = g;
        comm.barrier();
        if (root) {
          const double t = clock.elapsed();
          rep.stages[i].wall = t - t_prev;
          t_prev = t;
        }
      }
      if (root) {
        rep.ingest = t_ingest;
        rep.pipeline = t_prev;
        rep.analytics = t_prev - t_ingest;
      }

      // ---- Untimed: digests of every output, on the graph it ran on. ----
      const std::uint64_t ingest_hash = csr_hash(built, comm);
      std::vector<std::vector<Digest>> digests(ns);
      for (std::size_t i = 0; i < ns; ++i)
        digests[i] = stage_digests(w.stages[i], *ran_on[i], built, comm, out);
      std::vector<double> pr_all;
      const auto pr_at = std::find(w.stages.begin(), w.stages.end(),
                                   Stage::kPageRank);
      if (gather_pagerank && pr_at != w.stages.end())
        pr_all = analytics::gather_global<double>(
            *ran_on[static_cast<std::size_t>(pr_at - w.stages.begin())], comm,
            out.pr.scores);
      if (tracer) obs::finalize_trace(*tracer, comm);
      if (root) {
        rep.ingest_digest.exact = ingest_hash;
        for (std::size_t i = 0; i < ns; ++i) {
          rep.stages[i].digests = std::move(digests[i]);
          rep.stages[i].rounds = rounds_of(w.stages[i], out);
        }
        rep.pagerank_scores = std::move(pr_all);
      }
    });
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  if (tracer) obs::Tracer::uninstall();
  if (!rep.error.empty()) return rep;

  // ---- Host: aggregate the per-rank slots. ----
  const double p = static_cast<double>(w.ranks);
  double build_sum = 0, build_max = 0, edge_sum = 0, edge_max = 0;
  for (const RankSlot& s : slots) {
    rep.read = std::max(rep.read, s.timing.read);
    rep.exchange = std::max(rep.exchange, s.timing.exchange);
    rep.lconv = std::max(rep.lconv, s.timing.lconv);
    build_sum += s.timing.total();
    build_max = std::max(build_max, s.timing.total());
    rep.ghosts_max = std::max(rep.ghosts_max, s.ghosts);
    edge_sum += static_cast<double>(s.edges);
    edge_max = std::max(edge_max, static_cast<double>(s.edges));
  }
  rep.build_imbalance = build_max / (build_sum / p);
  rep.edge_imbalance = edge_max / (edge_sum / p);
  rep.file_mib = static_cast<double>(in.file_bytes) / (1024.0 * 1024.0);
  for (std::size_t i = 0; i < ns; ++i) {
    StageSample& st = rep.stages[i];
    double cpu_sum = 0;
    for (const RankSlot& s : slots) {
      st.tpar = std::max(st.tpar, s.cpu[i]);
      cpu_sum += s.cpu[i];
      st.bytes_remote += s.bytes[i];
      st.collectives = std::max(st.collectives, s.collectives[i]);
      st.sweep = std::max(st.sweep, s.sweep[i]);
    }
    st.cpu_mean = cpu_sum / p;
  }
  if (std::find(w.stages.begin(), w.stages.end(), Stage::kSnapshotSave) !=
      w.stages.end()) {
    std::uint64_t bytes = 0;
    for (int r = 0; r < w.ranks; ++r)
      bytes += std::filesystem::file_size(in.snapshot_prefix + "." +
                                          std::to_string(r));
    rep.snapshot_mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
  return rep;
}

}  // namespace hpcgraph::e2e
