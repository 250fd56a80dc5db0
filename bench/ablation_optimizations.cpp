// Ablation harness for the design decisions DESIGN.md §4 calls out — each
// optimization the paper describes (or points at as future work) measured
// against its naive alternative on the same workload:
//
//   A. retained vs rebuilt send queues (§III-D1) on PageRank and LP;
//   B. partitioning quality: np / mp / rand / PuLP (§III-B + §VII) — edge
//      cut, ghost count, and PageRank time;
//   C. compressed vs plain CSR (§VII): bytes per edge and traversal speed;
//   D. top-down vs direction-optimizing BFS (the omitted BFS-specific
//      optimization): parallel time and communication volume.
//   F. bit-parallel multi-source BFS: harmonic top-64 batched into one
//      64-root MS-BFS sweep vs the paper's one-BFS-per-candidate loop —
//      wall/Tpar, communication rounds, and bytes on the wire.
//   G. superstep-engine overhead: PageRank through the SuperstepEngine vs
//      the pre-engine hand-rolled BSP loop, frozen here verbatim since the
//      bespoke loops were deleted from src/analytics.
//   K. runtime tracing overhead: the same PageRank region with the obs
//      tracer off and on.
//
// Sections E (delta ghost exchange), I (sweep schedules) and J (forced
// frontier representations) measured mode axes that have since been
// removed; EXPERIMENTS.md keeps their records.  `--sections LETTERS`
// restricts the run (e.g. --sections FK); `--json FILE` writes section K's
// measurements as machine-readable hpcgraph-bench-v1.

#include <atomic>
#include <cctype>
#include <cmath>
#include <iostream>
#include <memory>

#include "analytics/analytics.hpp"
#include "bench_common.hpp"
#include "dgraph/compressed_csr.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "dgraph/pulp_partition.hpp"
#include "gen/rmat.hpp"
#include "obs/tracer.hpp"
#include "gen/webgraph.hpp"
#include "util/parallel_for.hpp"
#include "util/timer.hpp"

namespace hb = hpcgraph::bench;
using namespace hpcgraph;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const unsigned scale = static_cast<unsigned>(cli.get_int("scale", 16));
  const int nranks = static_cast<int>(cli.get_int("ranks", 8));
  std::string sections = cli.get("sections", "ABCDFGK");
  for (char& c : sections) c = static_cast<char>(std::toupper(c));
  const auto want = [&](char s) {
    return sections.find(s) != std::string::npos;
  };
  const std::string json_path = cli.get("json", "");
  hb::BenchJson bench_json;

  gen::WebGraphParams wp;
  wp.n = gvid_t{1} << scale;
  wp.avg_degree = 16;
  const gen::WebGraph wc = gen::webgraph(wp);

  hb::print_banner("Ablations: the paper's optimizations vs naive variants",
                   "webgraph n=2^" + std::to_string(scale) + ", " +
                       std::to_string(nranks) + " ranks");

  // ---- A. Retained vs rebuilt queues. ----
  if (want('A')) {
    TablePrinter t({"Analytic", "Retained Tpar(s)", "Rebuilt Tpar(s)",
                    "Speedup"});
    const auto pr_run = [&](bool retain) {
      return hb::run_region(
                 wc.graph, nranks, dgraph::PartitionKind::kRandom,
                 [retain](const dgraph::DistGraph& g,
                          parcomm::Communicator& comm) {
                   analytics::PageRankOptions o;
                   o.max_iterations = 10;
                   o.retain_queues = retain;
                   (void)analytics::pagerank(g, comm, o);
                 })
          .tpar;
    };
    const auto lp_run = [&](bool retain) {
      return hb::run_region(
                 wc.graph, nranks, dgraph::PartitionKind::kRandom,
                 [retain](const dgraph::DistGraph& g,
                          parcomm::Communicator& comm) {
                   analytics::LabelPropOptions o;
                   o.iterations = 10;
                   o.retain_queues = retain;
                   (void)analytics::label_propagation(g, comm, o);
                 })
          .tpar;
    };
    const double pr_keep = pr_run(true), pr_rebuild = pr_run(false);
    const double lp_keep = lp_run(true), lp_rebuild = lp_run(false);
    t.add_row({"PageRank x10", TablePrinter::fmt(pr_keep, 3),
               TablePrinter::fmt(pr_rebuild, 3),
               TablePrinter::fmt(pr_rebuild / pr_keep, 2)});
    t.add_row({"LabelProp x10", TablePrinter::fmt(lp_keep, 3),
               TablePrinter::fmt(lp_rebuild, 3),
               TablePrinter::fmt(lp_rebuild / lp_keep, 2)});
    std::cout << "\nA. Retained send queues (paper §III-D1):\n";
    t.print(std::cout);
  }

  // ---- B. Partition quality. ----
  if (want('B')) {
    TablePrinter t({"Partition", "Edge cut", "Cut %", "Ghosts total",
                    "PR Tpar(s)", "CPU imbal"});
    const auto owner = std::make_shared<std::vector<std::int32_t>>(
        dgraph::pulp_partition(wc.graph, nranks));
    const dgraph::Partition pulp =
        dgraph::Partition::explicit_map(wc.graph.n, nranks, owner);

    struct Entry {
      std::string label;
      std::function<int(gvid_t)> owner_of;
      bool is_pulp;
    };
    const dgraph::Partition np =
        dgraph::Partition::vertex_block(wc.graph.n, nranks);
    const dgraph::Partition rnd =
        dgraph::Partition::random(wc.graph.n, nranks);

    const auto measure = [&](const std::string& label,
                             dgraph::PartitionKind kind,
                             const dgraph::Partition* explicit_part) {
      // Edge cut from the raw list.
      std::uint64_t cut = 0;
      const auto owner_fn = [&](gvid_t v) {
        return explicit_part ? explicit_part->owner(v)
                             : (kind == dgraph::PartitionKind::kVertexBlock
                                    ? np.owner(v)
                                    : rnd.owner(v));
      };
      for (const gen::Edge& e : wc.graph.edges)
        if (owner_fn(e.src) != owner_fn(e.dst)) ++cut;

      // Ghosts + PageRank timing on the built graph.
      std::vector<std::uint64_t> ghosts(nranks, 0);
      const auto body = [&](const dgraph::DistGraph& g,
                            parcomm::Communicator& comm) {
        ghosts[comm.rank()] = g.n_gst();
        analytics::PageRankOptions o;
        o.max_iterations = 10;
        (void)analytics::pagerank(g, comm, o);
      };
      hb::RegionReport rep;
      if (explicit_part) {
        parcomm::CommWorld world(nranks);
        std::vector<double> cpu(nranks);
        world.run([&](parcomm::Communicator& comm) {
          const dgraph::DistGraph g =
              dgraph::Builder::from_edge_list(comm, wc.graph, *explicit_part);
          comm.barrier();
          const double c0 = thread_cpu_seconds();
          body(g, comm);
          comm.barrier();
          cpu[comm.rank()] = thread_cpu_seconds() - c0;
        });
        MinMaxMean m;
        for (const double c : cpu) m.add(c);
        rep.tpar = m.max();
        rep.cpu = {m.min(), m.mean(), m.max()};
      } else {
        rep = hb::run_region(wc.graph, nranks, kind, body);
      }
      std::uint64_t ghost_total = 0;
      for (const auto gh : ghosts) ghost_total += gh;
      t.add_row({label, TablePrinter::fmt_si(static_cast<double>(cut), 2),
                 TablePrinter::fmt(100.0 * static_cast<double>(cut) /
                                       static_cast<double>(wc.graph.m()),
                                   1),
                 TablePrinter::fmt_si(static_cast<double>(ghost_total), 2),
                 TablePrinter::fmt(rep.tpar, 3),
                 TablePrinter::fmt(rep.cpu.imbalance(), 2)});
    };

    measure("np", dgraph::PartitionKind::kVertexBlock, nullptr);
    measure("rand", dgraph::PartitionKind::kRandom, nullptr);
    measure("PuLP", dgraph::PartitionKind::kExplicit, &pulp);
    std::cout << "\nB. Partitioning quality (§III-B; PuLP = §VII future "
                 "work):\n";
    t.print(std::cout);
  }

  // ---- C. Compressed CSR. ----
  if (want('C')) {
    TablePrinter t({"Representation", "Bytes/edge", "Total MB",
                    "Scan time (s)"});
    parcomm::CommWorld world(1);
    world.run([&](parcomm::Communicator& comm) {
      const dgraph::DistGraph g = dgraph::Builder::from_edge_list(
          comm, wc.graph, dgraph::PartitionKind::kVertexBlock);
      const dgraph::CompressedAdjacency c =
          dgraph::CompressedAdjacency::encode(g.out_index(),
                                              g.out_edges_raw());

      // Full adjacency scan: sum of neighbour ids (plain vs compressed).
      volatile std::uint64_t sink = 0;
      Timer plain_t;
      std::uint64_t acc = 0;
      for (lvid_t v = 0; v < g.n_loc(); ++v)
        for (const lvid_t u : g.out_neighbors(v)) acc += u;
      sink = acc;
      const double plain_s = plain_t.elapsed();

      Timer comp_t;
      acc = 0;
      for (lvid_t v = 0; v < g.n_loc(); ++v)
        c.for_each_neighbor(v, [&](lvid_t u) { acc += u; });
      sink = acc;
      (void)sink;
      const double comp_s = comp_t.elapsed();

      const double m_edges = static_cast<double>(g.m_out());
      t.add_row({"plain CSR (4 B ids)",
                 TablePrinter::fmt(static_cast<double>(c.plain_bytes()) /
                                       m_edges, 2),
                 TablePrinter::fmt(static_cast<double>(c.plain_bytes()) / 1e6,
                                   1),
                 TablePrinter::fmt(plain_s, 4)});
      t.add_row({"varint-delta CSR",
                 TablePrinter::fmt(static_cast<double>(c.total_bytes()) /
                                       m_edges, 2),
                 TablePrinter::fmt(static_cast<double>(c.total_bytes()) / 1e6,
                                   1),
                 TablePrinter::fmt(comp_s, 4)});
    });
    std::cout << "\nC. Graph compression (§VII future work #1), out-CSR of "
                 "rank 0 of 1:\n";
    t.print(std::cout);
  }

  // ---- D. Direction-optimizing BFS. ----
  if (want('D')) {
    TablePrinter t({"Traversal", "Tpar(s)", "MB remote total", "Levels"});
    const gvid_t root = wc.core.begin;
    for (const bool dopt : {false, true}) {
      std::atomic<int> levels{0};
      const hb::RegionReport rep = hb::run_region(
          wc.graph, nranks, dgraph::PartitionKind::kVertexBlock,
          [&](const dgraph::DistGraph& g, parcomm::Communicator& comm) {
            analytics::BfsOptions o;
            o.dir = analytics::Dir::kOut;
            o.direction_optimizing = dopt;
            const auto res = analytics::bfs(g, comm, root, o);
            if (comm.rank() == 0) levels = res.num_levels;
          });
      t.add_row({dopt ? "direction-optimizing" : "top-down (paper)",
                 TablePrinter::fmt(rep.tpar, 4),
                 TablePrinter::fmt(
                     static_cast<double>(rep.bytes_remote_total) / 1e6, 2),
                 TablePrinter::fmt_int(levels.load())});
    }
    std::cout << "\nD. BFS schedule (the paper omits BFS-specific "
                 "optimizations; this is the one it cites):\n";
    t.print(std::cout);
  }

  // ---- F. Batched (MS-BFS) vs per-source harmonic top-k. ----
  if (want('F')) {
    TablePrinter t({"Engine", "Tpar(s)", "Wall(s)", "Comm rounds",
                    "GX fwd/rev", "MB remote", "Top-1 HC"});
    for (const bool batched : {false, true}) {
      std::atomic<double> top_score{0.0};
      std::vector<hb::RankMetrics> per_rank;
      const hb::RegionReport rep = hb::run_region(
          wc.graph, nranks, dgraph::PartitionKind::kRandom,
          [&](const dgraph::DistGraph& g, parcomm::Communicator& comm) {
            analytics::HarmonicOptions o;
            o.batched = batched;
            const auto scored = analytics::harmonic_top_k(g, comm, 64, o);
            if (comm.rank() == 0 && !scored.empty())
              top_score = scored.front().score;
          },
          0, &per_rank);
      // Collectives are lockstep, so every rank counts the same rounds.
      std::uint64_t rounds = 0, fwd = 0, rev = 0;
      for (const auto& m : per_rank) {
        rounds = std::max(rounds, m.collectives);
        fwd = std::max(fwd, m.ghost_rounds_dense);
        rev = std::max(rev, m.ghost_rounds_reduce);
      }
      t.add_row({batched ? "MS-BFS batch=64" : "per-source (paper)",
                 TablePrinter::fmt(rep.tpar, 3),
                 TablePrinter::fmt(rep.wall, 3),
                 TablePrinter::fmt_int(static_cast<long long>(rounds)),
                 TablePrinter::fmt_int(static_cast<long long>(fwd)) + "/" +
                     TablePrinter::fmt_int(static_cast<long long>(rev)),
                 TablePrinter::fmt(
                     static_cast<double>(rep.bytes_remote_total) / 1e6, 2),
                 TablePrinter::fmt(top_score.load(), 4)});
    }
    std::cout << "\nF. Multi-source BFS batching (harmonic top-64, one\n"
                 "64-root bit-parallel sweep vs 64 separate traversals):\n";
    t.print(std::cout);
  }

  // ---- G. Superstep-engine overhead vs hand-rolled BSP loop. ----
  if (want('G')) {
    const int pr_iters = 10;

    // Frozen pre-engine PageRank: the exact bespoke loop the engine
    // replaced (same collective schedule, same FP order), kept here as the
    // ablation baseline.
    const auto handrolled = [&](const dgraph::DistGraph& g,
                                parcomm::Communicator& comm) {
      PoolFallback pf(nullptr);
      ThreadPool& tp = pf.get();
      const double n = static_cast<double>(g.n_global());
      dgraph::GhostExchange gx(g, comm, dgraph::Adjacency::kOut, nullptr);
      std::vector<double> rank(g.n_loc(), 1.0 / n);
      std::vector<double> next(g.n_loc());
      std::vector<double> contrib(g.n_total(), 0.0);
      constexpr double damping = 0.85;
      for (int it = 0; it < pr_iters; ++it) {
        double dangling_local = 0;
        for (lvid_t v = 0; v < g.n_loc(); ++v)
          if (g.out_degree(v) == 0) dangling_local += rank[v];
        const double dangling = comm.allreduce_sum(dangling_local);
        const double base = (1.0 - damping) / n + damping * dangling / n;
        tp.for_range(0, g.n_loc(), [&](unsigned, std::uint64_t lo,
                                       std::uint64_t hi) {
          for (std::uint64_t v = lo; v < hi; ++v) {
            const std::uint64_t d = g.out_degree(static_cast<lvid_t>(v));
            contrib[v] = d ? damping * rank[v] / static_cast<double>(d) : 0.0;
          }
        });
        gx.exchange<double>(contrib, comm);
        double delta_local = 0;
        tp.for_range(0, g.n_loc(), [&](unsigned, std::uint64_t lo,
                                       std::uint64_t hi) {
          double delta_chunk = 0;
          for (std::uint64_t v = lo; v < hi; ++v) {
            double sum = base;
            for (const lvid_t u : g.in_neighbors(static_cast<lvid_t>(v)))
              sum += contrib[u];
            next[v] = sum;
            delta_chunk += std::fabs(sum - rank[v]);
          }
          std::atomic_ref<double>(delta_local)
              .fetch_add(delta_chunk, std::memory_order_relaxed);
        });
        rank.swap(next);
        (void)comm.allreduce_sum(delta_local);
      }
    };

    const auto engine_run = [&](const dgraph::DistGraph& g,
                                parcomm::Communicator& comm) {
      analytics::PageRankOptions o;
      o.max_iterations = pr_iters;
      (void)analytics::pagerank(g, comm, o);
    };

    TablePrinter t({"Driver", "Tpar(s)", "Wall(s)"});
    const auto add = [&](const std::string& label, const auto& body) {
      const hb::RegionReport rep = hb::run_region(
          wc.graph, nranks, dgraph::PartitionKind::kRandom, body);
      t.add_row({label, TablePrinter::fmt(rep.tpar, 3),
                 TablePrinter::fmt(rep.wall, 3)});
    };
    add("hand-rolled loop (frozen)", handrolled);
    add("engine", engine_run);
    std::cout << "\nG. Superstep-engine overhead (PageRank x" << pr_iters
              << "):\n";
    t.print(std::cout);
  }

  // ---- K. Tracing overhead (EXPERIMENTS.md §K). ----
  // The obs layer is always compiled and runtime-gated: with no tracer
  // installed every Span is a thread-local load and a branch, with no clock
  // read.  Measure the same PageRank region with tracing off (no tracer
  // installed) and on (tracer installed, every rank + pool thread recording
  // into its lane) — the off/on gap should be within run-to-run noise.
  if (want('K')) {
    const int reps = static_cast<int>(cli.get_int("reps", 3));
    const auto pr_body = [](const dgraph::DistGraph& g,
                            parcomm::Communicator& comm) {
      analytics::PageRankOptions o;
      o.max_iterations = 10;
      (void)analytics::pagerank(g, comm, o);
    };
    const auto measure = [&](bool traced) {
      std::vector<double> tpars;
      for (int rep = 0; rep < reps; ++rep) {
        std::unique_ptr<obs::Tracer> tracer;
        if (traced) {
          tracer = std::make_unique<obs::Tracer>();
          tracer->install();  // before run_region spawns rank threads
        }
        tpars.push_back(hb::run_region(wc.graph, nranks,
                                       dgraph::PartitionKind::kRandom, pr_body)
                            .tpar);
      }
      return tpars;
    };
    const std::vector<double> off = measure(false);
    const std::vector<double> on = measure(true);
    const double off_med = hb::median_of(off), on_med = hb::median_of(on);
    const double overhead =
        off_med > 0 ? 100.0 * (on_med - off_med) / off_med : 0.0;

    TablePrinter t({"Tracing", "Tpar med(s)", "stddev", "Overhead"});
    t.add_row({"off", TablePrinter::fmt(off_med, 3),
               TablePrinter::fmt(hb::stddev_of(off), 3), "-"});
    t.add_row({"on", TablePrinter::fmt(on_med, 3),
               TablePrinter::fmt(hb::stddev_of(on), 3),
               TablePrinter::fmt(overhead, 1) + "%"});
    std::cout << "\nK. Runtime tracing overhead (PageRank, "
              << nranks << " ranks; obs spans + counters, DESIGN.md §13):\n";
    t.print(std::cout);

    hb::BenchRecord br;
    br.name = "K.pagerank.tracing_overhead";
    br.ranks = nranks;
    br.threads = 1;
    br.median_s = on_med;
    br.stddev_s = hb::stddev_of(on);
    br.extra = {{"baseline_median_s", off_med},
                {"baseline_stddev_s", hb::stddev_of(off)},
                {"overhead_pct", overhead}};
    bench_json.add(std::move(br));
  }

  bench_json.set_ranks(nranks);
  if (!json_path.empty()) {
    bench_json.write(json_path);
    std::cout << "\nwrote " << json_path << "\n";
  }

  std::cout
      << "\nExpected: retained queues beat rebuilt ones (A); PuLP cuts far\n"
         "fewer edges than random hashing, approaching the natural-order\n"
         "block cut (the crawl-order locality the paper credits) (B);\n"
         "compression roughly halves bytes/edge at a modest scan cost (C).\n"
         "(D) is a negative result at this scale: bottom-up levels ship a\n"
         "flag for every boundary vertex, which only pays off once frontier\n"
         "discovery messages dominate — consistent with the paper's choice\n"
         "to omit BFS-specific optimizations from its general framework.\n"
         "(F) the 64-way bit-parallel batch must cut communication rounds\n"
         "by >= 4x (one sweep's collectives serve all 64 roots) and win on\n"
         "wall/Tpar; the top-1 score must agree between engines up to FP\n"
         "summation order.  (G) the engine reproduces the hand-rolled\n"
         "schedule, so both rows should land within run-to-run noise of\n"
         "each other.\n";
  return 0;
}
