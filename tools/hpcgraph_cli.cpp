// hpcgraph — the command-line analytics driver.
//
// Runs any analytic in the collection over a binary edge file (the paper's
// input format) or a generated graph, and writes per-vertex results as TSV.
//
//   # structural report of an edge file
//   hpcgraph_cli --graph crawl.bin --analytic stats --ranks 8
//
//   # PageRank on a generated web crawl, results to pagerank.tsv
//   hpcgraph_cli --gen webgraph --scale 18 --analytic pagerank
//                --partition rand --ranks 16 --output pagerank.tsv
//
// Analytics: stats | pagerank | labelprop | wcc | scc | scc-decompose |
//            bfs | sssp | harmonic | kcore | kcore-exact | triangles |
//            betweenness
// Partitions: np (vertex block) | mp (edge block) | rand | pulp
// Generators: webgraph | rmat | er | twitter | livejournal | google

#include <fstream>
#include <iostream>
#include <memory>

#include "analytics/analytics.hpp"
#include "analytics/degree_stats.hpp"
#include "dgraph/builder.hpp"
#include "dgraph/compressed_csr.hpp"
#include "dgraph/pulp_partition.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/social.hpp"
#include "gen/webgraph.hpp"
#include "io/binary_edge_io.hpp"
#include "obs/emit.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hpcgraph;

namespace {

int usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: hpcgraph_cli (--graph FILE | --gen KIND --scale N) "
      "--analytic NAME\n"
      "                    [--ranks P] [--partition np|mp|rand|pulp] "
      "[--iters K]\n"
      "                    [--root V] [--output FILE] [--seed S]\n"
      "                    [--trace-events FILE] merged Chrome/Perfetto "
      "timeline of every rank and pool thread\n"
      "                    [--metrics-json FILE] per-rank + aggregated "
      "comm and ghost-plan memory metrics\n"
      "                    [--compressed-csr]    report varint-CSR memory "
      "footprint vs plain CSR\n"
      "analytics: stats pagerank labelprop wcc scc scc-decompose bfs sssp\n"
      "           harmonic kcore kcore-exact triangles betweenness\n"
      "generators: webgraph rmat er twitter livejournal google\n";
  return 2;
}

gen::EdgeList make_graph(const Cli& cli, bool& from_file, std::string& path) {
  path = cli.get("graph", "");
  from_file = !path.empty();
  // Query every flag up front so unknown-flag detection stays accurate.
  const std::string kind = cli.get("gen", "webgraph");
  const unsigned scale = static_cast<unsigned>(cli.get_int("scale", 16));
  const std::uint64_t seed = cli.get_int("seed", 1);
  const double d_avg = cli.get_double("avg-degree", 16);
  if (from_file) return {};  // read distributed later

  if (kind == "webgraph") {
    gen::WebGraphParams p;
    p.n = gvid_t{1} << scale;
    p.avg_degree = d_avg;
    p.seed = seed;
    return gen::webgraph(p).graph;
  }
  if (kind == "rmat") {
    gen::RmatParams p;
    p.scale = scale;
    p.avg_degree = d_avg;
    p.seed = seed;
    return gen::rmat(p);
  }
  if (kind == "er") {
    gen::ErParams p;
    p.n = gvid_t{1} << scale;
    p.m = static_cast<std::uint64_t>(d_avg * static_cast<double>(p.n));
    p.seed = seed;
    return gen::erdos_renyi(p);
  }
  if (kind == "twitter") return gen::twitter_like(1u << (20 - std::min(scale, 20u)), seed);
  if (kind == "livejournal") return gen::livejournal_like(64, seed);
  if (kind == "google") return gen::google_like(64, seed);
  HG_CHECK_MSG(false, "unknown generator " << kind);
}

/// Write per-vertex values gathered on rank 0 as "vertex<TAB>value" rows.
template <typename T>
void write_tsv(const dgraph::DistGraph& g, parcomm::Communicator& comm,
               std::span<const T> local, const std::string& file,
               const char* column) {
  const auto global = analytics::gather_global<T>(g, comm, local);
  if (comm.rank() != 0) return;
  std::ofstream out(file);
  HG_CHECK_MSG(out.good(), "cannot write " << file);
  out << "vertex\t" << column << "\n";
  for (gvid_t v = 0; v < g.n_global(); ++v) out << v << "\t" << global[v] << "\n";
  std::cout << "wrote " << file << " (" << g.n_global() << " rows)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help")) return usage();

  const std::string analytic = cli.get("analytic", "");
  if (analytic.empty()) return usage("--analytic is required");
  const int nranks = static_cast<int>(cli.get_int("ranks", 4));
  const std::string part_name = cli.get("partition", "np");
  const int iters = static_cast<int>(cli.get_int("iters", 10));
  const std::string output = cli.get("output", "");
  const gvid_t root = cli.get_int("root", 0);
  const std::size_t top_k =
      static_cast<std::size_t>(cli.get_int("top-k", 10));
  const std::size_t bc_sources =
      static_cast<std::size_t>(cli.get_int("sources", 16));
  const std::string trace_events = cli.get("trace-events", "");
  const std::string metrics_json = cli.get("metrics-json", "");
  const bool compressed_csr = cli.get_bool("compressed-csr", false);

  bool from_file = false;
  std::string path;
  const gen::EdgeList graph = make_graph(cli, from_file, path);

  dgraph::PartitionKind kind = dgraph::PartitionKind::kVertexBlock;
  if (part_name == "mp") kind = dgraph::PartitionKind::kEdgeBlock;
  else if (part_name == "rand") kind = dgraph::PartitionKind::kRandom;
  else if (part_name == "pulp") kind = dgraph::PartitionKind::kExplicit;
  else if (part_name != "np") return usage("unknown partition");

  // PuLP needs the whole edge list up front; only supported for generated
  // (or pre-loaded) graphs in this driver.
  std::shared_ptr<std::vector<std::int32_t>> pulp_owner;
  if (kind == dgraph::PartitionKind::kExplicit) {
    if (from_file) return usage("--partition pulp requires --gen");
    pulp_owner = std::make_shared<std::vector<std::int32_t>>(
        dgraph::pulp_partition(graph, nranks));
  }

  const auto unknown = cli.unknown_flags();
  if (!unknown.empty()) return usage(("unknown flag --" + unknown[0]).c_str());

  Timer total;
  // Install before CommWorld spawns rank threads so pool construction inside
  // the ranks sees the observer hook and every worker gets a timeline lane.
  obs::Tracer tracer;
  if (!trace_events.empty()) tracer.install();
  std::string metrics_payload;
  parcomm::CommWorld world(nranks);
  int status = 0;
  const auto rank_main = [&](parcomm::Communicator& comm) {
    obs::RankGuard obs_guard(comm.rank());
    obs::Span run_span(obs::span_name::kCliRun);
    // ---- Build. ----
    dgraph::BuildTiming timing;
    const dgraph::DistGraph g =
        from_file
            ? dgraph::Builder::from_file(comm, path, io::EdgeFormat::kU32,
                                         kind, 0, &timing)
            : (pulp_owner
                   ? dgraph::Builder::from_edge_list(
                         comm, graph,
                         dgraph::Partition::explicit_map(graph.n, nranks,
                                                         pulp_owner))
                   : dgraph::Builder::from_edge_list(comm, graph, kind));
    const bool root_rank = comm.rank() == 0;
    if (root_rank)
      std::cout << "graph: " << g.n_global() << " vertices, " << g.m_global()
                << " edges, " << nranks << " ranks (" << part_name << ")\n";

    // ---- Optional memory-footprint report: encode both adjacencies with
    // the varint/delta compressed CSR and compare resident bytes. ----
    if (compressed_csr) {
      const dgraph::CompressedAdjacency out_c =
          dgraph::CompressedAdjacency::encode(g.out_index(),
                                              g.out_edges_raw());
      const dgraph::CompressedAdjacency in_c =
          dgraph::CompressedAdjacency::encode(g.in_index(), g.in_edges_raw());
      const std::uint64_t comp =
          comm.allreduce_sum(out_c.total_bytes() + in_c.total_bytes());
      const std::uint64_t plain =
          comm.allreduce_sum(out_c.plain_bytes() + in_c.plain_bytes());
      if (root_rank)
        std::cout << "adjacency memory: plain CSR " << plain
                  << " bytes, compressed " << comp << " bytes ("
                  << TablePrinter::fmt(
                         100.0 * static_cast<double>(comp) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 plain, 1)),
                         1)
                  << "% of plain)\n";
    }

    // ---- Dispatch. ----
    if (analytic == "stats") {
      const auto st = analytics::degree_stats(g, comm);
      if (root_rank) {
        std::cout << "avg degree " << TablePrinter::fmt(st.avg_degree, 2)
                  << ", max out " << st.max_out << ", max in " << st.max_in
                  << ", isolated " << st.isolated << "\n";
        TablePrinter t({"degree >=", "out freq", "in freq"});
        for (unsigned b = 0; b < 40; ++b) {
          if (!st.out_hist.count(b) && !st.in_hist.count(b)) continue;
          t.add_row({TablePrinter::fmt_int(1LL << b),
                     TablePrinter::fmt_int(
                         static_cast<long long>(st.out_hist.count(b))),
                     TablePrinter::fmt_int(
                         static_cast<long long>(st.in_hist.count(b)))});
        }
        t.print(std::cout);
      }
    } else if (analytic == "pagerank") {
      analytics::PageRankOptions o;
      o.max_iterations = iters;
      const auto res = analytics::pagerank(g, comm, o);
      if (!output.empty())
        write_tsv<double>(g, comm, res.scores, output, "pagerank");
    } else if (analytic == "labelprop") {
      analytics::LabelPropOptions o;
      o.iterations = iters;
      const auto res = analytics::label_propagation(g, comm, o);
      if (!output.empty())
        write_tsv<std::uint64_t>(g, comm, res.labels, output, "community");
    } else if (analytic == "wcc") {
      analytics::WccOptions o;
      const auto res = analytics::wcc(g, comm, o);
      if (root_rank)
        std::cout << "largest WCC: " << res.largest_size << " (label "
                  << res.largest_label << "), swept " << res.swept
                  << ", bfs_levels " << res.bfs_levels << ", coloring_iters "
                  << res.coloring_iters << "\n";
      if (!output.empty())
        write_tsv<gvid_t>(g, comm, res.comp, output, "component");
    } else if (analytic == "scc") {
      analytics::SccOptions o;
      o.trim = true;
      const auto res = analytics::largest_scc(g, comm, o);
      if (root_rank)
        std::cout << "largest SCC: " << res.size << " (pivot " << res.pivot
                  << ", " << res.trimmed << " trimmed)\n";
      if (!output.empty())
        write_tsv<std::uint8_t>(g, comm, res.member, output, "in_scc");
    } else if (analytic == "scc-decompose") {
      analytics::SccDecomposeOptions o;
      const auto res = analytics::scc_decompose(g, comm, o);
      if (root_rank)
        std::cout << res.num_sccs << " SCCs, largest " << res.largest_size
                  << "\n";
      if (!output.empty())
        write_tsv<gvid_t>(g, comm, res.comp, output, "scc");
    } else if (analytic == "bfs") {
      analytics::BfsOptions o;
      const auto res = analytics::bfs_tree(g, comm, root, o);
      if (root_rank)
        std::cout << "visited " << res.visited << " in " << res.num_levels
                  << " levels from " << root << "\n";
      if (!output.empty())
        write_tsv<std::int64_t>(g, comm, res.level, output, "level");
    } else if (analytic == "sssp") {
      analytics::SsspOptions o;
      const auto res = analytics::sssp(g, comm, root, o);
      if (root_rank)
        std::cout << "reached " << res.reached << " in " << res.rounds
                  << " rounds from " << root << "\n";
      if (!output.empty())
        write_tsv<std::uint64_t>(g, comm, res.dist, output, "distance");
    } else if (analytic == "harmonic") {
      analytics::HarmonicOptions o;
      const auto top = analytics::harmonic_top_k(g, comm, top_k, o);
      if (root_rank) {
        TablePrinter t({"vertex", "harmonic centrality"});
        for (const auto& s : top)
          t.add_row({TablePrinter::fmt_int(static_cast<long long>(s.gid)),
                     TablePrinter::fmt(s.score, 2)});
        t.print(std::cout);
      }
    } else if (analytic == "kcore") {
      analytics::KCoreOptions o;
      const auto res = analytics::kcore_approx(g, comm, o);
      if (root_rank)
        for (const auto& s : res.stages)
          std::cout << "threshold " << s.threshold << ": removed "
                    << s.removed << ", alive " << s.alive_after
                    << ", largest_cc " << s.largest_cc << ", sweeps "
                    << s.peel_sweeps << "\n";
      if (!output.empty())
        write_tsv<std::uint64_t>(g, comm, res.bound, output, "coreness_ub");
    } else if (analytic == "kcore-exact") {
      analytics::CommonOptions o;
      const auto res = analytics::kcore_exact(g, comm, o);
      if (root_rank) std::cout << "degeneracy " << res.max_core << "\n";
      if (!output.empty())
        write_tsv<std::uint64_t>(g, comm, res.core, output, "coreness");
    } else if (analytic == "triangles") {
      const auto res = analytics::triangle_count(g, comm);
      if (root_rank) std::cout << "triangles: " << res.triangles << "\n";
    } else if (analytic == "betweenness") {
      analytics::BetweennessOptions o;
      o.num_sources = bc_sources;
      const auto res = analytics::betweenness(g, comm, o);
      if (!output.empty())
        write_tsv<double>(g, comm, res.score, output, "betweenness");
    } else {
      if (root_rank) status = usage("unknown analytic");
      return;
    }

    // ---- Observability finalize (collective; skipped uniformly when the
    // dispatch above bailed out, so no rank blocks). ----
    run_span.close();
    if (!metrics_json.empty()) {
      obs::Registry reg;
      reg.absorb(comm.stats());
      reg.set_gauge("dgraph.ghost_plan_bytes",
                    static_cast<double>(g.ghost_plan_bytes()));
      const std::string payload = obs::export_metrics(reg, comm);
      if (comm.rank() == 0) metrics_payload = payload;
    }
    if (!trace_events.empty()) obs::finalize_trace(tracer, comm);
  };
  // A named error on any rank (an unreadable --graph, a bad
  // HPCGRAPH_POOL_THREADS, an out-of-range id, ...) is rethrown here by
  // CommWorld::run: report it and exit 1; usage errors exit 2.
  try {
    world.run(rank_main);
  } catch (const CheckError& e) {
    if (!trace_events.empty()) obs::Tracer::uninstall();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (!trace_events.empty()) {
    obs::Tracer::uninstall();
    if (status == 0) {
      tracer.write_chrome_json(trace_events);
      std::cout << "wrote " << trace_events << " ("
                << tracer.merged_events().size() << " events)\n";
    }
  }
  if (status == 0 && !metrics_json.empty()) {
    obs::write_text_file(metrics_json, metrics_payload);
    std::cout << "wrote " << metrics_json << "\n";
  }
  if (status == 0)
    std::cout << "done in " << TablePrinter::fmt(total.elapsed(), 2)
              << " s\n";
  return status;
}
