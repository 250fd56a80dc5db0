#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include <thread>

#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"
#include "util/timer.hpp"

// Stamped by bench/CMakeLists.txt, the sha through a header it regenerates
// at every build; fall back for non-CMake builds.
#if __has_include("hg_git_sha.hpp")
#include "hg_git_sha.hpp"
#endif
#ifndef HPCGRAPH_BUILD_TYPE
#define HPCGRAPH_BUILD_TYPE "unknown"
#endif
#ifndef HPCGRAPH_GIT_SHA
#define HPCGRAPH_GIT_SHA "unknown"
#endif

namespace hpcgraph::bench {

RegionReport run_region(
    const gen::EdgeList& el, int nranks, dgraph::PartitionKind kind,
    const std::function<void(const dgraph::DistGraph&,
                             parcomm::Communicator&)>& body,
    std::uint64_t part_seed, std::vector<RankMetrics>* per_rank) {
  parcomm::CommWorld world(nranks);
  std::vector<RankMetrics> metrics(nranks);
  Timer wall;
  double region_wall = 0;

  world.run([&](parcomm::Communicator& comm) {
    obs::RankGuard obs_guard(comm.rank());
    const dgraph::DistGraph g =
        dgraph::Builder::from_edge_list(comm, el, kind, nullptr, part_seed);
    comm.barrier();
    comm.stats().reset();
    const double cpu0 = thread_cpu_seconds();
    if (comm.rank() == 0) wall.restart();

    {
      obs::Span region_span(obs::span_name::kBenchRegion);
      body(g, comm);
    }

    comm.barrier();
    RankMetrics& m = metrics[comm.rank()];
    m.cpu = thread_cpu_seconds() - cpu0;
    m.bytes_remote = comm.stats().bytes_remote;
    m.collectives = comm.stats().collective_calls;
    m.ghost_rounds_dense = comm.stats().ghost_rounds_dense;
    m.ghost_rounds_reduce = comm.stats().ghost_rounds_reduce;
    if (comm.rank() == 0) region_wall = wall.elapsed();
  });

  RegionReport rep;
  rep.wall = region_wall;
  MinMaxMean cpu;
  for (const RankMetrics& m : metrics) {
    cpu.add(m.cpu);
    rep.cpu_total += m.cpu;
    rep.bytes_remote_total += m.bytes_remote;
    rep.bytes_remote_max = std::max(rep.bytes_remote_max, m.bytes_remote);
  }
  rep.tpar = cpu.max();
  rep.cpu = {cpu.min(), cpu.mean(), cpu.max()};
  if (per_rank) *per_rank = std::move(metrics);
  return rep;
}

std::string BenchJson::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("schema", "hpcgraph-bench-v1");
  w.key("environment");
  w.begin_object();
  w.kv("host_threads",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("pool_threads", static_cast<std::uint64_t>(default_pool_threads()));
  w.kv("ranks", env_ranks_);
  w.kv("build_type", HPCGRAPH_BUILD_TYPE);
  w.kv("git_sha", HPCGRAPH_GIT_SHA);
  w.end_object();
  w.kv("results_total", static_cast<std::uint64_t>(records_.size()));
  w.key("results");
  w.begin_array();
  for (const BenchRecord& r : records_) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("ranks", r.ranks);
    w.kv("threads", r.threads);
    w.kv("median_s", r.median_s);
    w.kv("stddev_s", r.stddev_s);
    for (const auto& [k, v] : r.extra) w.kv(k, v);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void BenchJson::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  HG_CHECK_MSG(f != nullptr, "cannot open bench output file " << path);
  const std::string body = to_json();
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = (n == body.size()) && std::fclose(f) == 0;
  HG_CHECK_MSG(ok, "short write to bench output file " << path);
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double stddev_of(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  return std::sqrt(var / static_cast<double>(xs.size()));
}

void print_banner(const std::string& artifact, const std::string& workload) {
  std::cout << "==================================================================\n"
            << "hpcgraph reproduction — " << artifact << "\n"
            << "Workload: " << workload << "\n"
            << "Ranks are simulated as threads on this host; `Tpar` = max\n"
            << "per-rank CPU time (the parallel wall-time proxy), `wall` is\n"
            << "this host's timesliced wall time. See DESIGN.md / EXPERIMENTS.md.\n"
            << "==================================================================\n";
}

std::vector<int> parse_ranks(const Cli& cli, const std::string& flag,
                             std::vector<int> dflt) {
  if (!cli.has(flag)) return dflt;
  std::vector<int> out;
  std::stringstream ss(cli.get(flag, ""));
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) out.push_back(std::stoi(tok));
  return out.empty() ? dflt : out;
}

}  // namespace hpcgraph::bench
