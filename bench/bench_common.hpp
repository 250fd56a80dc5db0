#pragma once
/// \file bench_common.hpp
/// Shared machinery for the table/figure harnesses.
///
/// Every bench binary regenerates one table or figure of the paper at a
/// reproduction scale chosen to finish in seconds on a laptop; flags
/// (--scale, --ranks, --iters, ...) widen the sweep toward paper scale.
///
/// **Timing on a single-core simulation host.**  Ranks are threads, so a
/// 16-rank run's wall time is roughly the *sum* of per-rank work, not the
/// max.  Each harness therefore reports, alongside wall time:
///
///   * `Tpar` — the maximum per-rank thread-CPU time: the wall time a
///     machine with one core per rank would see for the compute portion;
///   * measured communication volume (bytes crossing rank boundaries),
///     convertible to transfer time under a reference bandwidth
///     (`--gbps`, default 4 GB/s per the Gemini-era interconnects);
///   * the machine-independent balance counters (per-rank edges, ghosts).
///
/// Scaling *shapes* (who wins, where curves bend) come from Tpar + model;
/// wall time is printed for completeness.

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dgraph/builder.hpp"
#include "gen/edge_list.hpp"
#include "parcomm/comm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hpcgraph::bench {

/// Per-rank measurements of one timed region.
struct RankMetrics {
  double cpu = 0;            ///< thread-CPU seconds in the region
  double wall = 0;           ///< wall seconds (same for all ranks, roughly)
  std::uint64_t bytes_remote = 0;  ///< payload bytes sent to other ranks
  std::uint64_t collectives = 0;
  std::uint64_t ghost_rounds_dense = 0;   ///< forward (owner->ghost) rounds
  std::uint64_t ghost_rounds_reduce = 0;  ///< reverse (ghost->owner) rounds
};

/// Aggregate view of a distributed region.
struct RegionReport {
  double wall = 0;           ///< wall time of the whole region
  double tpar = 0;           ///< max per-rank CPU time ("parallel time")
  double cpu_total = 0;      ///< sum of per-rank CPU times
  Summary cpu;               ///< min/mean/max per-rank CPU
  std::uint64_t bytes_remote_total = 0;
  std::uint64_t bytes_remote_max = 0;

  /// Modelled parallel time: Tpar + max-rank transfer time at `gbps`.
  double modelled(double gbps) const {
    return tpar + static_cast<double>(bytes_remote_max) / (gbps * 1e9);
  }
};

/// Run `body(graph, comm)` on a fresh world over `el` and measure the body
/// as one region (construction excluded).  `body` runs on every rank.
RegionReport run_region(
    const gen::EdgeList& el, int nranks, dgraph::PartitionKind kind,
    const std::function<void(const dgraph::DistGraph&,
                             parcomm::Communicator&)>& body,
    std::uint64_t part_seed = 0,
    std::vector<RankMetrics>* per_rank = nullptr);

/// One machine-readable benchmark sample for `--json <path>` output: the
/// configuration, the primary metric's median/stddev across repetitions,
/// and any number of named secondary metrics.
struct BenchRecord {
  std::string name;     ///< measurement id, e.g. "H.pagerank.dense"
  int ranks = 0;        ///< simulated rank count
  int threads = 1;      ///< intra-rank worker threads
  double median_s = 0;  ///< median of the repetitions' primary metric
  double stddev_s = 0;  ///< population stddev across the repetitions
  std::vector<std::pair<std::string, double>> extra;  ///< metric -> value
};

/// Collects BenchRecords and writes them as one JSON document
/// (schema "hpcgraph-bench-v1") — the machine-readable counterpart to the
/// harnesses' printed tables, for CI smoke checks and committed baselines.
/// The document carries an `environment` block (host/pool threads, rank
/// count, build type, git sha) so a committed baseline records what machine
/// and build produced it.
class BenchJson {
 public:
  void add(BenchRecord r) { records_.push_back(std::move(r)); }
  bool empty() const { return records_.empty(); }
  /// Simulated rank count recorded in the environment block (0 = unset;
  /// harnesses sweeping several counts record the largest).
  void set_ranks(int nranks) { env_ranks_ = std::max(env_ranks_, nranks); }
  std::string to_json() const;
  void write(const std::string& path) const;

 private:
  std::vector<BenchRecord> records_;
  int env_ranks_ = 0;
};

/// Median of a sample set (0 if empty; argument by value, it is sorted).
double median_of(std::vector<double> xs);

/// Population standard deviation of a sample set (0 if fewer than 2).
double stddev_of(std::span<const double> xs);

/// Standard bench banner: what paper artifact this regenerates plus the
/// machine caveat.
void print_banner(const std::string& artifact, const std::string& workload);

/// Parse a comma-separated rank list flag ("1,2,4,8,16").
std::vector<int> parse_ranks(const Cli& cli, const std::string& flag,
                             std::vector<int> dflt);

}  // namespace hpcgraph::bench
