#pragma once
/// \file pipeline.hpp
/// The four end-to-end workloads and one repetition of their pipeline:
/// binary ingest through dgraph::Builder, then the workload's stages, each
/// timed from outside between rank barriers.  The benchmark drives the
/// library only through its public calls (io, Builder::from_file,
/// save_snapshot/load_snapshot, analytics::*) and reads BuildTiming,
/// Communicator::stats() deltas, pool sweep stats and the result structs.

#include <cstdint>
#include <string>
#include <vector>

#include "digest.hpp"
#include "dgraph/partition.hpp"
#include "gen/edge_list.hpp"
#include "obs/tracer.hpp"

namespace hpcgraph::e2e {

enum class Stage {
  kPageRank,
  kLabelProp,
  kWcc,
  kHarmonic,      ///< harmonic centrality of the max-degree vertex
  kKCore,
  kScc,
  kHarmonicTopK,
  kBfsDirOpt,     ///< one direction-optimizing BFS per fixed root
  kSnapshotSave,
  kSnapshotLoad,  ///< later stages run on the reloaded graph
};

/// Metric-name component of a stage ("pagerank", "snapshot.save", ...).
const char* stage_name(Stage s);

struct Workload {
  const char* name;
  bool rmat;  ///< R-MAT (Graph500 parameters, scrambled ids) or webgraph
  unsigned scale;
  /// Independent input graphs generated from one seed; timed repetitions
  /// cycle through them, so a run's medians average over their structure.
  unsigned graphs;
  dgraph::PartitionKind partition;
  int ranks;
  unsigned threads;  ///< pool threads per rank
  int pr_iterations;
  double pr_tolerance;  ///< 0 = fixed iteration count
  std::vector<Stage> stages;
};

inline constexpr unsigned kKCoreMaxI = 16;
inline constexpr std::size_t kTopK = 64;
inline constexpr std::size_t kBfsRoots = 8;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Inputs the benchmark derives from the generated graph besides the file.
struct Inputs {
  std::string edge_file;
  std::string snapshot_prefix;
  gvid_t n_global = 0;  ///< passed to the Builder: isolated top ids count
  std::uint64_t file_bytes = 0;
  std::vector<gvid_t> bfs_roots;  ///< fixed, seed-derived, out-degree > 0
};

/// Generator seed of input graph `j` of a run with seed `seed` (graph 0
/// uses the run's seed itself).
inline std::uint64_t input_seed(std::uint64_t seed, unsigned j) {
  return seed + 0x9e3779b97f4a7c15ULL * j;
}

gen::EdgeList generate(const Workload& w, unsigned scale, std::uint64_t seed);

/// Roots for the BFS stage: pseudo-random vertices with out-degree > 0.
std::vector<gvid_t> pick_bfs_roots(const gen::EdgeList& el,
                                   std::uint64_t seed);

/// One stage of one repetition, aggregated over ranks.
struct StageSample {
  double wall = 0;   ///< barrier to barrier, seconds
  double tpar = 0;   ///< max rank thread-CPU seconds
  double cpu_mean = 0;
  std::uint64_t bytes_remote = 0;  ///< summed over ranks
  std::uint64_t collectives = 0;   ///< max over ranks
  double sweep = 0;  ///< max over ranks of pool busy_max seconds
  std::uint64_t rounds = 0;  ///< iterations / levels from the result struct
  std::vector<Digest> digests;  ///< one per analytic call in the stage
};

/// One repetition of the pipeline.
struct RepSample {
  double pipeline = 0;   ///< ingest start to last stage end
  double ingest = 0;
  double analytics = 0;  ///< everything after ingest
  // io / dgraph builder layer (max over ranks unless noted)
  double read = 0, exchange = 0, lconv = 0;
  double build_imbalance = 0;  ///< max/mean rank BuildTiming::total
  std::uint64_t ghosts_max = 0;
  double edge_imbalance = 0;   ///< max/mean rank (m_out + m_in)
  double file_mib = 0;         ///< size of the edge file read
  double snapshot_mib = 0;
  Digest ingest_digest;
  std::vector<StageSample> stages;  ///< parallel to Workload::stages
  std::vector<double> pagerank_scores;  ///< gathered, only when requested
  std::string error;  ///< set when the repetition threw
};

/// Span names the traced repetition opens around each stage.
const char* stage_span(Stage s);

/// Run one repetition on a fresh CommWorld.  With `gather_pagerank` the
/// PageRank scores are gathered (untimed) for the full-vector oracle check.
/// Exceptions from the library are caught and reported in RepSample::error.
RepSample run_rep(const Workload& w, const Inputs& in, bool gather_pagerank,
                  obs::Tracer* tracer);

}  // namespace hpcgraph::e2e
