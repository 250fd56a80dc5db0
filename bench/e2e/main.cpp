// hpcgraph_e2e — one workload of the end-to-end benchmark per process.
//
//   hpcgraph_e2e --workload NAME [--seed N] [--seconds S] [--min-reps N]
//                [--scale N] [--setup-reps N] [--trace FILE] [--json FILE]
//                [--workdir DIR] [--git-sha SHA] [--smoke] [--ref-lp]
//
// Timed runs refuse PARCOMM_VERIFY and sanitizer builds; --smoke marks a
// correctness-only run, which accepts them.  --ref-lp also checks Label
// Propagation against the src/ref oracle itself at any scale (oracle.hpp).
//
// Protocol (closed loop, one job at a time — batch analytics):
//   1. set-up: generate the workload's input graphs from --seed and write
//      each as a u32 binary edge file, --setup-reps times (setup_s is their
//      median);
//   2. one warm-up repetition per graph, checked in full against the src/ref
//      oracles (PageRank by L1 over the whole score vector), then discarded;
//   3. timed repetitions, cycling through the graphs in whole rounds, until
//      --seconds have passed and at least --min-reps ran; every one is
//      checked against the oracle digests;
//   4. with --trace, one extra repetition under obs::Tracer, written as a
//      Chrome trace and reduced to the span-based per-layer metrics.
// A calibration kernel (calibrate.hpp: arithmetic for set-up, memory for
// the repetitions) runs before the first and after every set-up and timed
// repetition; each phase's times are corrected by the median of its
// calibrations.  Raw wall times are kept in the JSON document beside the
// corrected ones.
// Writes one hpcgraph-e2e-workload-v1 JSON document (--json) and prints
// every metric with its unit.  run.py wraps this binary; see README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "io/binary_edge_io.hpp"
#include "obs/emit.hpp"
#include "oracle.hpp"
#include "parcomm/verify.hpp"
#include "pipeline.hpp"
#include "trace_metrics.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#ifndef HPCGRAPH_E2E_BUILD_TYPE
#define HPCGRAPH_E2E_BUILD_TYPE "unknown"
#endif

using namespace hpcgraph;
using namespace hpcgraph::e2e;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

bool instrumented_build() {
#if HPCGRAPH_VERIFY_ENABLED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

/// Restart the process's resident-set high-water mark (Linux clear_refs),
/// so the peak covers only the next repetition, not set-up, the oracles or
/// the heap of the repetitions before it.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  return static_cast<bool>(f << "5" << std::flush);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    f.ignore(1 << 16, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  std::size_t n = 0;
};

Quartiles quartiles(std::vector<double> xs) {
  Quartiles q;
  q.n = xs.size();
  if (xs.empty()) return q;
  std::sort(xs.begin(), xs.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  q.q1 = at(0.25);
  q.median = at(0.5);
  q.q3 = at(0.75);
  return q;
}

template <typename F>
double median_over(const std::vector<RepSample>& reps, F&& f) {
  std::vector<double> xs;
  for (const RepSample& r : reps) xs.push_back(static_cast<double>(f(r)));
  return quartiles(std::move(xs)).median;
}

bool is_analytic(Stage s) {
  return s != Stage::kSnapshotSave && s != Stage::kSnapshotLoad;
}

/// Calibration samples taken between the repetitions of one phase.  One
/// sample is too noisy to correct one repetition (their quartiles lie
/// 10-20% apart), but the host drifts over minutes, so the median over the
/// phase is the speed of every repetition in it.
class Calibrator {
 public:
  /// `kernel` takes `reference` seconds on the reference host.
  Calibrator(std::function<double()> kernel, double reference)
      : kernel_(std::move(kernel)), reference_(reference) {
    sample();
  }

  void sample() { samples_.push_back(kernel_()); }

  /// reference / median sample: multiply a wall time by this.
  double factor() const { return reference_ / quartiles(samples_).median; }

  void write_json(util::JsonWriter& j) const {
    j.begin_object();
    j.kv("reference_s", reference_);
    j.key("samples_s");
    j.begin_array();
    for (const double x : samples_) j.value(x);
    j.end_array();
    j.end_object();
  }

 private:
  std::function<double()> kernel_;
  double reference_;
  std::vector<double> samples_;
};

/// Every time field of `r` times `f` (see Calibrator).
void correct_times(RepSample& r, double f) {
  for (double* t : {&r.pipeline, &r.ingest, &r.analytics, &r.read, &r.exchange,
                    &r.lconv})
    *t *= f;
  for (StageSample& s : r.stages) {
    s.wall *= f;
    s.tpar *= f;
    s.cpu_mean *= f;
    s.sweep *= f;
  }
}

// ---- Output checks --------------------------------------------------------

struct OpResult {
  std::string name;
  bool ok = false;
  Digest digest;
};

struct RepRecord {
  std::string kind;  ///< warmup | timed | traced
  unsigned graph = 0;  ///< which of the workload's input graphs
  std::string error;
  double pipeline = 0;  ///< raw wall seconds
  double peak_rss_mib = 0;
  std::vector<OpResult> ops;
};

std::vector<std::string> op_names(const Workload& w) {
  std::vector<std::string> names{"ingest"};
  for (const Stage s : w.stages) {
    if (s != Stage::kBfsDirOpt) {
      names.emplace_back(stage_name(s));
      continue;
    }
    for (std::size_t j = 0; j < kBfsRoots; ++j)
      names.push_back(std::string(stage_name(s)) + "." + std::to_string(j));
  }
  return names;
}

std::vector<Digest> flat_reference(const Reference& ref) {
  std::vector<Digest> out{ref.ingest};
  for (const auto& ds : ref.stages) out.insert(out.end(), ds.begin(), ds.end());
  return out;
}

/// Every operation of `rep` against the oracle digests.  A repetition that
/// threw fails all of its operations.
RepRecord check_rep(const Workload& w, const RepSample& rep,
                    const std::vector<Digest>& want, std::string kind,
                    unsigned graph) {
  RepRecord rec;
  rec.kind = std::move(kind);
  rec.graph = graph;
  rec.error = rep.error;
  rec.pipeline = rep.pipeline;
  std::vector<Digest> got;
  if (rep.error.empty()) {
    got.push_back(rep.ingest_digest);
    for (const StageSample& st : rep.stages)
      got.insert(got.end(), st.digests.begin(), st.digests.end());
  }
  const std::vector<std::string> names = op_names(w);
  for (std::size_t i = 0; i < names.size(); ++i) {
    OpResult op;
    op.name = names[i];
    if (i < got.size()) {
      op.digest = got[i];
      op.ok = i < want.size() && matches(got[i], want[i]);
    }
    rec.ops.push_back(std::move(op));
  }
  return rec;
}

// ---- Report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_digest(util::JsonWriter& j, const Digest& d) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(d.exact));
  j.kv("exact", hex);
  j.key("approx");
  j.begin_array();
  for (const double v : d.approx) j.value(v);
  j.end_array();
}

int usage(const char* msg) {
  std::cerr << "hpcgraph_e2e: " << msg << "\n"
            << "usage: hpcgraph_e2e --workload NAME [--seed N] [--seconds S]"
               " [--min-reps N] [--scale N] [--setup-reps N] [--trace FILE]"
               " [--json FILE] [--workdir DIR] [--git-sha SHA] [--smoke]"
               " [--ref-lp]\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold after the first large free, and from
  // then on where a freed graph array sits decides the next repetition's
  // peak RSS (281-402 MiB between repetitions of one input).  Pinning the
  // threshold at its default start keeps every large array mmapped, so the
  // peak is the program's own footprint.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Cli cli(argc, argv);
  const Workload* wp = find_workload(cli.get("workload", ""));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 15);
  const auto min_reps = static_cast<std::size_t>(cli.get_int("min-reps", 5));
  const int setup_reps = static_cast<int>(cli.get_int("setup-reps", 5));
  const std::string trace_path = cli.get("trace", "");
  const std::string json_path = cli.get("json", "");
  const std::filesystem::path workdir = cli.get("workdir", ".bench_build/work");
  const std::string git_sha = cli.get("git-sha", "unknown");
  const bool smoke = cli.get_bool("smoke", false);
  const bool ref_lp = cli.get_bool("ref-lp", false);
  const unsigned scale = wp ? static_cast<unsigned>(cli.get_int("scale", wp->scale)) : 0;
  if (!cli.unknown_flags().empty())
    return usage(("unknown flag --" + cli.unknown_flags()[0]).c_str());
  if (!wp) return usage("--workload must name one of the workloads");
  if (setup_reps < 1 || min_reps < 1) return usage("repetition counts must be >= 1");
  if (!smoke && instrumented_build())
    return usage("timed runs refuse PARCOMM_VERIFY and sanitizer builds "
                 "(use --smoke for a correctness-only run)");
  const Workload& w = *wp;

  std::filesystem::create_directories(workdir);
  const unsigned ng = w.graphs;
  std::vector<Inputs> ins(ng);
  for (unsigned j = 0; j < ng; ++j) {
    const std::filesystem::path stem =
        workdir / (std::string(w.name) + "." + std::to_string(j));
    ins[j].edge_file = stem.string() + ".edges";
    ins[j].snapshot_prefix = stem.string() + ".snap";
    ins[j].n_global = gvid_t{1} << scale;
  }

  // ---- 1. Set-up: every input graph generated and written, --setup-reps
  // times (single-threaded random-number arithmetic, so calibrated by the
  // arithmetic kernel). ----
  std::vector<double> setup_s, setup_wall;
  std::vector<gen::EdgeList> els(ng);
  Calibrator setup_cal(calibrate_arith, kArithReferenceSeconds);
  for (int i = 0; i < setup_reps; ++i) {
    Timer t;
    for (unsigned j = 0; j < ng; ++j) {
      els[j] = generate(w, scale, input_seed(seed, j));
      io::write_edge_file(ins[j].edge_file, els[j]);
    }
    setup_wall.push_back(t.elapsed());
    setup_cal.sample();
  }
  for (const double s : setup_wall) setup_s.push_back(s * setup_cal.factor());
  const bool has_bfs = std::find(w.stages.begin(), w.stages.end(),
                                 Stage::kBfsDirOpt) != w.stages.end();
  std::vector<std::uint64_t> edges;
  for (unsigned j = 0; j < ng; ++j) {
    ins[j].file_bytes = std::filesystem::file_size(ins[j].edge_file);
    if (has_bfs) ins[j].bfs_roots = pick_bfs_roots(els[j], input_seed(seed, j));
    edges.push_back(els[j].m());
  }

  // ---- 2. Warm-up per graph, checked in full; the oracles run on the
  // edge lists. ----
  std::vector<RepRecord> records;
  std::vector<std::vector<Digest>> want(ng);
  double warmup_s = 0, oracle_s = 0;
  for (unsigned j = 0; j < ng; ++j) {
    Timer t;
    const RepSample warm = run_rep(w, ins[j], /*gather_pagerank=*/true, nullptr);
    warmup_s += t.restart();
    int pr_iters = w.pr_iterations;
    for (std::size_t i = 0; i < w.stages.size() && warm.error.empty(); ++i)
      if (w.stages[i] == Stage::kPageRank)
        pr_iters = static_cast<int>(warm.stages[i].rounds);
    const Reference ref = reference(w, els[j], ins[j], pr_iters, ref_lp);
    oracle_s += t.elapsed();
    want[j] = flat_reference(ref);
    records.push_back(check_rep(w, warm, want[j], "warmup", j));
    if (!ref.pagerank.empty() && warm.error.empty()) {
      double l1 = 0;
      for (std::size_t v = 0; v < ref.pagerank.size(); ++v)
        l1 += std::fabs(warm.pagerank_scores.at(v) - ref.pagerank[v]);
      for (OpResult& op : records.back().ops)
        if (op.name == "pagerank" && !(l1 <= kPageRankL1)) op.ok = false;
      std::cout << "warm-up PageRank L1 vs oracle, graph " << j << ": " << l1 << "\n";
    }
    els[j] = gen::EdgeList{};
  }
  std::vector<std::pair<const char*, double>> phases{
      {"setup_s", std::accumulate(setup_wall.begin(), setup_wall.end(), 0.0)},
      {"warmup_s", warmup_s},
      {"oracle_s", oracle_s}};

  // ---- 3. Timed repetitions, cycling through the graphs in whole rounds,
  // each with its own peak RSS. ----
  // Freed memory goes back to the OS before every repetition, so each peak
  // is that repetition's footprint, not heap left over from the last one.
  const unsigned threads = static_cast<unsigned>(w.ranks) * w.threads;
  std::vector<RepSample> timed;
  std::vector<double> peaks, walls, graph0;  // graph0: corrected, graph 0 only
  bool rss_reset = true;
  Timer phase;
  Calibrator cal([threads] { return calibrate(threads); }, kReferenceSeconds);
  for (std::size_t n = 0; n % ng != 0 || n < min_reps ||
                          (phase.elapsed() < seconds && n < 1000);
       ++n) {
    const auto j = static_cast<unsigned>(n % ng);
    malloc_trim(0);
    rss_reset = reset_peak_rss() && rss_reset;
    RepSample r = run_rep(w, ins[j], false, nullptr);
    RepRecord rec = check_rep(w, r, want[j], "timed", j);
    rec.peak_rss_mib = peak_rss_mib();
    records.push_back(std::move(rec));
    cal.sample();
    if (!r.error.empty()) continue;
    walls.push_back(r.pipeline);
    peaks.push_back(records.back().peak_rss_mib);
    if (j == 0) graph0.push_back(r.pipeline);
    timed.push_back(std::move(r));
  }
  const double factor = cal.factor();
  for (RepSample& r : timed) correct_times(r, factor);
  for (double& t : graph0) t *= factor;
  phases.emplace_back("timed_s", phase.elapsed());
  phase.restart();

  // ---- 4. Traced repetition. ----
  std::vector<const char*> windows;
  for (const Stage s : w.stages) windows.push_back(stage_span(s));
  TraceMetrics tm;
  double traced_pipeline = 0;
  if (!trace_path.empty()) {
    obs::TracerOptions topts;
    topts.ring_capacity = std::size_t{1} << 18;
    obs::Tracer tracer(topts);
    const RepSample tr = run_rep(w, ins[0], false, &tracer);
    records.push_back(check_rep(w, tr, want[0], "traced", 0));
    if (tr.error.empty()) {
      tracer.write_chrome_json(trace_path);
      tm = analyze_trace(tracer, windows, w.ranks);
      traced_pipeline = tr.pipeline * factor;
      for (TraceStage& t : tm.stages)
        for (double* x : {&t.compute, &t.exchange, &t.idle, &t.pack, &t.scatter,
                          &t.route, &t.window, &t.covered})
          *x *= factor;
    }
    phases.emplace_back("traced_s", phase.elapsed());
  }
  for (const Inputs& in : ins) {
    std::filesystem::remove(in.edge_file);
    for (int r = 0; r < w.ranks; ++r)
      std::filesystem::remove(in.snapshot_prefix + "." + std::to_string(r));
  }

  // ---- Failures. ----
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < records.size(); ++i)
    for (const OpResult& op : records[i].ops) {
      ++attempted;
      if (op.ok) continue;
      ++failed;
      if (failures.size() < 20)
        failures.push_back("rep " + std::to_string(i) + " (" + records[i].kind +
                           ", graph " + std::to_string(records[i].graph) + "): " + op.name +
                           (records[i].error.empty() ? " output differs from oracle"
                                                     : " threw: " + records[i].error));
    }

  // ---- Metrics. ----
  const std::size_t ns = w.stages.size();
  const auto med = [&](auto&& f) { return median_over(timed, f); };
  const auto q_of = [&](auto&& f) {
    std::vector<double> xs;
    for (const RepSample& r : timed) xs.push_back(f(r));
    return quartiles(std::move(xs));
  };
  struct E2e {
    std::string name;
    Quartiles q;  ///< calibrated
    std::string unit;
    Quartiles wall{};  ///< raw wall seconds, where kept
  };
  std::vector<E2e> e2e = {
      {"pipeline_s", q_of([](const RepSample& r) { return r.pipeline; }), "s",
       quartiles(walls)},
      {"ingest_s", q_of([](const RepSample& r) { return r.ingest; }), "s"},
      {"analytics_s", q_of([](const RepSample& r) { return r.analytics; }), "s"},
      {"setup_s", quartiles(setup_s), "s", quartiles(setup_wall)},
      {"peak_rss_mib", quartiles(peaks), "MiB"},
  };
  const double failed_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;

  std::vector<Metric> layer;
  const double file_mib = static_cast<double>(ins[0].file_bytes) / kMiB;
  layer.push_back({"io.read_s", med([](const RepSample& r) { return r.read; }), "s"});
  layer.push_back({"io.read_mib_per_s",
                   med([](const RepSample& r) { return r.file_mib / r.read; }), "MiB/s"});
  layer.push_back({"dgraph.build.exchange_s",
                   med([](const RepSample& r) { return r.exchange; }), "s"});
  layer.push_back({"dgraph.build.lconv_s",
                   med([](const RepSample& r) { return r.lconv; }), "s"});
  layer.push_back({"dgraph.build.imbalance",
                   med([](const RepSample& r) { return r.build_imbalance; }), "ratio"});
  layer.push_back({"dgraph.ghosts_max",
                   med([](const RepSample& r) { return r.ghosts_max; }), "count"});
  layer.push_back({"dgraph.edge_imbalance",
                   med([](const RepSample& r) { return r.edge_imbalance; }), "ratio"});

  // Analytics-wide sums (snapshot stages excluded) and per-stage detail.
  const auto sum_stages = [&](const RepSample& r, auto&& f) {
    double s = 0;
    for (std::size_t i = 0; i < ns; ++i)
      if (is_analytic(w.stages[i])) s += static_cast<double>(f(r.stages[i]));
    return s;
  };
  layer.push_back({"analytics.tpar_s", med([&](const RepSample& r) {
                     return sum_stages(r, [](const StageSample& s) { return s.tpar; });
                   }), "s"});
  layer.push_back({"analytics.imbalance", med([&](const RepSample& r) {
                     return sum_stages(r, [](const StageSample& s) { return s.tpar; }) /
                            sum_stages(r, [](const StageSample& s) { return s.cpu_mean; });
                   }), "ratio"});
  layer.push_back({"analytics.rounds", med([&](const RepSample& r) {
                     return sum_stages(r, [](const StageSample& s) { return s.rounds; });
                   }), "count"});
  layer.push_back({"parcomm.bytes_remote", med([&](const RepSample& r) {
                     return sum_stages(r, [](const StageSample& s) { return s.bytes_remote; });
                   }), "bytes"});
  layer.push_back({"parcomm.collectives", med([&](const RepSample& r) {
                     return sum_stages(r, [](const StageSample& s) { return s.collectives; });
                   }), "count"});
  layer.push_back({"util.pool.sweep_s", med([&](const RepSample& r) {
                     return sum_stages(r, [](const StageSample& s) { return s.sweep; });
                   }), "s"});
  if (!trace_path.empty()) {
    TraceStage sum;
    for (std::size_t i = 0; i < ns && i < tm.stages.size(); ++i) {
      if (!is_analytic(w.stages[i])) continue;
      const TraceStage& t = tm.stages[i];
      sum.compute += t.compute;
      sum.exchange += t.exchange;
      sum.idle += t.idle;
      sum.pack += t.pack;
      sum.scatter += t.scatter;
      sum.route += t.route;
      sum.window += t.window;
      sum.covered += t.covered;
    }
    const double untraced = quartiles(graph0).median;  // the traced graph
    layer.push_back({"engine.compute_s", sum.compute, "s"});
    layer.push_back({"engine.exchange_s", sum.exchange, "s"});
    layer.push_back({"engine.idle_s", sum.idle, "s"});
    layer.push_back({"ghost.pack_s", sum.pack, "s"});
    layer.push_back({"ghost.scatter_s", sum.scatter, "s"});
    layer.push_back({"frontier.route_s", sum.route, "s"});
    layer.push_back({"obs.accounted_frac",
                     sum.window > 0 ? sum.covered / sum.window : 0.0, "ratio"});
    layer.push_back({"obs.overhead_frac",
                     untraced > 0 ? traced_pipeline / untraced - 1.0 : 0.0, "ratio"});
    layer.push_back({"obs.dropped_events", static_cast<double>(tm.dropped), "count"});
  }
  for (std::size_t i = 0; i < ns; ++i) {
    const Stage s = w.stages[i];
    const std::string a = stage_name(s);
    const auto st = [&](auto&& f) {
      return med([&](const RepSample& r) { return f(r.stages[i]); });
    };
    if (!is_analytic(s)) {
      layer.push_back({"dgraph." + a + "_s",
                       st([](const StageSample& x) { return x.wall; }), "s"});
      continue;
    }
    layer.push_back({"analytics." + a + ".wall_s",
                     st([](const StageSample& x) { return x.wall; }), "s"});
    layer.push_back({"analytics." + a + ".tpar_s",
                     st([](const StageSample& x) { return x.tpar; }), "s"});
    layer.push_back({"analytics." + a + ".imbalance",
                     st([](const StageSample& x) { return x.tpar / x.cpu_mean; }),
                     "ratio"});
    layer.push_back({"analytics." + a + ".rounds",
                     st([](const StageSample& x) { return x.rounds; }), "count"});
    layer.push_back({"parcomm." + a + ".bytes_remote",
                     st([](const StageSample& x) { return x.bytes_remote; }), "bytes"});
    layer.push_back({"parcomm." + a + ".collectives",
                     st([](const StageSample& x) { return x.collectives; }), "count"});
    if (!trace_path.empty() && i < tm.stages.size()) {
      const TraceStage& t = tm.stages[i];
      layer.push_back({"engine." + a + ".compute_s", t.compute, "s"});
      layer.push_back({"engine." + a + ".exchange_s", t.exchange, "s"});
      layer.push_back({"engine." + a + ".idle_s", t.idle, "s"});
      layer.push_back({"ghost." + a + ".pack_s", t.pack, "s"});
      layer.push_back({"ghost." + a + ".scatter_s", t.scatter, "s"});
      layer.push_back({"frontier." + a + ".route_s", t.route, "s"});
      layer.push_back({"obs." + a + ".accounted_frac",
                       t.window > 0 ? t.covered / t.window : 0.0, "ratio"});
    }
  }
  if (std::find(w.stages.begin(), w.stages.end(), Stage::kSnapshotSave) !=
      w.stages.end())
    layer.push_back({"dgraph.snapshot.mib",
                     med([](const RepSample& r) { return r.snapshot_mib; }), "MiB"});

  // ---- Print. ----
  std::cout << "workload " << w.name << ": " << (w.rmat ? "rmat" : "webgraph")
            << " 2^" << scale << " x " << ng << " graph(s), " << edges[0]
            << " edges (" << TablePrinter::fmt(file_mib, 1) << " MiB file) in graph 0, "
            << dgraph::partition_label(w.partition) << ", " << w.ranks
            << " ranks x " << w.threads << " threads, seed " << seed << "\n";
  TablePrinter et({"end-to-end", "median", "q1", "q3", "n", "unit", "raw wall median"});
  for (const E2e& e : e2e)
    et.add_row({e.name, TablePrinter::fmt(e.q.median, 4), TablePrinter::fmt(e.q.q1, 4),
                TablePrinter::fmt(e.q.q3, 4),
                TablePrinter::fmt_int(static_cast<long long>(e.q.n)), e.unit,
                e.wall.n ? TablePrinter::fmt(e.wall.median, 4) : ""});
  et.add_row({"failed_frac", TablePrinter::fmt(failed_frac, 4), "", "",
              TablePrinter::fmt_int(static_cast<long long>(attempted)), "ratio", ""});
  et.print(std::cout);
  TablePrinter lt({"per-layer", "value", "unit"});
  for (const Metric& x : layer)
    lt.add_row({x.name, TablePrinter::fmt(x.value, 6), x.unit});
  lt.print(std::cout);
  std::cout << "run phases:";
  for (const auto& [name, s] : phases)
    std::cout << " " << name << "=" << TablePrinter::fmt(s, 2);
  std::cout << "\n";
  for (const std::string& f : failures) std::cout << "FAILED: " << f << "\n";

  // ---- JSON. ----
  if (!json_path.empty()) {
    util::JsonWriter j;
    j.begin_object();
    j.kv("schema", "hpcgraph-e2e-workload-v1");
    j.key("environment");
    j.begin_object();
    j.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    j.kv("ranks", w.ranks);
    j.kv("threads", w.threads);
    j.kv("build_type", HPCGRAPH_E2E_BUILD_TYPE);
    j.kv("instrumented", instrumented_build());
    j.kv("git_sha", git_sha);
    j.kv("seed", seed);
    j.end_object();
    j.key("workload");
    j.begin_object();
    j.kv("name", w.name);
    j.kv("graph", w.rmat ? "rmat" : "webgraph");
    j.kv("scale", scale);
    j.kv("graphs", ng);
    j.key("edges");
    j.begin_array();
    for (const std::uint64_t m : edges) j.value(m);
    j.end_array();
    j.kv("file_mib", file_mib);
    j.kv("partition", dgraph::partition_label(w.partition));
    j.key("stages");
    j.begin_array();
    for (const Stage s : w.stages) j.value(stage_name(s));
    j.end_array();
    j.end_object();
    j.key("protocol");
    j.begin_object();
    j.kv("loop", "closed");
    j.kv("setup_reps", setup_reps);
    j.kv("warmup_reps", 1);
    j.kv("timed_reps", static_cast<std::uint64_t>(timed.size()));
    j.kv("seconds", seconds);
    j.kv("traced", !trace_path.empty());
    j.kv("peak_rss_reset", rss_reset);
    j.kv("times", "calibrated: wall x reference_s / median calibration sample");
    j.key("calibration_setup");
    setup_cal.write_json(j);
    j.key("calibration_timed");
    cal.write_json(j);
    for (const auto& [name, s] : phases) j.kv(name, s);
    j.end_object();
    j.key("end_to_end");
    j.begin_object();
    for (const E2e& e : e2e) {
      j.key(e.name);
      j.begin_object();
      j.kv("median", e.q.median);
      j.kv("q1", e.q.q1);
      j.kv("q3", e.q.q3);
      j.kv("n", static_cast<std::uint64_t>(e.q.n));
      j.kv("unit", e.unit);
      if (e.wall.n) {
        j.kv("wall_median", e.wall.median);
        j.kv("wall_q1", e.wall.q1);
        j.kv("wall_q3", e.wall.q3);
      }
      j.end_object();
    }
    j.key("failed_frac");
    j.begin_object();
    j.kv("median", failed_frac);
    j.kv("n", 1);
    j.kv("unit", "ratio");
    j.end_object();
    j.end_object();
    j.kv("attempted", attempted);
    j.kv("failed", failed);
    j.key("per_layer");
    j.begin_object();
    for (const Metric& x : layer) {
      j.key(x.name);
      j.begin_object();
      j.kv("value", x.value);
      j.kv("unit", x.unit);
      j.end_object();
    }
    j.end_object();
    j.key("reference");  // one object per input graph
    j.begin_array();
    const std::vector<std::string> names = op_names(w);
    for (const std::vector<Digest>& ref : want) {
      j.begin_object();
      for (std::size_t i = 0; i < names.size(); ++i) {
        j.key(names[i]);
        j.begin_object();
        write_digest(j, ref[i]);
        j.kv("abs_tol", ref[i].abs_tol);
        j.kv("rel_tol", ref[i].rel_tol);
        j.end_object();
      }
      j.end_object();
    }
    j.end_array();
    j.key("reps");
    j.begin_array();
    for (const RepRecord& r : records) {
      j.begin_object();
      j.kv("kind", r.kind);
      j.kv("graph", r.graph);
      j.kv("pipeline_wall_s", r.pipeline);
      if (r.peak_rss_mib > 0) j.kv("peak_rss_mib", r.peak_rss_mib);
      if (!r.error.empty()) j.kv("error", r.error);
      j.key("ops");
      j.begin_object();
      for (const OpResult& op : r.ops) {
        j.key(op.name);
        j.begin_object();
        j.kv("ok", op.ok);
        write_digest(j, op.digest);
        j.end_object();
      }
      j.end_object();
      j.end_object();
    }
    j.end_array();
    j.key("failures");
    j.begin_array();
    for (const std::string& f : failures) j.value(f);
    j.end_array();
    j.end_object();
    obs::write_text_file(json_path, j.str());
  }
  return failed == 0 ? 0 : 1;
}
