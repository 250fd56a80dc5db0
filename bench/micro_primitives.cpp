// Micro-benchmarks (google-benchmark) for the primitives behind the
// paper's §III optimizations:
//
//   * linear-probing hash map vs std::unordered_map (the Table II `map`);
//   * ghost relabeling: flat-array access vs per-access hash lookup;
//   * LabelCounter (the Algorithm-1 `lmap`) vs std::unordered_map counting;
//   * Algorithm-3 thread-local queues vs one-atomic-per-item pushes;
//   * retained vs rebuilt ghost-exchange queues (§III-D1), and the plan
//     build that the rebuilt variant repeats;
//   * Alltoallv payload throughput of the simulated runtime;
//   * graph construction (Exchange + LConv of Table III) per input edge.

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <unordered_map>

#include "dgraph/builder.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "gen/rmat.hpp"
#include "gen/webgraph.hpp"
#include "parcomm/comm.hpp"
#include "util/label_counter.hpp"
#include "util/lp_hash_map.hpp"
#include "util/rng.hpp"
#include "util/thread_queue.hpp"

namespace hpcgraph {
namespace {

// ---------- hash maps ----------

constexpr std::size_t kKeys = 1 << 16;

std::vector<std::uint64_t> make_keys() {
  std::vector<std::uint64_t> keys(kKeys);
  Rng rng(7);
  for (auto& k : keys) k = rng();
  return keys;
}

void BM_LpHashMapFind(benchmark::State& state) {
  const auto keys = make_keys();
  LpHashMap map(kKeys);
  for (std::size_t i = 0; i < keys.size(); ++i)
    map.insert(keys[i], static_cast<std::uint32_t>(i));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    i = (i + 1) & (kKeys - 1);
  }
}
BENCHMARK(BM_LpHashMapFind);

void BM_StdUnorderedMapFind(benchmark::State& state) {
  const auto keys = make_keys();
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  map.reserve(kKeys);
  for (std::size_t i = 0; i < keys.size(); ++i)
    map[keys[i]] = static_cast<std::uint32_t>(i);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i])->second);
    i = (i + 1) & (kKeys - 1);
  }
}
BENCHMARK(BM_StdUnorderedMapFind);

// The paper's central representation decision: per-vertex state in a flat
// relabeled array vs "accessing a slow hash map" per touch.
void BM_FlatArrayAccess(benchmark::State& state) {
  std::vector<std::uint32_t> vals(kKeys);
  Rng rng(9);
  std::vector<std::uint32_t> idx(kKeys);
  for (auto& i : idx) i = static_cast<std::uint32_t>(rng.below(kKeys));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vals[idx[i]]);
    i = (i + 1) & (kKeys - 1);
  }
}
BENCHMARK(BM_FlatArrayAccess);

// ---------- label counting ----------

void BM_LabelCounterRound(benchmark::State& state) {
  // One LP vertex update: count ~32 neighbour labels, take the argmax.
  Rng rng(11);
  std::vector<std::uint64_t> labels(32);
  for (auto& l : labels) l = rng.below(8);
  LabelCounter lmap;
  for (auto _ : state) {
    lmap.clear();
    for (const auto l : labels) lmap.add(l);
    benchmark::DoNotOptimize(lmap.argmax(1, 0));
  }
}
BENCHMARK(BM_LabelCounterRound);

void BM_LabelCounterRoundAfterHub(benchmark::State& state) {
  // The same round on a counter that first grew to a 2^14-label hub, as
  // one LP kernel counter does after its rank's largest vertex: the round
  // must cost what the 32 labels cost, not what the table's capacity does.
  Rng rng(11);
  std::vector<std::uint64_t> labels(32);
  for (auto& l : labels) l = rng.below(8);
  LabelCounter lmap;
  for (std::uint64_t l = 0; l < (1 << 14); ++l) lmap.add(l);
  for (auto _ : state) {
    lmap.clear();
    for (const auto l : labels) lmap.add(l);
    benchmark::DoNotOptimize(lmap.argmax(1, 0));
  }
}
BENCHMARK(BM_LabelCounterRoundAfterHub);

void BM_StdMapCounterRound(benchmark::State& state) {
  Rng rng(11);
  std::vector<std::uint64_t> labels(32);
  for (auto& l : labels) l = rng.below(8);
  for (auto _ : state) {
    std::unordered_map<std::uint64_t, std::uint64_t> lmap;
    for (const auto l : labels) ++lmap[l];
    std::uint64_t best = 0, best_count = 0;
    for (const auto& [l, c] : lmap)
      if (c > best_count) {
        best = l;
        best_count = c;
      }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_StdMapCounterRound);

// ---------- Algorithm-3 thread queues ----------

void BM_MultiQueueSinkPush(benchmark::State& state) {
  constexpr std::uint32_t kTasks = 16;
  constexpr std::uint64_t kItems = 1 << 16;
  std::vector<std::uint64_t> counts(kTasks, kItems / kTasks);
  for (auto _ : state) {
    MultiQueue<std::uint64_t> q(counts);
    MultiQueue<std::uint64_t>::Sink sink(q, kDefaultQSize);
    for (std::uint64_t i = 0; i < kItems; ++i)
      sink.push(static_cast<std::uint32_t>(i % kTasks), i);
    sink.flush();
    benchmark::DoNotOptimize(q.total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kItems);
}
BENCHMARK(BM_MultiQueueSinkPush);

void BM_MultiQueueSharedAtomicPush(benchmark::State& state) {
  // Ablation: the naive one-atomic-RMW-per-item scheme Algorithm 3 avoids.
  constexpr std::uint32_t kTasks = 16;
  constexpr std::uint64_t kItems = 1 << 16;
  std::vector<std::uint64_t> counts(kTasks, kItems / kTasks);
  for (auto _ : state) {
    MultiQueue<std::uint64_t> q(counts);
    for (std::uint64_t i = 0; i < kItems; ++i)
      q.push_shared(static_cast<std::uint32_t>(i % kTasks), i);
    benchmark::DoNotOptimize(q.total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kItems);
}
BENCHMARK(BM_MultiQueueSharedAtomicPush);

// ---------- ghost exchange: retained vs rebuilt (§III-D1) ----------

/// The synthetic web crawl at 2^16 vertices, generated once.
const gen::EdgeList& web16() {
  static const gen::EdgeList graph = [] {
    gen::WebGraphParams wp;
    wp.n = gvid_t{1} << 16;
    return gen::webgraph(wp).graph;
  }();
  return graph;
}

struct GhostFixture {
  GhostFixture() {
    gen::RmatParams rp;
    rp.scale = 12;
    rp.avg_degree = 8;
    graph = gen::rmat(rp);
  }
  gen::EdgeList graph;
};

void BM_GhostExchangeRetained(benchmark::State& state) {
  static GhostFixture fx;
  parcomm::CommWorld world(4);
  for (auto _ : state) {
    world.run([&](parcomm::Communicator& comm) {
      const dgraph::DistGraph g = dgraph::Builder::from_edge_list(
          comm, fx.graph, dgraph::PartitionKind::kRandom);
      dgraph::GhostExchange gx(g, comm, dgraph::Adjacency::kBoth);
      std::vector<std::uint64_t> vals(g.n_total(), 1);
      for (int it = 0; it < 10; ++it)
        gx.exchange<std::uint64_t>(vals, comm);  // queues retained
    });
  }
}
BENCHMARK(BM_GhostExchangeRetained)->Unit(benchmark::kMillisecond);

void BM_GhostExchangeRebuilt(benchmark::State& state) {
  static GhostFixture fx;
  parcomm::CommWorld world(4);
  for (auto _ : state) {
    world.run([&](parcomm::Communicator& comm) {
      const dgraph::DistGraph g = dgraph::Builder::from_edge_list(
          comm, fx.graph, dgraph::PartitionKind::kRandom);
      std::vector<std::uint64_t> vals(g.n_total(), 1);
      for (int it = 0; it < 10; ++it) {
        // A fresh plan each time: the graph's cached one would be reused.
        dgraph::GhostExchange gx(
            dgraph::GhostPlan::build(g, comm, dgraph::Adjacency::kBoth));
        gx.exchange<std::uint64_t>(vals, comm);  // queues rebuilt each time
      }
    });
  }
}
BENCHMARK(BM_GhostExchangeRebuilt)->Unit(benchmark::kMillisecond);

// GhostPlan::build alone on a webgraph at 2^16 with 4 ranks, one fresh
// plan per iteration over graphs built once.  Arg 0: vertex-block, 1:
// random partition.
void BM_GhostPlanBuild(benchmark::State& state, dgraph::Adjacency adj) {
  const auto kind = state.range(0) == 0 ? dgraph::PartitionKind::kVertexBlock
                                        : dgraph::PartitionKind::kRandom;
  state.SetLabel(dgraph::partition_label(kind));
  parcomm::CommWorld world(4);
  std::vector<std::optional<dgraph::DistGraph>> graphs(4);
  world.run([&](parcomm::Communicator& comm) {
    graphs[comm.rank()].emplace(
        dgraph::Builder::from_edge_list(comm, web16(), kind));
  });
  for (auto _ : state) {
    world.run([&](parcomm::Communicator& comm) {
      benchmark::DoNotOptimize(
          dgraph::GhostPlan::build(*graphs[comm.rank()], comm, adj));
    });
  }
}
BENCHMARK_CAPTURE(BM_GhostPlanBuild, out, dgraph::Adjacency::kOut)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_GhostPlanBuild, in, dgraph::Adjacency::kIn)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_GhostPlanBuild, both, dgraph::Adjacency::kBoth)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------- Alltoallv throughput ----------

void BM_Alltoallv(benchmark::State& state) {
  const int p = 4;
  const std::uint64_t per_dest = static_cast<std::uint64_t>(state.range(0));
  parcomm::CommWorld world(p);
  for (auto _ : state) {
    world.run([&](parcomm::Communicator& comm) {
      std::vector<std::uint64_t> counts(p, per_dest);
      std::vector<std::uint64_t> send(per_dest * p, comm.rank());
      benchmark::DoNotOptimize(
          comm.alltoallv<std::uint64_t>(send, counts));
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(per_dest) * p * p * 8);
}
BENCHMARK(BM_Alltoallv)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

// ---------- graph construction ----------

// Builder::from_edge_list on a webgraph at 2^16 with 4 ranks: Table III's
// Exchange and LConv stages without the file read, in wall time per input
// edge (the `per_edge` counter).  Arg 0: vertex-block, 1: random partition.
void BM_BuildFromEdgeList(benchmark::State& state) {
  const gen::EdgeList& graph = web16();
  const auto kind = state.range(0) == 0 ? dgraph::PartitionKind::kVertexBlock
                                        : dgraph::PartitionKind::kRandom;
  state.SetLabel(dgraph::partition_label(kind));
  parcomm::CommWorld world(4);
  for (auto _ : state) {
    world.run([&](parcomm::Communicator& comm) {
      const dgraph::DistGraph g =
          dgraph::Builder::from_edge_list(comm, graph, kind);
      benchmark::DoNotOptimize(g.m_out());
    });
  }
  state.counters["per_edge"] = benchmark::Counter(
      static_cast<double>(graph.m()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_BuildFromEdgeList)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace hpcgraph

BENCHMARK_MAIN();
