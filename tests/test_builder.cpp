// Tests for distributed graph construction: the built DistGraph must encode
// exactly the input edge list (verified against the sequential CSR) and
// satisfy every Table II invariant, across rank counts and partitionings.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "gen/rmat.hpp"
#include "gen/webgraph.hpp"
#include "io/binary_edge_io.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::dgraph {
namespace {

using gen::Edge;
using gen::EdgeList;
using hpcgraph::testing::DistConfig;
using hpcgraph::testing::small_configs;
using hpcgraph::testing::standard_configs;
using hpcgraph::testing::tiny_graph;
using hpcgraph::testing::with_dist_graph;

/// Collects every out/in edge of the distributed graph as global-id pairs.
struct GlobalEdges {
  std::multiset<std::pair<gvid_t, gvid_t>> out, in;
};

GlobalEdges collect_edges(const DistGraph& g) {
  GlobalEdges ge;
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    for (const lvid_t u : g.out_neighbors(v))
      ge.out.insert({g.global_id(v), g.global_id(u)});
    for (const lvid_t u : g.in_neighbors(v))
      ge.in.insert({g.global_id(v), g.global_id(u)});
  }
  return ge;
}

class BuilderParam : public ::testing::TestWithParam<DistConfig> {};

TEST_P(BuilderParam, TableIIScalarInvariants) {
  const EdgeList el = tiny_graph();
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    EXPECT_EQ(g.n_global(), el.n);
    EXPECT_EQ(g.m_global(), el.m());
    EXPECT_EQ(g.rank(), comm.rank());
    EXPECT_EQ(g.nranks(), comm.size());
    EXPECT_EQ(g.n_total(), g.n_loc() + g.n_gst());
    // Local vertex counts across ranks sum to n.
    EXPECT_EQ(comm.allreduce_sum<std::uint64_t>(g.n_loc()), el.n);
    // Out- and in-edge instances each appear exactly once globally.
    EXPECT_EQ(comm.allreduce_sum<std::uint64_t>(g.m_out()), el.m());
    EXPECT_EQ(comm.allreduce_sum<std::uint64_t>(g.m_in()), el.m());
  });
}

TEST_P(BuilderParam, MapAndUnmapAreInverse) {
  with_dist_graph(tiny_graph(), GetParam(), [&](const DistGraph& g,
                                                parcomm::Communicator&) {
    for (lvid_t l = 0; l < g.n_total(); ++l) {
      const gvid_t gid = g.global_id(l);
      ASSERT_EQ(g.local_id(gid), l);
      ASSERT_EQ(g.local_id_checked(gid), l);
    }
  });
}

TEST_P(BuilderParam, LocalsOwnedGhostsForeign) {
  with_dist_graph(tiny_graph(), GetParam(), [&](const DistGraph& g,
                                                parcomm::Communicator& comm) {
    for (lvid_t l = 0; l < g.n_loc(); ++l) {
      ASSERT_FALSE(g.is_ghost(l));
      ASSERT_EQ(g.owner_of(l), comm.rank());
      ASSERT_EQ(g.owner_of_global(g.global_id(l)), comm.rank());
    }
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l) {
      ASSERT_TRUE(g.is_ghost(l));
      ASSERT_NE(g.owner_of(l), comm.rank());
      // Cached ghost owner must agree with the partition function.
      ASSERT_EQ(g.owner_of(l), g.owner_of_global(g.global_id(l)));
    }
  });
}

TEST_P(BuilderParam, GhostsAreExactlyRemoteAdjacentVertices) {
  with_dist_graph(tiny_graph(), GetParam(), [&](const DistGraph& g,
                                                parcomm::Communicator&) {
    std::set<gvid_t> adjacent_remote;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      for (const lvid_t u : g.out_neighbors(v))
        if (g.is_ghost(u)) adjacent_remote.insert(g.global_id(u));
      for (const lvid_t u : g.in_neighbors(v))
        if (g.is_ghost(u)) adjacent_remote.insert(g.global_id(u));
    }
    const auto ghosts = g.ghost_globals();
    const std::set<gvid_t> ghost_set(ghosts.begin(), ghosts.end());
    EXPECT_EQ(ghost_set, adjacent_remote);
    EXPECT_EQ(ghost_set.size(), g.n_gst());
  });
}

TEST_P(BuilderParam, EdgesMatchInputExactly) {
  const EdgeList el = tiny_graph();
  // Expected multisets from the raw edge list.
  std::multiset<std::pair<gvid_t, gvid_t>> expect_out, expect_in;
  for (const Edge& e : el.edges) {
    expect_out.insert({e.src, e.dst});
    expect_in.insert({e.dst, e.src});
  }
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    const GlobalEdges mine = collect_edges(g);
    // Gather all ranks' edges (as flat pairs) and compare on rank 0.
    struct P {
      gvid_t a, b;
    };
    std::vector<P> out_flat, in_flat;
    for (const auto& [a, b] : mine.out) out_flat.push_back({a, b});
    for (const auto& [a, b] : mine.in) in_flat.push_back({a, b});
    const auto all_out = comm.gatherv<P>(out_flat, 0);
    const auto all_in = comm.gatherv<P>(in_flat, 0);
    if (comm.rank() == 0) {
      std::multiset<std::pair<gvid_t, gvid_t>> got_out, got_in;
      for (const P& p : all_out) got_out.insert({p.a, p.b});
      for (const P& p : all_in) got_in.insert({p.a, p.b});
      EXPECT_EQ(got_out, expect_out);
      EXPECT_EQ(got_in, expect_in);
    }
  });
}

TEST_P(BuilderParam, DegreesMatchSequentialReference) {
  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 6;
  const EdgeList el = gen::rmat(rp);
  const ref::SeqGraph sg = ref::SeqGraph::from(el);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator&) {
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const gvid_t gid = g.global_id(v);
      ASSERT_EQ(g.out_degree(v), sg.out_degree(gid)) << gid;
      ASSERT_EQ(g.in_degree(v), sg.in_degree(gid)) << gid;
    }
  });
}

TEST_P(BuilderParam, AdjacencySetsMatchSequentialReference) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 5;
  const EdgeList el = gen::rmat(rp);
  const ref::SeqGraph sg = ref::SeqGraph::from(el);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator&) {
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const gvid_t gid = g.global_id(v);
      std::multiset<gvid_t> got, want;
      for (const lvid_t u : g.out_neighbors(v)) got.insert(g.global_id(u));
      for (const gvid_t u : sg.out_neighbors(gid)) want.insert(u);
      ASSERT_EQ(got, want) << "out adjacency of " << gid;
      got.clear();
      want.clear();
      for (const lvid_t u : g.in_neighbors(v)) got.insert(g.global_id(u));
      for (const gvid_t u : sg.in_neighbors(gid)) want.insert(u);
      ASSERT_EQ(got, want) << "in adjacency of " << gid;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BuilderParam, ::testing::ValuesIn(standard_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST(Builder, FromFileMatchesFromEdgeList) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("hgbuild_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "g.bin").string();

  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 8;
  const EdgeList el = gen::rmat(rp);
  io::write_edge_file(path, el, io::EdgeFormat::kU32);

  parcomm::CommWorld world(4);
  world.run([&](parcomm::Communicator& comm) {
    BuildTiming timing;
    const DistGraph from_file = Builder::from_file(
        comm, path, io::EdgeFormat::kU32, PartitionKind::kVertexBlock, el.n,
        &timing);
    const DistGraph from_mem =
        Builder::from_edge_list(comm, el, PartitionKind::kVertexBlock);
    EXPECT_EQ(from_file.n_loc(), from_mem.n_loc());
    EXPECT_EQ(from_file.m_out(), from_mem.m_out());
    EXPECT_EQ(from_file.m_in(), from_mem.m_in());
    EXPECT_EQ(from_file.n_gst(), from_mem.n_gst());
    EXPECT_GT(timing.read, 0.0);
    EXPECT_GT(timing.exchange, 0.0);
    EXPECT_GT(timing.lconv, 0.0);
  });
  fs::remove_all(dir);
}

TEST(Builder, DerivesVertexCountWhenUnknown) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("hgbuild2_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "g.bin").string();

  EdgeList el;
  el.n = 1000;  // but max id seen is 41
  el.edges = {{0, 41}, {7, 3}};
  io::write_edge_file(path, el);

  parcomm::CommWorld world(2);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph g = Builder::from_file(
        comm, path, io::EdgeFormat::kU32, PartitionKind::kVertexBlock,
        /*n_global=*/0);
    EXPECT_EQ(g.n_global(), 42u);
  });
  fs::remove_all(dir);
}

TEST(Builder, EmptyGraphBuilds) {
  EdgeList el;
  el.n = 16;  // vertices, no edges
  parcomm::CommWorld world(3);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph g =
        Builder::from_edge_list(comm, el, PartitionKind::kVertexBlock);
    EXPECT_EQ(g.m_global(), 0u);
    EXPECT_EQ(g.n_gst(), 0u);
    EXPECT_EQ(comm.allreduce_sum<std::uint64_t>(g.n_loc()), 16u);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      EXPECT_EQ(g.out_degree(v), 0u);
      EXPECT_EQ(g.in_degree(v), 0u);
    }
  });
}

TEST(Builder, MemoryFootprintReported) {
  with_dist_graph(tiny_graph(), {2, PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator&) {
                    EXPECT_GT(g.memory_bytes(), 0u);
                  });
}

// boundary_locals() lists exactly the local vertices with a ghost out- or
// in-neighbour, in ascending order.
TEST(BoundaryInterior, ClassesPartitionLocalsByGhostAdjacency) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const EdgeList el = gen::rmat(rp);
  for (const DistConfig& cfg : small_configs()) {
    SCOPED_TRACE(cfg.label());
    with_dist_graph(el, cfg, [&](const DistGraph& g, parcomm::Communicator&) {
      std::vector<lvid_t> want;
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        bool ghost = false;
        for (const lvid_t u : g.out_neighbors(v)) ghost |= u >= g.n_loc();
        for (const lvid_t u : g.in_neighbors(v)) ghost |= u >= g.n_loc();
        if (ghost) want.push_back(v);
      }
      const std::span<const lvid_t> bnd = g.boundary_locals();
      EXPECT_EQ(std::vector<lvid_t>(bnd.begin(), bnd.end()), want);
    });
  }
}

}  // namespace
}  // namespace hpcgraph::dgraph
