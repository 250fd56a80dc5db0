// Tests for distributed graph construction: the built DistGraph must encode
// exactly the input edge list (verified against the sequential CSR) and
// satisfy every Table II invariant, across rank counts and partitionings.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "gen/rmat.hpp"
#include "gen/webgraph.hpp"
#include "io/binary_edge_io.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

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
                                                parcomm::Communicator& comm) {
    for (lvid_t l = 0; l < g.n_total(); ++l) {
      const gvid_t gid = g.global_id(l);
      ASSERT_EQ(g.local_id(gid), l);
      ASSERT_EQ(g.local_id_checked(gid), l);
    }
    // owned_local inverts global_id on the locals and finds nothing else:
    // not the ghosts, not the vertices other ranks own, not n_global.
    for (gvid_t v = 0; v <= g.n_global(); ++v) {
      const bool mine =
          v < g.n_global() && g.owner_of_global(v) == comm.rank();
      const lvid_t l = g.owned_local(v);
      ASSERT_EQ(l == kNullLvid, !mine) << "vertex " << v;
      if (mine) {
        ASSERT_EQ(g.global_id(l), v) << "vertex " << v;
      }
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

template <typename T>
std::vector<T> as_vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Every array the snapshot check of bench/e2e compares (its `same_graph`).
void expect_same_graph(const DistGraph& a, const DistGraph& b) {
  EXPECT_EQ(a.n_global(), b.n_global());
  EXPECT_EQ(a.m_global(), b.m_global());
  EXPECT_EQ(a.n_loc(), b.n_loc());
  EXPECT_EQ(a.n_gst(), b.n_gst());
  EXPECT_EQ(as_vec(a.out_index()), as_vec(b.out_index()));
  EXPECT_EQ(as_vec(a.out_edges_raw()), as_vec(b.out_edges_raw()));
  EXPECT_EQ(as_vec(a.in_index()), as_vec(b.in_index()));
  EXPECT_EQ(as_vec(a.in_edges_raw()), as_vec(b.in_edges_raw()));
  EXPECT_EQ(as_vec(a.ghost_globals()), as_vec(b.ghost_globals()));
  EXPECT_EQ(as_vec(a.boundary_locals()), as_vec(b.boundary_locals()));
}

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

  for (const int p : {1, 2, 4}) {
    for (const PartitionKind kind :
         {PartitionKind::kVertexBlock, PartitionKind::kRandom}) {
      SCOPED_TRACE((DistConfig{p, kind}.label()));
      parcomm::CommWorld world(p);
      world.run([&](parcomm::Communicator& comm) {
        BuildTiming timing;
        const DistGraph from_file = Builder::from_file(
            comm, path, io::EdgeFormat::kU32, kind, el.n, &timing);
        const DistGraph from_mem = Builder::from_edge_list(comm, el, kind);
        expect_same_graph(from_file, from_mem);
        EXPECT_GT(timing.read, 0.0);
        EXPECT_GT(timing.exchange, 0.0);
        EXPECT_GT(timing.lconv, 0.0);
      });
    }
  }
  fs::remove_all(dir);
}

// An endpoint id at or past n_global ends in a CheckError that names the id,
// n_global and the rank holding it, rethrown by CommWorld::run; the other
// ranks, parked in the next collective, are released rather than left
// hanging.  The bad edge sits only in the last rank's chunk.
TEST(Builder, OutOfRangeIdIsANamedError) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("hgbuild3_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "g.bin").string();

  EdgeList el;
  el.n = 64;
  for (gvid_t v = 0; v < 48; ++v) el.edges.push_back({v, (v * 7 + 3) % el.n});
  const gvid_t bad = el.n + 5;
  for (const bool bad_src : {true, false}) {
    el.edges.back() = bad_src ? Edge{bad, 1} : Edge{1, bad};
    io::write_edge_file(path, el, io::EdgeFormat::kU32);
    for (const int p : {1, 2, 4}) {
      for (const PartitionKind kind :
           {PartitionKind::kVertexBlock, PartitionKind::kEdgeBlock,
            PartitionKind::kRandom}) {
        for (const bool via_file : {true, false}) {
          SCOPED_TRACE((DistConfig{p, kind}.label()) +
                       (bad_src ? " bad src" : " bad dst") +
                       (via_file ? " from_file" : " from_edge_list"));
          parcomm::CommWorld world(p);
          try {
            world.run([&](parcomm::Communicator& comm) {
              if (via_file) {
                (void)Builder::from_file(comm, path, io::EdgeFormat::kU32,
                                         kind, el.n);
              } else {
                (void)Builder::from_edge_list(comm, el, kind);
              }
            });
            ADD_FAILURE() << "an out-of-range id must not build";
          } catch (const CheckError& e) {
            const std::string what = e.what();
            for (const std::string& part :
                 {"vertex id " + std::to_string(bad),
                  "n_global " + std::to_string(el.n),
                  "rank " + std::to_string(p - 1)})
              EXPECT_NE(what.find(part), std::string::npos)
                  << "missing \"" << part << "\" in: " << what;
          }
        }
      }
    }
  }
  fs::remove_all(dir);
}

// Edges are built as 32-bit ids, so an n_global beyond 2^32 is a named
// error, given or derived.  Every rank throws it on its own: each rank
// catches its error inside the run, so a rank that went on into a
// collective would hang the test.  At 2^62 any per-vertex array (the
// owned-vertex list alone holds n/p ids) would end in std::length_error
// instead, so a CheckError also shows the check precedes them.
TEST(Builder, NGlobalAbove32BitsIsANamedError) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("hgbuild4_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path32 = (dir / "g32.bin").string();
  const std::string path64 = (dir / "g64.bin").string();

  constexpr gvid_t kHuge = gvid_t{1} << 62;
  EdgeList el;
  el.n = kHuge;
  for (gvid_t v = 0; v < 24; ++v) el.edges.push_back({v, (v * 5 + 1) % 24});
  io::write_edge_file(path32, el, io::EdgeFormat::kU32);
  // The largest id sits in the last rank's chunk only; deriving n_global
  // from it must still fail on every rank.
  el.edges.back().dst = kHuge - 1;
  io::write_edge_file(path64, el, io::EdgeFormat::kU64);

  enum class Via { kFileGiven, kU64FileDerived, kEdgeList };
  for (const int p : {1, 3, 4}) {
    for (const PartitionKind kind :
         {PartitionKind::kVertexBlock, PartitionKind::kEdgeBlock,
          PartitionKind::kRandom}) {
      for (const Via via :
           {Via::kFileGiven, Via::kU64FileDerived, Via::kEdgeList}) {
        SCOPED_TRACE((DistConfig{p, kind}.label()) + " via " +
                     std::to_string(static_cast<int>(via)));
        std::atomic<int> named{0};
        parcomm::CommWorld world(p);
        world.run([&](parcomm::Communicator& comm) {
          try {
            switch (via) {
              case Via::kFileGiven:
                (void)Builder::from_file(comm, path32, io::EdgeFormat::kU32,
                                         kind, kHuge);
                break;
              case Via::kU64FileDerived:
                (void)Builder::from_file(comm, path64, io::EdgeFormat::kU64,
                                         kind, /*n_global=*/0);
                break;
              case Via::kEdgeList:
                (void)Builder::from_edge_list(comm, el, kind);
                break;
            }
            ADD_FAILURE() << "rank " << comm.rank() << " built the graph";
          } catch (const CheckError& e) {
            const std::string what = e.what();
            const std::string want = "n_global " + std::to_string(kHuge);
            EXPECT_NE(what.find(want), std::string::npos)
                << "missing \"" << want << "\" in: " << what;
            ++named;
          }
        });
        EXPECT_EQ(named.load(), p);
      }
    }
  }
  fs::remove_all(dir);
}

// A kU64 file builds the same graph as its edge list once its ids are
// checked and narrowed, and an id at or past n_global in it is the named
// out-of-range error rather than a silently truncated id.
TEST(Builder, U64FileMatchesFromEdgeList) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("hgbuild5_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "g64.bin").string();

  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 8;
  EdgeList el = gen::rmat(rp);
  io::write_edge_file(path, el, io::EdgeFormat::kU64);
  for (const int p : {1, 2, 4}) {
    for (const PartitionKind kind :
         {PartitionKind::kVertexBlock, PartitionKind::kEdgeBlock,
          PartitionKind::kRandom}) {
      SCOPED_TRACE((DistConfig{p, kind}.label()));
      parcomm::CommWorld world(p);
      world.run([&](parcomm::Communicator& comm) {
        const DistGraph from_file =
            Builder::from_file(comm, path, io::EdgeFormat::kU64, kind, el.n);
        const DistGraph from_mem = Builder::from_edge_list(comm, el, kind);
        expect_same_graph(from_file, from_mem);
      });
    }
  }

  const gvid_t wide = (gvid_t{1} << 32) + 5;
  el.edges.back().src = wide;
  io::write_edge_file(path, el, io::EdgeFormat::kU64);
  parcomm::CommWorld world(2);
  try {
    world.run([&](parcomm::Communicator& comm) {
      (void)Builder::from_file(comm, path, io::EdgeFormat::kU64,
                               PartitionKind::kVertexBlock, el.n);
    });
    ADD_FAILURE() << "an id past n_global must not build";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vertex id " + std::to_string(wide)),
              std::string::npos)
        << what;
  }
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

// ---------- Golden layout hashes ----------
//
// The tests above compare multisets; these pin the builder's output bit for
// bit: the CSR arrays in their per-vertex order (the order PageRank's
// floating-point sums follow), the ghost numbering and owners, the boundary
// list and the map, per rank, folded in rank order.  A change to the builder
// must reproduce the table; re-record it only for a deliberate layout change.

/// Order-sensitive running hash.
struct OrderedHash {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;

  void add(std::uint64_t x) { h = splitmix64(h ^ x); }

  template <typename T>
  void add_all(std::span<const T> xs) {
    add(xs.size());
    for (const T x : xs) add(static_cast<std::uint64_t>(x));
  }
};

std::uint64_t layout_hash(const DistGraph& g) {
  OrderedHash h;
  h.add(g.n_global());
  h.add(g.m_global());
  h.add(g.n_loc());
  h.add(g.n_gst());
  h.add_all(g.out_index());
  h.add_all(g.out_edges_raw());
  h.add_all(g.in_index());
  h.add_all(g.in_edges_raw());
  h.add_all(g.ghost_globals());
  for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
    h.add(static_cast<std::uint64_t>(g.owner_of(l)));
  h.add_all(g.boundary_locals());
  for (lvid_t l = 0; l < g.n_total(); ++l) {
    h.add(g.global_id(l));
    h.add(g.local_id(g.global_id(l)));
  }
  return h.h;
}

/// `el` with a duplicate of an earlier edge after every 89th edge and a
/// self-loop after every 97th, spread over every rank's chunk.
EdgeList with_duplicates_and_self_loops(const EdgeList& el) {
  EdgeList out;
  out.n = el.n;
  for (std::size_t i = 0; i < el.edges.size(); ++i) {
    const Edge& e = el.edges[i];
    out.edges.push_back(e);
    if (i % 89 == 0) out.edges.push_back(el.edges[i / 2]);
    if (i % 97 == 0) out.edges.push_back({e.dst, e.dst});
  }
  return out;
}

constexpr PartitionKind kGoldenKinds[] = {
    PartitionKind::kVertexBlock, PartitionKind::kEdgeBlock,
    PartitionKind::kRandom, PartitionKind::kExplicit};

/// Rank-folded layout hash of `el` built with `kind` at `nranks`.  The
/// explicit partition deals out stripes of 16 consecutive ids round-robin.
std::uint64_t golden_hash(const EdgeList& el, PartitionKind kind, int nranks) {
  std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(nranks));
  std::optional<Partition> part;
  if (kind == PartitionKind::kExplicit) {
    auto owner = std::make_shared<std::vector<std::int32_t>>(el.n);
    for (gvid_t v = 0; v < el.n; ++v)
      (*owner)[v] = static_cast<std::int32_t>((v / 16) % nranks);
    part = Partition::explicit_map(el.n, nranks, std::move(owner));
  }
  parcomm::CommWorld world(nranks);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph g = part ? Builder::from_edge_list(comm, el, *part)
                             : Builder::from_edge_list(comm, el, kind);
    per_rank[static_cast<std::size_t>(comm.rank())] = layout_hash(g);
  });
  OrderedHash folded;
  for (const std::uint64_t h : per_rank) folded.add(h);
  return folded.h;
}

/// Checks `el` against `want[kind][nranks - 1]` for 1..4 ranks and every
/// partition kind, printing the full table on any mismatch.
void expect_golden(const EdgeList& el, const std::uint64_t (&want)[4][4]) {
  bool self_loop = false;
  std::set<std::pair<gvid_t, gvid_t>> seen;
  bool duplicate = false;
  for (const Edge& e : el.edges) {
    self_loop |= e.src == e.dst;
    duplicate |= !seen.insert({e.src, e.dst}).second;
  }
  ASSERT_TRUE(self_loop && duplicate);

  std::ostringstream table;
  for (std::size_t k = 0; k < 4; ++k) {
    table << "    {";
    for (int p = 1; p <= 4; ++p) {
      const std::uint64_t got = golden_hash(el, kGoldenKinds[k], p);
      EXPECT_EQ(got, want[k][p - 1])
          << partition_label(kGoldenKinds[k]) << " at " << p << " ranks";
      table << "0x" << std::hex << std::setw(16) << std::setfill('0') << got
            << std::dec << "ULL" << (p < 4 ? ", " : "");
    }
    table << "},\n";
  }
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "measured table:\n" << table.str();
}

TEST(BuilderGolden, Webgraph) {
  gen::WebGraphParams wp;
  wp.n = gvid_t{1} << 10;
  wp.avg_degree = 8;
  wp.seed = 5;
  static constexpr std::uint64_t kWant[4][4] = {
      // 1 rank, 2 ranks, 3 ranks, 4 ranks; rows vertex-block, edge-block,
      // random, explicit.
      {0xc0a431d1b75714d8ULL, 0xcf2cd663affcd371ULL, 0x78ba0a5c82dedfacULL,
       0x5352e1c2cfd47f5dULL},
      {0xc0a431d1b75714d8ULL, 0xf37eb964b9770ddeULL, 0x7fd1131f40137a10ULL,
       0x8f4c043f4ac9cf52ULL},
      {0xc0a431d1b75714d8ULL, 0x9f40082ca932c11aULL, 0x2adffbc4e4121a23ULL,
       0x7bc0befe2f4ece51ULL},
      {0xc0a431d1b75714d8ULL, 0x11aa5df86c211c98ULL, 0x774d5b0ab625250eULL,
       0xba05b446534e9857ULL},
  };
  expect_golden(with_duplicates_and_self_loops(gen::webgraph(wp).graph),
                kWant);
}

TEST(BuilderGolden, Rmat) {
  gen::RmatParams rp;
  rp.scale = 10;
  rp.avg_degree = 8;
  rp.seed = 5;
  static constexpr std::uint64_t kWant[4][4] = {
      {0x1a8b98f00a35abe8ULL, 0x4e300b4deeccea5aULL, 0xcb1b4fe22c53a174ULL,
       0xbc613b5985980a84ULL},
      {0x1a8b98f00a35abe8ULL, 0x32bc10d9148b3c22ULL, 0x5053e9c650f0d7efULL,
       0x91c196d40b1ef715ULL},
      {0x1a8b98f00a35abe8ULL, 0xf66b3676a77d638aULL, 0xecc16a121f191577ULL,
       0xd6f834d946df3598ULL},
      {0x1a8b98f00a35abe8ULL, 0xa7a7eae8cf087080ULL, 0x322652adf1449a7bULL,
       0x04123ce6c5440b5dULL},
  };
  expect_golden(with_duplicates_and_self_loops(gen::rmat(rp)), kWant);
}

}  // namespace
}  // namespace hpcgraph::dgraph
