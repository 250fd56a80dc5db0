// Snapshot save/load round trip: the reloaded distributed graph must be
// indistinguishable from the freshly built one, for every partitioning —
// including explicit PuLP maps — and reject corrupt/mismatched files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "analytics/pagerank.hpp"
#include "analytics/wcc.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "dgraph/pulp_partition.hpp"
#include "dgraph/snapshot.hpp"
#include "gen/rmat.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::dgraph {
namespace {

using hpcgraph::testing::DistConfig;
using hpcgraph::testing::standard_configs;

class SnapshotTest : public ::testing::TestWithParam<DistConfig> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hgsnap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string prefix() const { return (dir_ / "snap").string(); }
  std::filesystem::path dir_;
};

void expect_graphs_equal(const DistGraph& a, const DistGraph& b) {
  ASSERT_EQ(a.n_global(), b.n_global());
  ASSERT_EQ(a.m_global(), b.m_global());
  ASSERT_EQ(a.n_loc(), b.n_loc());
  ASSERT_EQ(a.n_gst(), b.n_gst());
  ASSERT_EQ(a.m_out(), b.m_out());
  ASSERT_EQ(a.m_in(), b.m_in());
  for (lvid_t l = 0; l < a.n_total(); ++l) {
    ASSERT_EQ(a.global_id(l), b.global_id(l));
    ASSERT_EQ(a.owner_of(l), b.owner_of(l));
    ASSERT_EQ(b.local_id(a.global_id(l)), l);
  }
  for (lvid_t v = 0; v < a.n_loc(); ++v) {
    const auto ao = a.out_neighbors(v), bo = b.out_neighbors(v);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
    const auto ai = a.in_neighbors(v), bi = b.in_neighbors(v);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()));
  }
}

TEST_P(SnapshotTest, RoundTripIdenticalGraph) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  const DistConfig cfg = GetParam();

  parcomm::CommWorld world(cfg.nranks);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph built = Builder::from_edge_list(comm, el, cfg.kind);
    save_snapshot(built, comm, prefix());
    const DistGraph loaded = load_snapshot(comm, prefix());
    expect_graphs_equal(built, loaded);
    // Partition function restored (owners agree on foreign vertices too).
    for (gvid_t v = 0; v < el.n; v += 7)
      ASSERT_EQ(loaded.owner_of_global(v), built.owner_of_global(v));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SnapshotTest,
    ::testing::ValuesIn(hpcgraph::testing::small_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST_F(SnapshotTest, AnalyticsOnReloadedGraphMatch) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  parcomm::CommWorld world(3);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph built =
        Builder::from_edge_list(comm, el, PartitionKind::kRandom);
    save_snapshot(built, comm, prefix());
    const DistGraph loaded = load_snapshot(comm, prefix());

    analytics::PageRankOptions pr_opts;
    pr_opts.max_iterations = 8;
    const auto pr_a = analytics::pagerank(built, comm, pr_opts);
    const auto pr_b = analytics::pagerank(loaded, comm, pr_opts);
    for (lvid_t v = 0; v < built.n_loc(); ++v)
      ASSERT_DOUBLE_EQ(pr_a.scores[v], pr_b.scores[v]);

    const auto wcc_a = analytics::wcc(built, comm);
    const auto wcc_b = analytics::wcc(loaded, comm);
    ASSERT_EQ(wcc_a.comp, wcc_b.comp);
  });
}

TEST_F(SnapshotTest, ExplicitPulpPartitionSurvives) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const int nranks = 4;
  auto owner = std::make_shared<std::vector<std::int32_t>>(
      pulp_partition(el, nranks));
  const Partition part = Partition::explicit_map(el.n, nranks, owner);

  parcomm::CommWorld world(nranks);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph built = Builder::from_edge_list(comm, el, part);
    save_snapshot(built, comm, prefix());
    const DistGraph loaded = load_snapshot(comm, prefix());
    expect_graphs_equal(built, loaded);
    for (gvid_t v = 0; v < el.n; ++v)
      ASSERT_EQ(loaded.owner_of_global(v), (*owner)[v]);
  });
}

TEST_F(SnapshotTest, RejectsWrongRankCount) {
  const gen::EdgeList el = hpcgraph::testing::tiny_graph();
  {
    parcomm::CommWorld world(2);
    world.run([&](parcomm::Communicator& comm) {
      const DistGraph g =
          Builder::from_edge_list(comm, el, PartitionKind::kVertexBlock);
      save_snapshot(g, comm, prefix());
    });
  }
  parcomm::CommWorld world(1);
  EXPECT_THROW(world.run([&](parcomm::Communicator& comm) {
    (void)load_snapshot(comm, prefix());
  }),
               CheckError);
}

TEST_F(SnapshotTest, RejectsGarbageFile) {
  std::ofstream f(prefix() + ".0", std::ios::binary);
  f << "this is not a snapshot at all, but it is long enough to read";
  f.close();
  parcomm::CommWorld world(1);
  EXPECT_THROW(world.run([&](parcomm::Communicator& comm) {
    (void)load_snapshot(comm, prefix());
  }),
               CheckError);
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  const gen::EdgeList el = hpcgraph::testing::tiny_graph();
  parcomm::CommWorld world(1);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph g =
        Builder::from_edge_list(comm, el, PartitionKind::kVertexBlock);
    save_snapshot(g, comm, prefix());
  });
  std::filesystem::resize_file(prefix() + ".0", 64);
  EXPECT_THROW(world.run([&](parcomm::Communicator& comm) {
    (void)load_snapshot(comm, prefix());
  }),
               CheckError);
}

// A corrupt array length (or a file cut mid-array) must end in a named
// error on the loading rank, never an unbounded allocation; the other rank
// is released from its barrier, so nothing hangs.
using Snapshot = SnapshotTest;
TEST_F(Snapshot, OversizeLengthIsANamedError) {
  const gen::EdgeList el = hpcgraph::testing::tiny_graph();
  parcomm::CommWorld world(2);
  const auto save = [&] {
    world.run([&](parcomm::Communicator& comm) {
      save_snapshot(
          Builder::from_edge_list(comm, el, PartitionKind::kVertexBlock),
          comm, prefix());
    });
  };
  const std::string victim = prefix() + ".1";
  const auto expect_named_error = [&](const std::string& length) {
    try {
      world.run([&](parcomm::Communicator& comm) {
        (void)load_snapshot(comm, prefix());
      });
      ADD_FAILURE() << "loaded a corrupt snapshot";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(victim), std::string::npos) << msg;
      EXPECT_NE(msg.find("array length " + length), std::string::npos) << msg;
    }
  };
  // Header: magic, version, rank, rank count; then the partition blob's
  // length at byte 32 and its first word at byte 40.
  constexpr std::streamoff kBlobLength = 32;

  save();
  std::uint64_t blob_length = 0;
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(kBlobLength);
    f.read(reinterpret_cast<char*>(&blob_length), sizeof blob_length);
    const std::uint64_t huge = std::uint64_t{1} << 40;
    f.seekp(kBlobLength);
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  }
  ASSERT_GT(blob_length, 0u);
  expect_named_error(std::to_string(std::uint64_t{1} << 40));

  save();
  std::filesystem::resize_file(victim, kBlobLength + 8 + 4);
  expect_named_error(std::to_string(blob_length));
}

// Arrays that the ghost plan build and the analytics index with must be in
// range.  Each case corrupts one field of rank 1's file; loading must end in
// a CheckError that names the file and the array, with no rank left hanging.
TEST_F(Snapshot, CorruptArraysAreNamedErrors) {
  gen::RmatParams rp;
  rp.scale = 6;
  rp.avg_degree = 4;
  const gen::EdgeList el = gen::rmat(rp);
  parcomm::CommWorld world(2);
  const std::string victim = prefix() + ".1";
  world.run([&](parcomm::Communicator& comm) {
    save_snapshot(
        Builder::from_edge_list(comm, el, PartitionKind::kVertexBlock), comm,
        prefix());
  });
  std::vector<char> pristine(std::filesystem::file_size(victim));
  std::ifstream(victim, std::ios::binary)
      .read(pristine.data(), static_cast<std::streamsize>(pristine.size()));

  // Byte offsets of the fields in the save_snapshot layout: four header
  // words, the partition blob, four scalars, then six length-prefixed
  // arrays.
  const auto word = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, pristine.data() + off, sizeof v);
    return v;
  };
  const std::size_t scalars = 40 + 8 * word(32);
  const std::uint64_t n_global = word(scalars);
  const std::uint64_t n_loc = word(scalars + 16);
  const std::uint64_t n_gst = word(scalars + 24);
  struct Array {
    std::size_t data;  ///< offset of entry 0
    std::size_t elem;  ///< entry size
  };
  std::vector<Array> arrays;  // out_index out_edges in_index in_edges unmap
  std::size_t off = scalars + 32;  //   ghost_task
  for (const std::size_t elem : {8, 4, 8, 4, 8, 4}) {
    arrays.push_back({off + 8, elem});
    off += 8 + elem * word(off);
  }
  ASSERT_EQ(off, pristine.size());
  const Array out_index = arrays[0], out_edges = arrays[1], unmap = arrays[4],
              ghost_task = arrays[5];
  ASSERT_GE(n_loc, 2u);
  ASSERT_GE(n_gst, 1u);
  ASSERT_GT(word(out_index.data + 8 * n_loc), 0u);  // rank 1 has out-edges

  const auto expect_named_error = [&](const char* what, const Array& a,
                                      std::size_t entry, std::uint64_t value,
                                      const char* name) {
    SCOPED_TRACE(what);
    std::vector<char> bytes = pristine;
    std::memcpy(bytes.data() + a.data + a.elem * entry, &value, a.elem);
    std::ofstream(victim, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    try {
      world.run([&](parcomm::Communicator& comm) {
        (void)load_snapshot(comm, prefix());
      });
      ADD_FAILURE() << "loaded a corrupt snapshot";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(victim), std::string::npos) << msg;
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  };
  expect_named_error("decreasing out_index", out_index, 1,
                     word(out_index.data + 8 * n_loc) + 1, "out_index");
  expect_named_error("out-edge equal to n_total", out_edges, 0, n_loc + n_gst,
                     "out_edges");
  expect_named_error("ghost task beyond the ranks", ghost_task, 0, 2,
                     "ghost_task");
  expect_named_error("ghost task equal to the rank", ghost_task, 0, 1,
                     "ghost_task");
  expect_named_error("duplicated unmap id", unmap, 1, word(unmap.data),
                     "duplicate global ids");
  expect_named_error("unmap id equal to n_global", unmap, 0, n_global,
                     "unmap");
}

// A copy of a graph shares the plans built before the copy; a reloaded
// graph starts with none and builds its own.
using GhostPlanCache = SnapshotTest;
TEST_F(GhostPlanCache, CopySharesPlansReloadBuildsItsOwn) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  obs::Tracer tracer;
  tracer.install();
  parcomm::CommWorld world(2);
  world.run([&](parcomm::Communicator& comm) {
    obs::RankGuard guard(comm.rank());
    const DistGraph built =
        Builder::from_edge_list(comm, el, PartitionKind::kRandom);
    EXPECT_EQ(built.ghost_plan_bytes(), 0u);
    const auto plan = built.ghost_plan(comm, Adjacency::kBoth, nullptr);
    EXPECT_GT(built.ghost_plan_bytes(), 0u);

    const DistGraph copy = built;
    EXPECT_EQ(copy.ghost_plan(comm, Adjacency::kBoth, nullptr), plan);

    save_snapshot(built, comm, prefix());
    const DistGraph loaded = load_snapshot(comm, prefix());
    EXPECT_EQ(loaded.ghost_plan_bytes(), 0u);
    const auto own = loaded.ghost_plan(comm, Adjacency::kBoth, nullptr);
    EXPECT_NE(own, plan);
    EXPECT_EQ(own->entries_global(), plan->entries_global());
    EXPECT_EQ(loaded.ghost_plan_bytes(), built.ghost_plan_bytes());
  });
  obs::Tracer::uninstall();
  for (int rank = 0; rank < 2; ++rank)
    EXPECT_EQ(hpcgraph::testing::span_count(tracer, rank,
                                            obs::span_name::kGhostPlan),
              2u)
        << "rank " << rank;
}

// load_snapshot rebuilds boundary_locals() from the reloaded CSR; it must
// equal the builder's list.
using BoundaryInterior = SnapshotTest;
TEST_F(BoundaryInterior, SnapshotReloadRebuildsTheClasses) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  parcomm::CommWorld world(3);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph built =
        Builder::from_edge_list(comm, el, PartitionKind::kEdgeBlock);
    save_snapshot(built, comm, prefix());
    const DistGraph loaded = load_snapshot(comm, prefix());
    const std::span<const lvid_t> a = built.boundary_locals();
    const std::span<const lvid_t> b = loaded.boundary_locals();
    EXPECT_FALSE(a.empty());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  });
}

}  // namespace
}  // namespace hpcgraph::dgraph
