// Snapshot save/load round trip: the reloaded distributed graph must be
// indistinguishable from the freshly built one, for every partitioning —
// including explicit PuLP maps — and reject corrupt/mismatched files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "analytics/pagerank.hpp"
#include "analytics/wcc.hpp"
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
