// Snapshot save/load round trip: the reloaded distributed graph must be
// indistinguishable from the freshly built one, for every partitioning —
// including explicit PuLP maps — and reject corrupt/mismatched files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

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

/// A rank's snapshot file, read into memory and cut into its fields in the
/// save_snapshot layout: four header words, the length-prefixed partition
/// blob, four Table-II scalars, then six length-prefixed arrays.
class SnapshotFile {
 public:
  struct Field {
    std::string name;
    std::size_t at;         ///< offset of the field's first word
    std::size_t elem = 0;   ///< array entry size; 0 for a scalar word
    std::uint64_t len = 0;  ///< array entries
    std::size_t data() const { return at + 8; }  ///< array entry 0
    std::size_t end() const { return data() + elem * len; }
  };

  explicit SnapshotFile(std::string path)
      : path_(std::move(path)), bytes_(std::filesystem::file_size(path_)) {
    std::ifstream(path_, std::ios::binary)
        .read(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    std::size_t off = 0;
    const auto add = [&](const char* name, std::size_t elem) {
      fields_.push_back({name, off, elem, elem ? word(off) : 0});
      off = fields_.back().end();
    };
    for (const char* name : {"magic", "version", "rank", "nranks"})
      add(name, 0);
    add("partition", 8);
    for (const char* name : {"n_global", "m_global", "n_loc", "n_gst"})
      add(name, 0);
    add("out_index", 8);
    add("out_edges", 4);
    add("in_index", 8);
    add("in_edges", 4);
    add("unmap", 8);
    add("ghost_task", 4);
    if (off != bytes_.size())
      throw std::logic_error("the file does not follow the snapshot layout");
  }

  const std::vector<Field>& fields() const { return fields_; }
  const Field& operator[](const std::string& name) const {
    return *std::find_if(fields_.begin(), fields_.end(),
                         [&](const Field& f) { return f.name == name; });
  }
  /// The word at byte `off`; a scalar field's value is word(f.at).
  std::uint64_t word(std::size_t off) const {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + checked(off, sizeof v), sizeof v);
    return v;
  }
  /// Entry `i` of array field `f`.
  std::uint64_t entry(const Field& f, std::size_t i) const {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + checked(f.data() + f.elem * i, f.elem),
                f.elem);
    return v;
  }

  /// Sets entry `i` of array field `f` in memory.
  void set(const Field& f, std::size_t i, std::uint64_t value) {
    std::memcpy(bytes_.data() + checked(f.data() + f.elem * i, f.elem),
                &value, f.elem);
  }
  /// Writes the first `size` bytes (default: all) back to the file.
  void write(std::size_t size = SIZE_MAX) const {
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        .write(bytes_.data(), static_cast<std::streamsize>(
                                  std::min(size, bytes_.size())));
  }

 private:
  /// `off`, once [off, off + n) is known to lie inside the file.
  std::size_t checked(std::size_t off, std::size_t n) const {
    if (off > bytes_.size() || n > bytes_.size() - off)
      throw std::out_of_range("read past the end of the snapshot file");
    return off;
  }

  std::string path_;
  std::vector<char> bytes_;
  std::vector<Field> fields_;
};

/// Loading `prefix` on every rank of `world` must end in a CheckError from
/// CommWorld::run whose message holds every string of `names`.
void expect_load_error(parcomm::CommWorld& world, const std::string& prefix,
                       const std::vector<std::string>& names) {
  try {
    world.run([&](parcomm::Communicator& comm) {
      (void)load_snapshot(comm, prefix);
    });
    ADD_FAILURE() << "loaded a corrupt snapshot";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    for (const std::string& name : names)
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
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
  const SnapshotFile file(victim);
  const std::uint64_t n_global = file.word(file["n_global"].at);
  const std::uint64_t n_loc = file.word(file["n_loc"].at);
  const std::uint64_t n_gst = file.word(file["n_gst"].at);
  const SnapshotFile::Field& out_index = file["out_index"];
  const SnapshotFile::Field& unmap = file["unmap"];
  const SnapshotFile::Field& ghost_task = file["ghost_task"];
  ASSERT_GE(n_loc, 2u);
  ASSERT_GE(n_gst, 1u);
  ASSERT_GT(file.entry(out_index, n_loc), 0u);  // rank 1 has out-edges

  const auto expect_named_error = [&](const char* what,
                                      const SnapshotFile::Field& f,
                                      std::size_t entry, std::uint64_t value,
                                      const char* name) {
    SCOPED_TRACE(what);
    SnapshotFile bad = file;
    bad.set(f, entry, value);
    bad.write();
    expect_load_error(world, prefix(), {victim, name});
  };
  expect_named_error("decreasing out_index", out_index, 1,
                     file.entry(out_index, n_loc) + 1, "out_index");
  expect_named_error("out-edge equal to n_total", file["out_edges"], 0,
                     n_loc + n_gst, "out_edges");
  expect_named_error("ghost task beyond the ranks", ghost_task, 0, 2,
                     "ghost_task");
  expect_named_error("ghost task equal to the rank", ghost_task, 0, 1,
                     "ghost_task");
  expect_named_error("duplicated unmap id", unmap, 1, file.entry(unmap, 0),
                     "duplicate global ids");
  expect_named_error("unmap id equal to n_global", unmap, 0, n_global,
                     "unmap");
}

// The ghost plan build trusts the stored layout to follow the partition:
// it translates requested ids with DistGraph::owned_local (v - lo on block
// partitions) and groups the ghosts it reads by ghost_task.  Each case
// breaks that, or the partition itself, in rank 1's file of a 3-rank
// snapshot, with every array still in range and every id distinct; loading
// must end in a CheckError naming the file and the field.
TEST_F(Snapshot, OwnershipMismatchIsANamedError) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  parcomm::CommWorld world(3);
  const std::string victim = prefix() + ".1";
  gvid_t foreign = 0;  // a vertex another rank owns and rank 1 never saw
  const auto save = [&](PartitionKind kind) {
    world.run([&](parcomm::Communicator& comm) {
      const DistGraph g = Builder::from_edge_list(comm, el, kind);
      if (comm.rank() == 1)
        while (foreign < el.n && (g.owner_of_global(foreign) == 1 ||
                                  g.local_id(foreign) != kNullLvid))
          ++foreign;
      save_snapshot(g, comm, prefix());
    });
    return SnapshotFile(victim);
  };

  {
    SCOPED_TRACE("partition over a different vertex count");
    SnapshotFile file = save(PartitionKind::kVertexBlock);
    file.set(file["partition"], 1, el.n + 1);
    file.write();
    expect_load_error(world, prefix(), {victim, "partition covers"});
  }
  {
    SCOPED_TRACE("block-partition locals permuted");
    SnapshotFile file = save(PartitionKind::kVertexBlock);
    const SnapshotFile::Field& unmap = file["unmap"];
    ASSERT_GE(file.word(file["n_loc"].at), 2u);
    const std::uint64_t first = file.entry(unmap, 0);
    file.set(unmap, 0, file.entry(unmap, 1));
    file.set(unmap, 1, first);
    file.write();
    expect_load_error(world, prefix(),
                      {victim, "unmap entry 0", "partition's layout"});
  }
  {
    SCOPED_TRACE("a local another rank owns");
    SnapshotFile file = save(PartitionKind::kRandom);
    ASSERT_LT(foreign, el.n);
    file.set(file["unmap"], 0, foreign);
    file.write();
    expect_load_error(world, prefix(), {victim, "unmap entry 0", "owns"});
  }
  {
    SCOPED_TRACE("explicit owner map naming no rank");
    auto owner = std::make_shared<std::vector<std::int32_t>>(el.n);
    for (gvid_t v = 0; v < el.n; ++v) (*owner)[v] = static_cast<int>(v % 3);
    const Partition part = Partition::explicit_map(el.n, 3, owner);
    world.run([&](parcomm::Communicator& comm) {
      save_snapshot(Builder::from_edge_list(comm, el, part), comm, prefix());
    });
    SnapshotFile file(victim);
    file.set(file["partition"], 3 + el.n - 1, 3);  // [kind, n, p, owners]
    file.write();
    expect_load_error(world, prefix(),
                      {victim, "partition", "owner map entry"});
  }
  {
    SCOPED_TRACE("ghost task naming the wrong other rank");
    SnapshotFile file = save(PartitionKind::kVertexBlock);
    ASSERT_GE(file.word(file["n_gst"].at), 1u);
    const std::uint64_t owner = file.entry(file["ghost_task"], 0);
    file.set(file["ghost_task"], 0, 2 - owner);  // rank 0 <-> rank 2
    file.write();
    expect_load_error(world, prefix(), {victim, "ghost_task entry 0"});
  }
}

// A file cut anywhere ends in a CheckError naming the file and the field
// it ends in: after each scalar word, after each array's length word and in
// the middle of each array of rank 1's file, with no rank left hanging.
TEST_F(Snapshot, TruncationAtEverySectionIsANamedError) {
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
  const SnapshotFile file(victim);
  std::vector<std::size_t> cuts = {0};
  for (const SnapshotFile::Field& f : file.fields()) {
    cuts.push_back(f.at + 8);  // after the word, or the length word
    if (f.elem) {
      ASSERT_GT(f.len, 0u) << f.name;
      cuts.push_back(f.data() + f.elem * f.len / 2);
    }
  }
  // The file ends inside the first field that extends past the cut.
  for (const std::size_t cut : cuts) {
    const SnapshotFile::Field& in = *std::find_if(
        file.fields().begin(), file.fields().end(),
        [&](const SnapshotFile::Field& f) { return cut < f.end(); });
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + ", in " + in.name);
    file.write(cut);
    expect_load_error(world, prefix(), {victim, in.name});
  }
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
    const auto plan = built.ghost_plan(comm, Adjacency::kBoth);
    EXPECT_GT(built.ghost_plan_bytes(), 0u);

    const DistGraph copy = built;
    EXPECT_EQ(copy.ghost_plan(comm, Adjacency::kBoth), plan);

    save_snapshot(built, comm, prefix());
    const DistGraph loaded = load_snapshot(comm, prefix());
    EXPECT_EQ(loaded.ghost_plan_bytes(), 0u);
    const auto own = loaded.ghost_plan(comm, Adjacency::kBoth);
    EXPECT_NE(own, plan);
    EXPECT_TRUE(std::ranges::equal(own->send_local(), plan->send_local()));
    EXPECT_TRUE(std::ranges::equal(own->send_counts(), plan->send_counts()));
    EXPECT_TRUE(std::ranges::equal(own->recv_local(), plan->recv_local()));
    EXPECT_TRUE(std::ranges::equal(own->recv_counts(), plan->recv_counts()));
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
