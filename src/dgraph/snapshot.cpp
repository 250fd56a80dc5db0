#include "dgraph/snapshot.hpp"

#include <cstdio>
#include <filesystem>

#include "util/error.hpp"

namespace hpcgraph::dgraph {

namespace {

constexpr std::uint64_t kMagic = 0x48504752'534e4150ULL;  // "HPGRSNAP"
constexpr std::uint64_t kVersion = 1;

/// RAII stdio handle (buffered sequential I/O fits snapshots well).
class File {
 public:
  File(const std::string& path, const char* mode)
      : path_(path), f_(std::fopen(path.c_str(), mode)) {
    HG_CHECK_MSG(f_ != nullptr, "cannot open snapshot file " << path);
  }
  ~File() {
    if (f_) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* get() const { return f_; }
  const std::string& path() const { return path_; }

  /// Bytes from the read position to the end of the file.
  std::uint64_t left() const {
    const long pos = std::ftell(f_);
    const std::uint64_t size = std::filesystem::file_size(path_);
    HG_CHECK_MSG(pos >= 0 && static_cast<std::uint64_t>(pos) <= size,
                 "snapshot " << path_ << ": read position " << pos
                             << " outside the " << size << "-byte file");
    return size - static_cast<std::uint64_t>(pos);
  }

 private:
  std::string path_;
  std::FILE* f_;
};

void put_u64(std::FILE* f, std::uint64_t v) {
  HG_CHECK(std::fwrite(&v, sizeof v, 1, f) == 1);
}

/// Reads one word of the field `field`; a file that ends first is a named
/// error.
std::uint64_t get_u64(const File& f, const char* field) {
  std::uint64_t v = 0;
  HG_CHECK_MSG(std::fread(&v, sizeof v, 1, f.get()) == 1,
               "snapshot " << f.path() << ": file ends inside " << field);
  return v;
}

template <typename T>
void put_vec(std::FILE* f, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_u64(f, v.size());
  if (!v.empty())
    HG_CHECK(std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size());
}

/// Reads a length-prefixed array.  The length is checked against the bytes
/// left in the file before anything is allocated, so a corrupt or truncated
/// file ends in a named error, not an unbounded allocation.
template <typename T>
std::vector<T> get_vec(const File& f, const char* field) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t size = get_u64(f, field);
  const std::uint64_t left = f.left();
  HG_CHECK_MSG(size <= left / sizeof(T),
               "snapshot " << f.path() << ": " << field << " array length "
                           << size << " exceeds the " << left
                           << " bytes left in the file");
  std::vector<T> v(size);
  if (size)
    HG_CHECK_MSG(std::fread(v.data(), sizeof(T), size, f.get()) == size,
                 "snapshot " << f.path() << ": file ends inside " << field);
  return v;
}

/// The partition blob, deserialized; its errors name the file.
Partition get_partition(const File& f) {
  const std::vector<std::uint64_t> blob =
      get_vec<std::uint64_t>(f, "partition");
  try {
    return Partition::deserialize(blob);
  } catch (const CheckError& e) {
    throw CheckError("snapshot " + f.path() + ": partition: " + e.what());
  }
}

/// A CSR index array must start at 0 and never decrease.
void check_index(const std::vector<ecnt_t>& index, const std::string& path,
                 const char* name) {
  HG_CHECK_MSG(index.front() == 0, "snapshot " << path << ": " << name
                                               << " does not start at 0");
  for (std::size_t i = 1; i < index.size(); ++i)
    HG_CHECK_MSG(index[i - 1] <= index[i],
                 "snapshot " << path << ": " << name << " decreases at entry "
                             << i);
}

/// Every edge entry must be a local-or-ghost id.
void check_edges(const std::vector<lvid_t>& edges, lvid_t n_total,
                 const std::string& path, const char* name) {
  for (std::size_t e = 0; e < edges.size(); ++e)
    HG_CHECK_MSG(edges[e] < n_total,
                 "snapshot " << path << ": " << name << " entry " << e
                             << " is " << edges[e] << ", not below n_total "
                             << n_total);
}

std::string rank_path(const std::string& prefix, int rank) {
  return prefix + "." + std::to_string(rank);
}

}  // namespace

void save_snapshot(const DistGraph& g, parcomm::Communicator& comm,
                   const std::string& path_prefix) {
  File f(rank_path(path_prefix, g.rank()), "wb");
  std::FILE* fp = f.get();
  put_u64(fp, kMagic);
  put_u64(fp, kVersion);
  put_u64(fp, static_cast<std::uint64_t>(g.rank()));
  put_u64(fp, static_cast<std::uint64_t>(g.nranks()));
  put_vec(fp, g.part_.serialize());
  put_u64(fp, g.n_global_);
  put_u64(fp, g.m_global_);
  put_u64(fp, g.n_loc_);
  put_u64(fp, g.n_gst_);
  put_vec(fp, g.out_index_);
  put_vec(fp, g.out_edges_);
  put_vec(fp, g.in_index_);
  put_vec(fp, g.in_edges_);
  put_vec(fp, g.unmap_);
  put_vec(fp, g.ghost_task_);
  comm.barrier();  // snapshot complete on every rank before returning
}

DistGraph load_snapshot(parcomm::Communicator& comm,
                        const std::string& path_prefix) {
  File f(rank_path(path_prefix, comm.rank()), "rb");
  const std::string& path = f.path();
  const auto expect_word = [&](const char* field, std::uint64_t want) {
    const std::uint64_t got = get_u64(f, field);
    HG_CHECK_MSG(got == want, "snapshot " << path << ": " << field << " is "
                                          << got << ", expected " << want);
  };
  expect_word("magic", kMagic);
  expect_word("version", kVersion);
  expect_word("rank", static_cast<std::uint64_t>(comm.rank()));
  expect_word("nranks", static_cast<std::uint64_t>(comm.size()));

  DistGraph g(get_partition(f), comm.rank());
  g.n_global_ = get_u64(f, "n_global");
  g.m_global_ = get_u64(f, "m_global");
  const std::uint64_t n_loc = get_u64(f, "n_loc");
  const std::uint64_t n_gst = get_u64(f, "n_gst");
  HG_CHECK_MSG(n_loc < kNullLvid && n_gst < kNullLvid - n_loc,
               "snapshot " << path << ": n_loc " << n_loc << " + n_gst "
                           << n_gst << " does not fit a local id");
  g.n_loc_ = static_cast<lvid_t>(n_loc);
  g.n_gst_ = static_cast<lvid_t>(n_gst);
  g.out_index_ = get_vec<ecnt_t>(f, "out_index");
  g.out_edges_ = get_vec<lvid_t>(f, "out_edges");
  g.in_index_ = get_vec<ecnt_t>(f, "in_index");
  g.in_edges_ = get_vec<lvid_t>(f, "in_edges");
  g.unmap_ = get_vec<gvid_t>(f, "unmap");
  g.ghost_task_ = get_vec<std::int32_t>(f, "ghost_task");

  // Sanity: array sizes must cohere before rebuilding the hash map.
  const auto expect_size = [&](const char* field, std::size_t size,
                               std::uint64_t want, const char* what) {
    HG_CHECK_MSG(size == want, "snapshot " << path << ": " << field
                                           << " holds " << size
                                           << " entries, not " << what
                                           << " = " << want);
  };
  expect_size("out_index", g.out_index_.size(), n_loc + 1, "n_loc + 1");
  expect_size("in_index", g.in_index_.size(), n_loc + 1, "n_loc + 1");
  expect_size("unmap", g.unmap_.size(), n_loc + n_gst, "n_loc + n_gst");
  expect_size("ghost_task", g.ghost_task_.size(), n_gst, "n_gst");
  expect_size("out_edges", g.out_edges_.size(), g.out_index_.back(),
              "the last out_index entry");
  expect_size("in_edges", g.in_edges_.size(), g.in_index_.back(),
              "the last in_index entry");
  const Partition& part = g.part_;
  HG_CHECK_MSG(part.n_global() == g.n_global_ &&
                   part.nranks() == comm.size(),
               "snapshot " << path << ": partition covers " << part.n_global()
                           << " vertices on " << part.nranks()
                           << " ranks, not n_global " << g.n_global_ << " on "
                           << comm.size());

  // The arrays the ghost plan build and the analytics use as indices must
  // be in range: a bad entry would otherwise write or read out of bounds.
  check_index(g.out_index_, path, "out_index");
  check_index(g.in_index_, path, "in_index");
  check_edges(g.out_edges_, g.n_total(), path, "out_edges");
  check_edges(g.in_edges_, g.n_total(), path, "in_edges");
  for (std::size_t i = 0; i < g.ghost_task_.size(); ++i) {
    const std::int32_t t = g.ghost_task_[i];
    HG_CHECK_MSG(t >= 0 && t < comm.size() && t != comm.rank(),
                 "snapshot " << path << ": ghost_task entry " << i << " is "
                             << t << ", not another rank of " << comm.size());
  }
  for (std::size_t i = 0; i < g.unmap_.size(); ++i)
    HG_CHECK_MSG(g.unmap_[i] < g.n_global_,
                 "snapshot " << path << ": unmap entry " << i << " is "
                             << g.unmap_[i] << ", not below n_global "
                             << g.n_global_);

  // The global->local hash map is cheaper to rebuild than to store.
  g.map_.reserve(g.unmap_.size() * 2);
  for (lvid_t l = 0; l < g.n_total(); ++l) g.map_.insert(g.unmap_[l], l);
  HG_CHECK_MSG(g.map_.size() == g.n_total(),
               "snapshot " << path << ": unmap holds "
                           << g.n_total() - g.map_.size()
                           << " duplicate global ids");

  // Ownership must follow the partition, as the Builder lays it out: every
  // local is owned by this rank and sits where owned_local() looks for it,
  // and ghost_task names each ghost's owner.  The ghost plan build relies
  // on both.
  for (lvid_t l = 0; l < g.n_loc_; ++l) {
    const gvid_t v = g.unmap_[l];
    HG_CHECK_MSG(part.owner(v) == comm.rank(),
                 "snapshot " << path << ": unmap entry " << l
                             << " is local vertex " << v << ", which rank "
                             << part.owner(v) << " owns, not rank "
                             << comm.rank());
    HG_CHECK_MSG(g.owned_local(v) == l,
                 "snapshot " << path << ": unmap entry " << l << " is " << v
                             << ", which the partition's layout does not"
                             << " place at local " << l);
  }
  for (lvid_t j = 0; j < g.n_gst_; ++j) {
    const gvid_t v = g.unmap_[g.n_loc_ + j];
    HG_CHECK_MSG(g.ghost_task_[j] == part.owner(v),
                 "snapshot " << path << ": ghost_task entry " << j << " is "
                             << g.ghost_task_[j] << ", but rank "
                             << part.owner(v) << " owns ghost " << v);
  }

  g.build_boundary_locals();

  comm.barrier();
  return g;
}

}  // namespace hpcgraph::dgraph
