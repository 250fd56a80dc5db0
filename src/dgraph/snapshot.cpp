#include "dgraph/snapshot.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace hpcgraph::dgraph {

namespace {

constexpr std::uint64_t kMagic = 0x48504752'534e4150ULL;  // "HPGRSNAP"
constexpr std::uint64_t kVersion = 1;

/// RAII stdio handle (buffered sequential I/O fits snapshots well).
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {
    HG_CHECK_MSG(f_ != nullptr, "cannot open snapshot file " << path);
  }
  ~File() {
    if (f_) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* get() const { return f_; }

 private:
  std::FILE* f_;
};

void put_u64(std::FILE* f, std::uint64_t v) {
  HG_CHECK(std::fwrite(&v, sizeof v, 1, f) == 1);
}

std::uint64_t get_u64(std::FILE* f) {
  std::uint64_t v = 0;
  HG_CHECK_MSG(std::fread(&v, sizeof v, 1, f) == 1,
               "snapshot truncated (scalar)");
  return v;
}

template <typename T>
void put_vec(std::FILE* f, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_u64(f, v.size());
  if (!v.empty())
    HG_CHECK(std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size());
}

template <typename T>
std::vector<T> get_vec(std::FILE* f) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t size = get_u64(f);
  std::vector<T> v(size);
  if (size)
    HG_CHECK_MSG(std::fread(v.data(), sizeof(T), size, f) == size,
                 "snapshot truncated (array)");
  return v;
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
  std::FILE* fp = f.get();
  HG_CHECK_MSG(get_u64(fp) == kMagic, "not an hpcgraph snapshot");
  HG_CHECK_MSG(get_u64(fp) == kVersion, "unsupported snapshot version");
  HG_CHECK_MSG(get_u64(fp) == static_cast<std::uint64_t>(comm.rank()),
               "snapshot written by a different rank");
  HG_CHECK_MSG(get_u64(fp) == static_cast<std::uint64_t>(comm.size()),
               "snapshot written with a different rank count");

  const std::vector<std::uint64_t> part_blob = get_vec<std::uint64_t>(fp);
  DistGraph g(Partition::deserialize(part_blob), comm.rank());
  g.n_global_ = get_u64(fp);
  g.m_global_ = get_u64(fp);
  g.n_loc_ = static_cast<lvid_t>(get_u64(fp));
  g.n_gst_ = static_cast<lvid_t>(get_u64(fp));
  g.out_index_ = get_vec<ecnt_t>(fp);
  g.out_edges_ = get_vec<lvid_t>(fp);
  g.in_index_ = get_vec<ecnt_t>(fp);
  g.in_edges_ = get_vec<lvid_t>(fp);
  g.unmap_ = get_vec<gvid_t>(fp);
  g.ghost_task_ = get_vec<std::int32_t>(fp);

  // Sanity: array sizes must cohere before rebuilding the hash map.
  HG_CHECK(g.out_index_.size() == static_cast<std::size_t>(g.n_loc_) + 1);
  HG_CHECK(g.in_index_.size() == static_cast<std::size_t>(g.n_loc_) + 1);
  HG_CHECK(g.unmap_.size() ==
           static_cast<std::size_t>(g.n_loc_) + g.n_gst_);
  HG_CHECK(g.ghost_task_.size() == g.n_gst_);
  HG_CHECK(g.out_index_.back() == g.out_edges_.size());
  HG_CHECK(g.in_index_.back() == g.in_edges_.size());

  // The global->local hash map is cheaper to rebuild than to store.
  g.map_.reserve(g.unmap_.size() * 2);
  for (lvid_t l = 0; l < g.n_total(); ++l) g.map_.insert(g.unmap_[l], l);

  g.build_boundary_locals();

  comm.barrier();
  return g;
}

}  // namespace hpcgraph::dgraph
