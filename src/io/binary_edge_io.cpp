#include "io/binary_edge_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <type_traits>

#include "util/error.hpp"

namespace hpcgraph::io {

namespace {

/// RAII file descriptor.
class Fd {
 public:
  Fd(const std::string& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)) {
    HG_CHECK_MSG(fd_ >= 0,
                 "open(" << path << ") failed: " << std::strerror(errno));
  }
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

void write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    HG_CHECK_MSG(w > 0, "write failed: " << std::strerror(errno));
    p += w;
    len -= static_cast<std::size_t>(w);
  }
}

void pread_all(int fd, void* buf, std::size_t len, off_t offset) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t r = ::pread(fd, p, len, offset);
    HG_CHECK_MSG(r > 0, "pread failed: " << std::strerror(errno));
    p += r;
    offset += r;
    len -= static_cast<std::size_t>(r);
  }
}

/// The one file read: edges [first, first + count) land in `out` as the file
/// stores them, count * bytes_per_edge(format) bytes.
void read_range(const std::string& path, EdgeFormat format,
                std::uint64_t first, std::uint64_t count, void* out) {
  Fd fd(path, O_RDONLY);
  const std::size_t bpe = bytes_per_edge(format);
  if (count > 0)
    pread_all(fd.get(), out, count * bpe, static_cast<off_t>(first * bpe));
}

// A kU64 edge is two host-order u64, as write_edge_file writes it: the
// layout of gen::Edge, so read_edge_chunk reads it in place.
static_assert(sizeof(gen::Edge) == 16 &&
              std::is_trivially_copyable_v<gen::Edge>);

}  // namespace

void write_edge_file(const std::string& path, const gen::EdgeList& graph,
                     EdgeFormat format) {
  Fd fd(path, O_WRONLY | O_CREAT | O_TRUNC);
  constexpr std::size_t kBatch = 1 << 16;

  if (format == EdgeFormat::kU32) {
    std::vector<std::uint32_t> buf;
    buf.reserve(kBatch * 2);
    for (const gen::Edge& e : graph.edges) {
      HG_CHECK_MSG(e.src <= 0xffffffffULL && e.dst <= 0xffffffffULL,
                   "vertex id exceeds u32 format");
      buf.push_back(static_cast<std::uint32_t>(e.src));
      buf.push_back(static_cast<std::uint32_t>(e.dst));
      if (buf.size() >= kBatch * 2) {
        write_all(fd.get(), buf.data(), buf.size() * sizeof(std::uint32_t));
        buf.clear();
      }
    }
    if (!buf.empty())
      write_all(fd.get(), buf.data(), buf.size() * sizeof(std::uint32_t));
  } else {
    std::vector<std::uint64_t> buf;
    buf.reserve(kBatch * 2);
    for (const gen::Edge& e : graph.edges) {
      buf.push_back(e.src);
      buf.push_back(e.dst);
      if (buf.size() >= kBatch * 2) {
        write_all(fd.get(), buf.data(), buf.size() * sizeof(std::uint64_t));
        buf.clear();
      }
    }
    if (!buf.empty())
      write_all(fd.get(), buf.data(), buf.size() * sizeof(std::uint64_t));
  }
}

std::uint64_t edge_count(const std::string& path, EdgeFormat format) {
  struct stat st{};
  HG_CHECK_MSG(::stat(path.c_str(), &st) == 0,
               "stat(" << path << ") failed: " << std::strerror(errno));
  const std::size_t bpe = bytes_per_edge(format);
  HG_CHECK_MSG(static_cast<std::uint64_t>(st.st_size) % bpe == 0,
               path << ": size not a whole number of edges");
  return static_cast<std::uint64_t>(st.st_size) / bpe;
}

std::vector<gen::Edge> read_edge_chunk(const std::string& path,
                                       EdgeFormat format, std::uint64_t first,
                                       std::uint64_t count) {
  if (format == EdgeFormat::kU32) {
    const std::vector<EdgeRecord> recs = read_edge_records(path, first, count);
    std::vector<gen::Edge> out(count);
    for (std::uint64_t i = 0; i < count; ++i)
      out[i] = {recs[i].src, recs[i].dst};
    return out;
  }
  std::vector<gen::Edge> out(count);
  read_range(path, format, first, count, out.data());
  return out;
}

std::vector<EdgeRecord> read_edge_records(const std::string& path,
                                          std::uint64_t first,
                                          std::uint64_t count) {
  std::vector<EdgeRecord> out(count);
  read_range(path, EdgeFormat::kU32, first, count, out.data());
  return out;
}

std::pair<std::uint64_t, std::uint64_t> chunk_for_rank(std::uint64_t num_edges,
                                                       int rank, int nranks) {
  HG_CHECK(nranks >= 1 && rank >= 0 && rank < nranks);
  const std::uint64_t p = static_cast<std::uint64_t>(nranks);
  const std::uint64_t r = static_cast<std::uint64_t>(rank);
  const std::uint64_t base = num_edges / p;
  const std::uint64_t extra = num_edges % p;
  // The first `extra` ranks take one additional edge.
  const std::uint64_t first = r * base + std::min(r, extra);
  const std::uint64_t count = base + (r < extra ? 1 : 0);
  return {first, count};
}

}  // namespace hpcgraph::io
