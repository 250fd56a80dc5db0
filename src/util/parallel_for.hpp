#pragma once
/// \file parallel_for.hpp
/// Intra-rank (shared-memory) worker pool and its one loop schedule.
///
/// Substitutes for the paper's OpenMP threading: each MPI-style rank can run
/// its vertex loops over several threads.  The pool is persistent (threads
/// are created once per rank, not per loop) because the paper's analytics
/// enter a parallel region every iteration and thread spawn cost would
/// dominate at small scale.
///
/// Every recorded sweep runs over a deterministic ChunkGrid, and the pool
/// assigns chunks statically: contiguous blocks of chunks per thread.  A
/// kernel sweep's grid is `span_grid` — one equal-count span per thread,
/// weighted by a CSR prefix where the caller passes one — so chunk c runs on
/// thread c, the split of Algorithm 3's thread-local queues.
///
/// Determinism contract: a grid is a pure function of its inputs, and
/// floating-point kernels reduce per-chunk partials in chunk order
/// (reduce_chunks), so results are bit-identical across runs.  A span grid
/// depends on the thread count, so a reduction over it is deterministic per
/// pool width; per-vertex outputs do not depend on the split and are pinned
/// across pool widths.  See DESIGN.md §10.
///
/// With one thread the pool degenerates to inline execution in chunk order
/// with zero synchronization; multi-thread paths are exercised by the test
/// suite (and by CI with HPCGRAPH_POOL_THREADS=4).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace hpcgraph {

/// One unit of a sweep: items [begin, end) carrying `weight()` units of
/// work.  For a grid built over a CSR prefix, w_begin/w_end are edge
/// offsets; otherwise they equal begin/end.
struct Chunk {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t w_begin = 0;
  std::uint64_t w_end = 0;

  std::uint64_t items() const { return end - begin; }
  std::uint64_t weight() const { return w_end - w_begin; }
  friend bool operator==(const Chunk&, const Chunk&) = default;
};

/// Deterministic decomposition of an index range into chunks.  Pure function
/// of its inputs: building the same grid twice — on any thread, with any
/// pool width — yields element-wise identical chunks.
class ChunkGrid {
 public:
  ChunkGrid() = default;

  /// Uniform item chunks over [0, n): each chunk holds `grain` items (the
  /// last one may hold fewer).  Weight == item count.
  static ChunkGrid items(std::uint64_t n, std::uint64_t grain) {
    HG_CHECK(grain > 0);
    ChunkGrid g;
    for (std::uint64_t lo = 0; lo < n; lo += grain) {
      const std::uint64_t hi = std::min(n, lo + grain);
      g.chunks_.push_back({lo, hi, lo, hi});
    }
    g.finish();
    return g;
  }

  /// Uniform item chunks (same boundaries as items()) but with weights taken
  /// from a CSR prefix array of size n+1.  Used when the sweep cost tracks
  /// edges yet the chunk geometry must stay count-based.
  static ChunkGrid items_weighted(std::span<const std::uint64_t> prefix,
                                  std::uint64_t grain) {
    HG_CHECK(!prefix.empty() && grain > 0);
    const std::uint64_t n = prefix.size() - 1;
    ChunkGrid g;
    for (std::uint64_t lo = 0; lo < n; lo += grain) {
      const std::uint64_t hi = std::min(n, lo + grain);
      g.chunks_.push_back({lo, hi, prefix[lo], prefix[hi]});
    }
    g.finish();
    return g;
  }

  std::size_t size() const { return chunks_.size(); }
  bool empty() const { return chunks_.empty(); }
  const Chunk& operator[](std::size_t i) const { return chunks_[i]; }
  std::uint64_t items_total() const { return items_total_; }
  std::uint64_t weight_total() const { return weight_total_; }
  friend bool operator==(const ChunkGrid&, const ChunkGrid&) = default;

 private:
  void finish() {
    for (const Chunk& c : chunks_) {
      items_total_ += c.items();
      weight_total_ += c.weight();
    }
  }

  std::vector<Chunk> chunks_;
  std::uint64_t items_total_ = 0;
  std::uint64_t weight_total_ = 0;
};

/// The span grid of a kernel sweep over [0, n): one equal-count span per
/// thread (fewer when n < nthreads), weighted by the CSR prefix (size n+1)
/// when one is passed, so the sweep telemetry counts edges.
inline ChunkGrid span_grid(std::uint64_t n,
                           std::span<const std::uint64_t> prefix,
                           unsigned nthreads) {
  HG_DCHECK(prefix.empty() || prefix.size() == n + 1);
  const std::uint64_t g =
      std::max<std::uint64_t>(1, (n + nthreads - 1) / nthreads);
  return prefix.empty() ? ChunkGrid::items(n, g)
                        : ChunkGrid::items_weighted(prefix, g);
}

/// Per-pool sweep telemetry, accumulated over every recorded loop run since
/// construction / the last snapshot.  busy_* are wall-seconds spent
/// inside loop bodies; work_* count chunk weight (edges when the grid was
/// built over a CSR prefix, items otherwise).
struct SweepStats {
  double busy_max = 0.0;    ///< sum over loops of max per-thread busy time
  double busy_total = 0.0;  ///< sum over loops of total busy time
  std::uint64_t work_max = 0;    ///< sum over loops of max per-thread weight
  std::uint64_t work_total = 0;  ///< sum over loops of total weight
  std::uint64_t loops = 0;       ///< recorded loops executed

  SweepStats operator-(const SweepStats& o) const {
    return {busy_max - o.busy_max, busy_total - o.busy_total,
            work_max - o.work_max, work_total - o.work_total,
            loops - o.loops};
  }
};

/// Chunk-order emission assembly: append per-chunk output lists to `out`
/// in chunk order.  Each chunk's list is in item order, so the
/// concatenation is the serial item-order list whatever the grid and the
/// thread count; this is the deterministic frontier/accept-list idiom used
/// by the frontier layer and MS-BFS.
template <typename T>
inline void concat_chunk_lists(const std::vector<std::vector<T>>& chunk_lists,
                               std::vector<T>& out) {
  for (const std::vector<T>& cl : chunk_lists)
    out.insert(out.end(), cl.begin(), cl.end());
}

/// Observability hook for chunked sweeps (installed by obs::Tracer, see
/// src/obs/ and DESIGN.md §13).  Kept as bare function pointers with an
/// opaque context so this header stays dependency-free: util cannot include
/// obs (obs builds on util).
///
/// `capture` runs on the thread constructing a ThreadPool and returns an
/// opaque per-rank context (nullptr disables sampling for that pool);
/// `sweep` runs on every participating thread at the end of each
/// `for_chunks` loop with that thread's chunk count, executed weight, and
/// busy seconds.  Both pointers are written once, by the host thread, before
/// rank threads spawn (tracer install/uninstall bracket the traced region),
/// so the traced threads only ever read them.
struct PoolObserver {
  const void* (*capture)(unsigned nthreads) = nullptr;
  void (*sweep)(const void* ctx, unsigned tid, std::uint64_t chunks,
                std::uint64_t weight, double busy_s) = nullptr;
};

inline PoolObserver& pool_observer() {
  static PoolObserver o;  // lint:allow(mutable-global: obs hook, see above)
  return o;
}

/// Persistent worker pool executing SPMD regions.
class ThreadPool {
 public:
  /// \param nthreads  Total threads participating in each region (>= 1).
  ///                  The calling thread participates as thread id 0, so only
  ///                  nthreads-1 OS threads are spawned.
  explicit ThreadPool(unsigned nthreads = 1) : nthreads_(nthreads) {
    HG_CHECK(nthreads >= 1);
    if (pool_observer().capture != nullptr)
      obs_ctx_ = pool_observer().capture(nthreads_);
    sweep_scratch_.resize(nthreads_);
    workers_.reserve(nthreads_ - 1);
    for (unsigned t = 1; t < nthreads_; ++t)
      workers_.emplace_back([this, t] { worker_loop(t); });
  }

  ~ThreadPool() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
      generation_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return nthreads_; }

  /// Run fn(thread_id) on all nthreads threads; returns when all are done.
  void run(const std::function<void(unsigned)>& fn) {
    if (nthreads_ == 1) {
      fn(0);
      return;
    }
    {
      std::lock_guard lk(mu_);
      job_ = &fn;
      pending_.store(static_cast<int>(nthreads_) - 1,
                     std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    fn(0);
    // Wait for workers to finish this generation: spin briefly (they almost
    // always finish within the launcher's own chunk cadence), then block.
    spin_until([this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
  }

  /// Unrecorded parallel loop over [begin, end) in equal-count spans.
  /// fn(thread_id, i) is invoked for each index.
  template <typename F>
  void for_each(std::uint64_t begin, std::uint64_t end, F&& fn) {
    for_range(begin, end,
              [&fn](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
                for (std::uint64_t i = lo; i < hi; ++i) fn(tid, i);
              });
  }

  /// Unrecorded parallel loop; fn(thread_id, lo, hi) gets one contiguous
  /// equal-count sub-range per thread.  Empty ranges return without calling
  /// fn, and threads whose span would be zero-width (n < nthreads) are
  /// skipped rather than handed an empty [lo, hi).  Sweeps that belong in
  /// sweep_stats() use for_ranges instead.
  template <typename F>
  void for_range(std::uint64_t begin, std::uint64_t end, F&& fn) {
    const std::uint64_t n = end - begin;
    if (n == 0) return;
    if (nthreads_ == 1) {
      fn(0u, begin, end);
      return;
    }
    run([&](unsigned tid) {
      const std::uint64_t chunk = (n + nthreads_ - 1) / nthreads_;
      const std::uint64_t lo = begin + std::min<std::uint64_t>(n, tid * chunk);
      const std::uint64_t hi =
          begin + std::min<std::uint64_t>(n, (tid + 1) * chunk);
      if (lo >= hi) return;
      fn(tid, lo, hi);
    });
  }

  /// Recorded parallel loop over the chunks of a pre-built grid.
  /// fn(thread_id, chunk_id, chunk) is invoked once per chunk.  Thread t
  /// runs the t-th contiguous block of ceil(chunks / nthreads) chunks, so on
  /// a span_grid chunk c runs on thread c; any chunk-indexed result depends
  /// on the grid alone.  Per-thread busy time and executed weight are
  /// folded into sweep_stats().
  template <typename F>
  void for_chunks(const ChunkGrid& grid, F&& fn) {
    const std::uint64_t nc = grid.size();
    if (nc == 0) return;
    const std::uint64_t per = (nc + nthreads_ - 1) / nthreads_;
    const auto block = [&](unsigned tid) {
      Timer t;
      const std::uint64_t lo = std::min<std::uint64_t>(nc, tid * per);
      const std::uint64_t hi = std::min<std::uint64_t>(nc, lo + per);
      std::uint64_t w = 0;
      for (std::uint64_t c = lo; c < hi; ++c) {
        fn(tid, c, grid[c]);
        w += grid[c].weight();
      }
      const double busy = t.elapsed();
      sweep_scratch_[tid] = {busy, w};
      notify_sweep(tid, hi - lo, w, busy);
    };
    if (nthreads_ == 1) {
      block(0);
    } else {
      run(block);
    }
    fold_sweep_scratch();
  }

  /// Recorded loop adapter presenting each chunk as a contiguous [lo, hi)
  /// item span: fn(thread_id, lo, hi).
  template <typename F>
  void for_ranges(const ChunkGrid& grid, F&& fn) {
    for_chunks(grid, [&fn](unsigned tid, std::uint64_t /*chunk*/,
                           const Chunk& c) { fn(tid, c.begin, c.end); });
  }

  /// Recorded parallel loop over [begin, end) in the span grid of the pool
  /// (no weights): fn(thread_id, lo, hi).  The same spans as for_range, but
  /// the sweep lands in sweep_stats() and the trace.
  template <typename F>
  void for_ranges(std::uint64_t begin, std::uint64_t end, F&& fn) {
    const std::uint64_t n = end - begin;
    if (n == 0) return;
    for_ranges(span_grid(n, {}, nthreads_),
               [&fn, begin](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
                 fn(tid, begin + lo, begin + hi);
               });
  }

  /// Deterministic floating-point reduction: fn(chunk) returns the chunk's
  /// partial; partials are folded serially in chunk order, so the result
  /// depends only on the grid — not on which thread ran which chunk.  With
  /// one thread and a single-chunk grid this is plain sequential
  /// accumulation.
  template <typename F>
  double reduce_chunks(const ChunkGrid& grid, F&& fn) {
    if (grid.empty()) return 0.0;
    std::vector<double> partial(grid.size(), 0.0);
    for_chunks(grid, [&fn, &partial](unsigned /*tid*/, std::uint64_t c,
                                     const Chunk& ck) { partial[c] = fn(ck); });
    double sum = 0.0;
    for (const double p : partial) sum += p;
    return sum;
  }

  /// Cumulative recorded-loop telemetry (see SweepStats).  Read on the
  /// calling thread after loops complete; callers snapshot-and-subtract to
  /// attribute stats to a region.
  const SweepStats& sweep_stats() const { return stats_; }

 private:
  struct SweepScratch {
    double busy = 0.0;
    std::uint64_t weight = 0;
  };

  // Called by the for_chunks caller after run() returns; run()'s join gives
  // acquire ordering on the workers' scratch writes, so no atomics needed.
  void fold_sweep_scratch() {
    double bmax = 0.0, btot = 0.0;
    std::uint64_t wmax = 0, wtot = 0;
    for (unsigned t = 0; t < nthreads_; ++t) {
      bmax = std::max(bmax, sweep_scratch_[t].busy);
      btot += sweep_scratch_[t].busy;
      wmax = std::max(wmax, sweep_scratch_[t].weight);
      wtot += sweep_scratch_[t].weight;
      sweep_scratch_[t] = {};
    }
    stats_.busy_max += bmax;
    stats_.busy_total += btot;
    stats_.work_max += wmax;
    stats_.work_total += wtot;
    stats_.loops += 1;
  }

  // Per-thread sweep sample to the observability hook (no-op unless an
  // obs::Tracer was installed before this pool was constructed).  Runs on
  // the sampled thread itself, so worker lanes are attributed correctly.
  void notify_sweep(unsigned tid, std::uint64_t chunks, std::uint64_t weight,
                    double busy_s) const {
    const PoolObserver& o = pool_observer();
    if (o.sweep != nullptr && obs_ctx_ != nullptr)
      o.sweep(obs_ctx_, tid, chunks, weight, busy_s);
  }

  // Bounded spin on a predicate before the caller falls back to a blocking
  // condition-variable wait.  A cv wakeup can cost upwards of a millisecond
  // on a loaded host — longer than an entire short sweep — and every sweep
  // waits for its slowest thread's span.  Analytics run their loops
  // back-to-back, so the next job almost always lands within the spin
  // window and workers join at full speed.
  template <typename Pred>
  static void spin_until(Pred&& pred) {
    const auto t0 = std::chrono::steady_clock::now();
    while (!pred() && std::chrono::steady_clock::now() - t0 <
                          std::chrono::microseconds(kSpinWaitUs)) {
    }
  }

  void worker_loop(unsigned tid) {
    std::uint64_t seen = 0;
    for (;;) {
      spin_until([&] {
        return generation_.load(std::memory_order_acquire) != seen;
      });
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] {
          return generation_.load(std::memory_order_relaxed) != seen;
        });
        seen = generation_.load(std::memory_order_relaxed);
        if (stop_) return;
        job = job_;
      }
      if (job) (*job)(tid);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lk(mu_);
        done_cv_.notify_all();
      }
    }
  }

  const unsigned nthreads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  /// Spin window before blocking waits fall back to the condition variable.
  static constexpr long kSpinWaitUs = 50;

  const std::function<void(unsigned)>* job_ = nullptr;
  // Job sequence number: bumped under mu_, but spin-polled lock-free by
  // parked workers (see spin_until).  Reviewed: rank-private pool plumbing.
  std::atomic<std::uint64_t> generation_{0};  // lint:allow(raw-sync: intra-rank pool wakeup)
  std::atomic<int> pending_{0};
  bool stop_ = false;
  std::vector<SweepScratch> sweep_scratch_;
  SweepStats stats_;
  /// Opaque obs rank context captured at construction (see PoolObserver).
  const void* obs_ctx_ = nullptr;
};

/// Parses a pool width as HPCGRAPH_POOL_THREADS spells it: a whole decimal
/// integer, clamped to [1, 64].  Any other text ("four", "4x", "") is a
/// CheckError naming the variable and the text, so a typo cannot silently
/// change the width.
inline unsigned parse_pool_threads(const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  HG_CHECK_MSG(end != text && *end == '\0',
               "HPCGRAPH_POOL_THREADS must be a whole number, got \""
                   << text << "\"");
  return static_cast<unsigned>(std::clamp<long>(v, 1, 64));
}

/// Pool width used when no explicit pool is supplied: the
/// HPCGRAPH_POOL_THREADS environment variable (parse_pool_threads), default
/// 1.  Lets CI run the whole test suite with fallback pools at 4 threads
/// without touching every call site.
inline unsigned default_pool_threads() {
  static const unsigned cached = [] {
    const char* env = std::getenv("HPCGRAPH_POOL_THREADS");
    return env ? parse_pool_threads(env) : 1u;
  }();
  return cached;
}

/// Resolves an optional pool pointer to a usable reference, falling back to
/// a private inline pool sized by default_pool_threads().  Replaces the
/// `ThreadPool inline_pool(1); ThreadPool& tp = opt ? *opt : inline_pool;`
/// boilerplate that used to be pasted into every analytic.  The fallback
/// pool is constructed lazily so passing an explicit pool costs nothing.
class PoolFallback {
 public:
  explicit PoolFallback(ThreadPool* pool) : pool_(pool) {}
  ThreadPool& get() {
    if (pool_) return *pool_;
    if (!inline_) inline_ = std::make_unique<ThreadPool>(default_pool_threads());
    return *inline_;
  }
  operator ThreadPool&() { return get(); }

 private:
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> inline_;
};

}  // namespace hpcgraph
