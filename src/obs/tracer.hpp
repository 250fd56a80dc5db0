#pragma once
/// \file tracer.hpp
/// Per-thread span tracer with cross-rank timeline export (DESIGN.md §13).
///
/// The paper's optimization story is told in per-rank phase breakdowns; this
/// layer records the *timeline* those breakdowns summarize.  Each traced
/// thread owns a lock-free single-writer ring buffer (a Lane) of fixed-size
/// events; RAII `Span`s stamp monotonic begin/duration pairs into the lane of
/// the calling thread, `counter()` stamps sampled values (frontier size,
/// bytes on wire, pool occupancy).  At finalize every rank serializes its
/// lanes, a clock-sync handshake measures each rank's offset against rank 0,
/// and rank 0 gathers the blobs through the ordinary `parcomm::Communicator`
/// collectives (see obs/export.hpp) and writes one Chrome-trace-event /
/// Perfetto-loadable JSON file with a pid per rank and a tid per thread.
///
/// Cost model: tracing is always compiled, runtime-gated.  With no tracer
/// installed a Span or counter is one thread-local load and one branch; it
/// reads no clock (EXPERIMENTS.md §K measures the traced overhead as within
/// noise).
/// Span/counter names must be string literals (or otherwise outlive the
/// tracer): lanes store the pointer and intern at serialization time.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hpcgraph::obs {

/// Canonical span names.  trace_report.py keys its analyses on these
/// spellings; change them only together with the analyzer and DESIGN.md §13.
namespace span_name {
inline constexpr const char* kSuperstep = "engine.superstep";
inline constexpr const char* kCompute = "engine.compute";
inline constexpr const char* kExchange = "engine.exchange";
inline constexpr const char* kFrontierStep = "engine.frontier_step";
// Never emitted; kept because bench/e2e's span classifier reads them.
inline constexpr const char* kComputeBoundary = "engine.compute_boundary";
inline constexpr const char* kComputeInterior = "engine.compute_interior";
inline constexpr const char* kExchangeStart = "engine.exchange_start";
inline constexpr const char* kExchangeFinish = "engine.exchange_finish";
inline constexpr const char* kGhostPack = "ghost.pack";
inline constexpr const char* kGhostScatter = "ghost.scatter";
inline constexpr const char* kGhostReduce = "ghost.reduce";
inline constexpr const char* kRoute = "frontier.route";
inline constexpr const char* kGhostPlan = "ghost.plan";
inline constexpr const char* kPoolSweep = "pool.sweep";
inline constexpr const char* kKcoreSetup = "kcore.setup";  ///< incidence CSR
/// k-core's one masked MS-BFS over every stage's core, allocations included.
inline constexpr const char* kKcoreComponents = "kcore.components";
/// dgraph::Builder's three stages (BuildTiming's read / exchange / lconv).
inline constexpr const char* kBuildRead = "dgraph.build.read";
inline constexpr const char* kBuildExchange = "dgraph.build.exchange";
inline constexpr const char* kBuildLconv = "dgraph.build.lconv";
/// Inside the exchange: the count pass with the out-edge pack, then the
/// in-edge pack (two spans per build).
inline constexpr const char* kBuildPack = "dgraph.build.pack";
inline constexpr const char* kCopy = "parcomm.copy";  ///< payload copy: comm
inline constexpr const char* kWait = "parcomm.wait";  ///< barrier wait: idle
inline constexpr const char* kCliRun = "cli.run";
inline constexpr const char* kBenchRegion = "bench.region";
}  // namespace span_name

/// Canonical counter-track names.  The per-round ones are stamped once per
/// superstep on every rank by engine::stamp_round.
namespace counter_name {
inline constexpr const char* kFrontierActive = "frontier.active";
inline constexpr const char* kTouched = "engine.touched";
inline constexpr const char* kResidual = "engine.residual";
inline constexpr const char* kFrontierDegree = "frontier.degree";
inline constexpr const char* kFrontierPull = "frontier.pull";      ///< 0/1
inline constexpr const char* kFrontierBitmap = "frontier.bitmap";  ///< 0/1
inline constexpr const char* kWireBytes = "wire.bytes";
inline constexpr const char* kPoolOccupancy = "pool.occupancy";
}  // namespace counter_name

/// Monotonic nanoseconds (steady clock).  All ranks share a process in this
/// simulation, but the export path still runs the clock-sync handshake and
/// rebases per-rank timestamps as a real MPI build would.
inline std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class EventKind : std::uint8_t { kSpan = 0, kCounter = 1 };

/// One recorded event.  `name` is an interned pointer (string literal).
struct Event {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< begin (span) or sample time (counter)
  std::int64_t dur_ns = 0;  ///< span duration; 0 for counters
  double value = 0.0;       ///< counter value / optional span annotation
  EventKind kind = EventKind::kSpan;
};

/// Single-writer ring buffer for one (rank, thread) timeline.  Exactly one
/// thread pushes at any time (the owning rank thread, or the pool worker the
/// lane was created for — pool loops on a rank never run concurrently with
/// each other); readers only look after a happens-before edge (pool join,
/// then the finalize barrier), so plain writes suffice: no locks, no atomics
/// on the hot path.  On overflow the oldest events are overwritten and
/// counted as dropped — tracing never stalls the traced code.
class Lane {
 public:
  Lane(int rank_id, unsigned tid, std::size_t capacity)
      : buf_(capacity), rank_(rank_id), tid_(tid) {}

  void push(const Event& e) {
    buf_[static_cast<std::size_t>(head_ % buf_.size())] = e;
    ++head_;
  }

  int rank() const { return rank_; }
  unsigned tid() const { return tid_; }
  std::uint64_t recorded() const { return head_; }
  std::uint64_t dropped() const {
    return head_ > buf_.size() ? head_ - buf_.size() : 0;
  }
  std::size_t size() const {
    return head_ < buf_.size() ? static_cast<std::size_t>(head_) : buf_.size();
  }

  /// Retained events, oldest first.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(size());
    const std::uint64_t first = dropped();
    for (std::uint64_t i = first; i < head_; ++i)
      out.push_back(buf_[static_cast<std::size_t>(i % buf_.size())]);
    return out;
  }

 private:
  std::vector<Event> buf_;
  std::uint64_t head_ = 0;
  int rank_;
  unsigned tid_;
};

class Tracer;

namespace detail {
/// The calling thread's active lane.  Set by RankGuard (rank threads) or by
/// the pool-observer hook (worker threads); null means tracing is off for
/// this thread and spans degrade to plain timers.
struct ThreadBinding {
  Tracer* tracer = nullptr;
  Lane* lane = nullptr;
  void* rank_ctx = nullptr;  ///< obs-internal per-rank pool-lane table
};
ThreadBinding& tls_binding();
}  // namespace detail

struct TracerOptions {
  std::size_t ring_capacity = 1 << 16;  ///< events per lane (~2.6 MiB/lane)
};

/// A merged, clock-rebased event on rank 0 after the gather.
struct MergedEvent {
  std::uint32_t name_id = 0;
  int rank = 0;
  unsigned tid = 0;
  EventKind kind = EventKind::kSpan;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  double value = 0.0;
};

/// Process-wide tracer.  Construct, `install()`, run the traced region with
/// every rank thread holding a `RankGuard`, then call
/// `obs::finalize_trace(tracer, comm)` inside the ranks (collective) and
/// `write_chrome_json(path)` from the host thread afterwards.
class Tracer {
 public:
  explicit Tracer(TracerOptions opts = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Make this the process-wide tracer and hook the thread-pool observer.
  /// Install before spawning rank threads; uninstall after they join.
  void install();
  static void uninstall();
  static Tracer* current();

  const TracerOptions& options() const { return opts_; }

  /// Find-or-create the lane for (rank, tid).  Thread-safe; rare path.
  Lane* lane(int rank_id, unsigned tid);

  /// All lanes created so far for one rank, tid-sorted.  Call only after the
  /// threads that feed them have quiesced (post pool join / finalize).
  std::vector<const Lane*> rank_lanes(int rank_id) const;

  /// Retained events of one rank across its lanes (unsorted across lanes).
  std::vector<Event> rank_events(int rank_id) const;

  // -- finalize plumbing (driven by obs/export.hpp) -------------------------
  /// Serialize one rank's lanes (names interned into a string table) plus its
  /// measured clock offset against rank 0.
  std::vector<std::uint8_t> serialize_rank(int rank_id,
                                           std::int64_t clock_offset_ns) const;
  /// Rank 0: absorb one serialized rank blob, rebasing timestamps by the
  /// offset recorded inside it.
  void merge_serialized(const std::uint8_t* data, std::size_t len);

  /// Rank 0 after finalize: merged events + name table.
  const std::vector<MergedEvent>& merged_events() const { return merged_; }
  const std::vector<std::string>& merged_names() const { return names_; }
  std::int64_t merged_clock_offset(int rank_id) const;

  /// Chrome trace-event JSON of the merged timeline (rank 0 after finalize).
  std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

  // -- internal: pool-observer support --------------------------------------
  void* make_rank_ctx(int rank_id, Lane* lane0);
  void ensure_pool_lanes(void* rank_ctx, unsigned nthreads);
  static void pool_sweep_cb(const void* ctx, unsigned tid, std::uint64_t chunks,
                            std::uint64_t weight, double busy_s);

 private:
  struct RankCtx;

  TracerOptions opts_;
  mutable std::mutex mu_;  ///< guards lanes_/ctxs_ registration (rare path)
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<RankCtx>> ctxs_;

  // rank 0 merge state (written only during finalize, single-threaded)
  std::vector<MergedEvent> merged_;
  std::vector<std::string> names_;
  std::vector<std::pair<int, std::int64_t>> offsets_;       // (rank, offset)
  std::vector<std::pair<int, std::uint64_t>> drop_totals_;  // (rank, dropped)
};

/// RAII: bind the calling thread to lane (rank, 0) of the installed tracer.
/// No-op when no tracer is installed.  Nest-safe: restores the previous
/// binding on destruction.
class RankGuard {
 public:
  explicit RankGuard(int rank_id);
  ~RankGuard();
  RankGuard(const RankGuard&) = delete;
  RankGuard& operator=(const RankGuard&) = delete;

 private:
  detail::ThreadBinding saved_;
};

/// RAII span.  Records into the calling thread's bound lane; on an unbound
/// thread it does nothing at all.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name),
        lane_(detail::tls_binding().lane),
        t0_(lane_ != nullptr ? monotonic_ns() : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  /// End the span now instead of at scope exit.  Idempotent.
  void close() {
    if (lane_ == nullptr) return;
    lane_->push({name_, t0_, monotonic_ns() - t0_, value_, EventKind::kSpan});
    lane_ = nullptr;
  }

  /// Attach a numeric annotation (serialized as args.value).
  void set_value(double v) { value_ = v; }

 private:
  const char* name_;
  Lane* lane_;  ///< null once closed, or when the thread is unbound
  std::int64_t t0_;
  double value_ = 0.0;
};

/// Stamp a counter sample onto the calling thread's lane (no-op when the
/// thread is unbound): one thread-local load and a branch when tracing is off.
inline void counter(const char* name, double value) {
  Lane* lane = detail::tls_binding().lane;
  if (lane != nullptr)
    lane->push({name, monotonic_ns(), 0, value, EventKind::kCounter});
}

}  // namespace hpcgraph::obs
