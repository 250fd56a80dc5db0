// The observability layer (DESIGN.md §13): lane ring-buffer semantics, span
// nesting and the no-tracer degradation, pool-worker lane attribution, the
// cross-rank clock-sync/gather finalize (rebased timestamps stay monotone
// per lane at 2-4 ranks), Chrome-trace JSON well-formedness, and the metrics
// registry — including the pinned dotted names: renaming one is a schema
// change that must show up here, not slip through as a refactor.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"

namespace hpcgraph::obs {
namespace {

using parcomm::CommWorld;
using parcomm::Communicator;

// ---- Lane ring buffer. ----

Event ev(const char* name, std::int64_t ts) {
  Event e;
  e.name = name;
  e.ts_ns = ts;
  e.dur_ns = 1;
  return e;
}

TEST(Lane, RetainsEverythingBelowCapacity) {
  Lane lane(0, 0, 8);
  for (int i = 0; i < 5; ++i) lane.push(ev("a", i));
  EXPECT_EQ(lane.recorded(), 5u);
  EXPECT_EQ(lane.dropped(), 0u);
  EXPECT_EQ(lane.size(), 5u);
  const std::vector<Event> snap = lane.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(snap[i].ts_ns, i);
}

TEST(Lane, WraparoundDropsOldestKeepsOrder) {
  Lane lane(0, 0, 4);
  for (int i = 0; i < 11; ++i) lane.push(ev("a", i));
  EXPECT_EQ(lane.recorded(), 11u);
  EXPECT_EQ(lane.dropped(), 7u);  // overflow overwrites, never stalls
  EXPECT_EQ(lane.size(), 4u);
  const std::vector<Event> snap = lane.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(snap[i].ts_ns, 7 + i);  // newest 4
}

// ---- Span / counter recording. ----

TEST(Span, UnboundThreadRecordsNothing) {
  Tracer tracer;
  tracer.install();
  {
    // No RankGuard: the thread has no lane, so nothing is recorded.
    Span sp("unbound");
    sp.close();
    sp.close();  // idempotent
    counter("unbound.counter", 1.0);
  }
  Tracer::uninstall();
  EXPECT_TRUE(tracer.rank_lanes(0).empty());
  EXPECT_TRUE(tracer.rank_events(0).empty());
}

TEST(Span, NestedSpansRecordInCloseOrder) {
  Tracer tracer;
  tracer.install();
  {
    RankGuard guard(0);
    Span outer(span_name::kSuperstep);
    {
      Span inner(span_name::kGhostPack);
      inner.close();
    }
    counter(counter_name::kFrontierActive, 42.0);
  }
  Tracer::uninstall();

  const std::vector<Event> events = tracer.rank_events(0);
  ASSERT_EQ(events.size(), 3u);
  // Inner closes first, then the counter, then the outer span's destructor.
  EXPECT_STREQ(events[0].name, span_name::kGhostPack);
  EXPECT_EQ(events[1].kind, EventKind::kCounter);
  EXPECT_EQ(events[1].value, 42.0);
  EXPECT_STREQ(events[2].name, span_name::kSuperstep);
  // Nesting: the outer span's window contains the inner's.
  EXPECT_LE(events[2].ts_ns, events[0].ts_ns);
  EXPECT_GE(events[2].ts_ns + events[2].dur_ns,
            events[0].ts_ns + events[0].dur_ns);
}

TEST(Span, RankGuardRestoresPreviousBinding) {
  Tracer tracer;
  tracer.install();
  {
    RankGuard outer(0);
    Lane* lane0 = detail::tls_binding().lane;
    ASSERT_NE(lane0, nullptr);
    {
      RankGuard inner(1);
      EXPECT_NE(detail::tls_binding().lane, lane0);
    }
    EXPECT_EQ(detail::tls_binding().lane, lane0);
  }
  Tracer::uninstall();
  EXPECT_EQ(detail::tls_binding().lane, nullptr);
}

TEST(Tracer, PoolWorkersGetTheirOwnLanes) {
  Tracer tracer;
  tracer.install();
  {
    RankGuard guard(0);
    ThreadPool tp(3);  // constructed under the guard -> observer captures
    tp.for_ranges(0, 4096,
                  [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                    volatile std::uint64_t sink = 0;
                    for (std::uint64_t i = lo; i < hi; ++i) sink = sink + i;
                  });
  }
  Tracer::uninstall();

  const std::vector<const Lane*> lanes = tracer.rank_lanes(0);
  ASSERT_GE(lanes.size(), 2u);  // main lane + at least one worker lane
  bool saw_sweep = false;
  for (const Lane* lane : lanes)
    for (const Event& e : lane->snapshot())
      if (std::string(e.name) == span_name::kPoolSweep) saw_sweep = true;
  EXPECT_TRUE(saw_sweep);
}

// ---- Cross-rank finalize: clock rebase + gather + Chrome JSON. ----

TEST(Finalize, RebasedTimelineIsMonotonePerLaneAcrossRanks) {
  for (const int nranks : {2, 4}) {
    SCOPED_TRACE(nranks);
    Tracer tracer;
    tracer.install();
    CommWorld world(nranks);
    world.run([&](Communicator& comm) {
      RankGuard guard(comm.rank());
      for (int i = 0; i < 3; ++i) {
        Span sp(span_name::kSuperstep);
        counter(counter_name::kWireBytes, static_cast<double>(i));
      }
      finalize_trace(tracer, comm);
    });
    Tracer::uninstall();

    const std::vector<MergedEvent>& merged = tracer.merged_events();
    // 3 spans + 3 counters per rank, all gathered onto rank 0, beside the
    // parcomm.wait/copy spans of finalize's own collectives.
    std::size_t recorded = 0;
    for (const MergedEvent& e : merged) {
      const std::string& name = tracer.merged_names()[e.name_id];
      recorded += name == span_name::kSuperstep ||
                  name == counter_name::kWireBytes;
    }
    EXPECT_EQ(recorded, static_cast<std::size_t>(6 * nranks));
    for (int r = 0; r < nranks; ++r) {
      // Rank 0's offset is exactly 0; the others are the barrier exit skew.
      if (r == 0) {
        EXPECT_EQ(tracer.merged_clock_offset(0), 0);
      }
      std::int64_t prev = -1;
      for (const MergedEvent& e : merged) {
        if (e.rank != r || e.kind != EventKind::kSpan) continue;
        EXPECT_GE(e.ts_ns, prev);  // rebase preserves per-lane order
        EXPECT_GE(e.dur_ns, 0);
        prev = e.ts_ns;
      }
    }

    const std::string json = tracer.chrome_json();
    EXPECT_TRUE(util::JsonChecker::valid(json));
    EXPECT_NE(json.find("hpcgraph-trace-events-v1"), std::string::npos);
    for (int r = 0; r < nranks; ++r)
      EXPECT_NE(json.find("rank " + std::to_string(r)), std::string::npos);
    EXPECT_NE(json.find(span_name::kSuperstep), std::string::npos);
    EXPECT_NE(json.find(counter_name::kWireBytes), std::string::npos);
  }
}

TEST(Finalize, SerializeRoundTripsDropCounts) {
  Tracer tracer;
  TracerOptions small;
  small.ring_capacity = 4;
  Tracer tiny(small);
  Lane* lane = tiny.lane(3, 0);
  for (int i = 0; i < 10; ++i) lane->push(ev("x", i));
  const std::vector<std::uint8_t> blob = tiny.serialize_rank(3, 123);
  tracer.merge_serialized(blob.data(), blob.size());
  EXPECT_EQ(tracer.merged_clock_offset(3), 123);
  ASSERT_EQ(tracer.merged_events().size(), 4u);
  for (const MergedEvent& e : tracer.merged_events()) {
    EXPECT_EQ(e.rank, 3);
    EXPECT_EQ(tracer.merged_names()[e.name_id], "x");
  }
  // Drop totals surface in the exported document.
  EXPECT_NE(tracer.chrome_json().find("\"dropped_events\":6"),
            std::string::npos);
}

// ---- Metrics registry. ----

TEST(Registry, PinnedDottedNames) {
  parcomm::CommStats cs;
  cs.bytes_sent = 7;
  SweepStats sw;
  sw.busy_max = 0.5;
  sw.loops = 2;

  Registry reg;
  reg.absorb(cs);
  reg.absorb(sw);

  // The stable export names (DESIGN.md §13).  comm.* comes from the
  // comm_field constants; a rename must touch this list on purpose.
  for (const char* name :
       {"comm.bytes_sent", "comm.bytes_remote", "comm.bytes_self",
        "comm.bytes_received", "comm.collective_calls", "comm.barrier_calls",
        "comm.ghost_rounds_dense", "comm.ghost_rounds_reduce",
        "sweep.busy_max_s",
        "sweep.busy_total_s", "sweep.work_max", "sweep.work_total",
        "sweep.loops"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("comm.bytes_sent")->count, 7u);
  EXPECT_EQ(reg.find("sweep.loops")->count, 2u);
}

TEST(Registry, SerializeRoundTripAndJson) {
  Registry reg;
  reg.add_counter("a.count", 3);
  reg.add_counter("a.count", 4);
  reg.set_gauge("b.gauge", -1.5);
  reg.histogram("c.hist").add(1);
  reg.histogram("c.hist").add(100, 2);

  const std::vector<std::uint8_t> blob = reg.serialize();
  const Registry back = Registry::deserialize(blob.data(), blob.size());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.find("a.count")->count, 7u);
  EXPECT_EQ(back.find("b.gauge")->gauge, -1.5);
  EXPECT_EQ(back.find("c.hist")->hist.total(), 3u);
  EXPECT_EQ(back.to_json(), reg.to_json());
  EXPECT_TRUE(util::JsonChecker::valid(reg.to_json()));
}

TEST(Registry, KindMismatchIsFatal) {
  Registry reg;
  reg.add_counter("x", 1);
  EXPECT_THROW(reg.set_gauge("x", 1.0), CheckError);
}

TEST(Registry, ExportAggregatesAcrossRanks) {
  for (const int nranks : {2, 3}) {
    SCOPED_TRACE(nranks);
    std::string doc;
    CommWorld world(nranks);
    world.run([&](Communicator& comm) {
      Registry reg;
      reg.add_counter("t.count", static_cast<std::uint64_t>(comm.rank() + 1));
      reg.set_gauge("t.gauge", static_cast<double>(comm.rank()));
      reg.histogram("t.hist").add(1u << comm.rank());
      const std::string payload = export_metrics(reg, comm);
      if (comm.rank() == 0) doc = payload;
      EXPECT_EQ(payload.empty(), comm.rank() != 0);
    });

    ASSERT_FALSE(doc.empty());
    EXPECT_TRUE(util::JsonChecker::valid(doc));
    EXPECT_NE(doc.find("\"schema\":\"hpcgraph-metrics-v1\""),
              std::string::npos);
    // counter aggregate: sum = 1+..+n, max = n.
    const std::uint64_t sum =
        static_cast<std::uint64_t>(nranks) *
        static_cast<std::uint64_t>(nranks + 1) / 2;
    EXPECT_NE(doc.find("\"sum\":" + std::to_string(sum)),
              std::string::npos);
    EXPECT_NE(doc.find("\"max\":" + std::to_string(nranks)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace hpcgraph::obs
