#include "trace_metrics.hpp"

#include <algorithm>
#include <string_view>

namespace hpcgraph::e2e {

namespace {

enum class Kind { kOther, kSuperstep, kCompute, kFrontierStep, kExchange,
                  kPack, kScatter, kRoute, kBench };

Kind kind_of(std::string_view n) {
  namespace sn = obs::span_name;
  if (n == sn::kSuperstep) return Kind::kSuperstep;
  if (n == sn::kCompute || n == sn::kComputeBoundary ||
      n == sn::kComputeInterior)
    return Kind::kCompute;
  if (n == sn::kFrontierStep) return Kind::kFrontierStep;
  if (n == sn::kExchange || n == sn::kExchangeStart ||
      n == sn::kExchangeFinish)
    return Kind::kExchange;
  if (n == sn::kGhostPack || n == sn::kGhostReduce) return Kind::kPack;
  if (n == sn::kGhostScatter) return Kind::kScatter;
  if (n == sn::kRoute) return Kind::kRoute;
  if (n.starts_with("bench.")) return Kind::kBench;
  return Kind::kOther;
}

using Ev = const obs::MergedEvent*;

std::int64_t end_of(Ev e) { return e->ts_ns + e->dur_ns; }

/// Events of the ts-sorted `lane` lying inside `outer` (excluding it).
std::vector<Ev> inside(const std::vector<Ev>& lane, Ev outer) {
  std::vector<Ev> out;
  auto it = std::lower_bound(lane.begin(), lane.end(), outer->ts_ns,
                             [](Ev e, std::int64_t t) { return e->ts_ns < t; });
  for (; it != lane.end() && (*it)->ts_ns <= end_of(outer); ++it)
    if (*it != outer && end_of(*it) <= end_of(outer)) out.push_back(*it);
  return out;
}

/// Length of the union of the intervals (events ts-sorted).
std::int64_t union_ns(const std::vector<Ev>& evs) {
  std::int64_t total = 0, lo = 0, hi = -1;
  for (Ev e : evs) {
    if (e->ts_ns > hi) {
      total += hi > lo ? hi - lo : 0;
      lo = e->ts_ns;
      hi = end_of(e);
    } else {
      hi = std::max(hi, end_of(e));
    }
  }
  return total + (hi > lo ? hi - lo : 0);
}

}  // namespace

TraceMetrics analyze_trace(const obs::Tracer& tracer,
                           std::span<const char* const> windows, int nranks) {
  const std::vector<std::string>& names = tracer.merged_names();
  std::vector<Kind> kind(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) kind[i] = kind_of(names[i]);
  const auto kind_at = [&](Ev e) { return kind[e->name_id]; };

  std::vector<std::vector<Ev>> lanes(static_cast<std::size_t>(nranks));
  for (const obs::MergedEvent& e : tracer.merged_events())
    if (e.kind == obs::EventKind::kSpan && e.tid == 0 && e.rank >= 0 &&
        e.rank < nranks)
      lanes[static_cast<std::size_t>(e.rank)].push_back(&e);
  for (auto& lane : lanes)
    std::stable_sort(lane.begin(), lane.end(),
                     [](Ev a, Ev b) { return a->ts_ns < b->ts_ns; });

  TraceMetrics tm;
  for (int r = 0; r < nranks; ++r)
    for (const obs::Lane* l : tracer.rank_lanes(r)) tm.dropped += l->dropped();

  constexpr double kS = 1e-9;
  for (const char* wname : windows) {
    TraceStage ts;
    // Per rank: compute and exchange time of each superstep in the window.
    std::vector<std::vector<double>> comp(lanes.size()), exch(lanes.size());
    for (std::size_t r = 0; r < lanes.size(); ++r) {
      const auto w = std::find_if(lanes[r].begin(), lanes[r].end(), [&](Ev e) {
        return names[e->name_id] == wname;
      });
      if (w == lanes[r].end()) continue;
      const std::vector<Ev> in = inside(lanes[r], *w);
      double pack = 0, scatter = 0, route = 0;
      std::vector<Ev> library;
      for (Ev e : in) {
        const Kind k = kind_at(e);
        if (k != Kind::kBench) library.push_back(e);
        if (k == Kind::kPack) pack += static_cast<double>(e->dur_ns) * kS;
        if (k == Kind::kScatter) scatter += static_cast<double>(e->dur_ns) * kS;
        if (k == Kind::kRoute) route += static_cast<double>(e->dur_ns) * kS;
        if (k != Kind::kSuperstep) continue;
        std::int64_t c = 0, x = 0;
        for (Ev s : inside(lanes[r], e)) {
          const Kind sk = kind_at(s);
          if (sk == Kind::kCompute) c += s->dur_ns;
          if (sk == Kind::kExchange) x += s->dur_ns;
          if (sk != Kind::kFrontierStep) continue;
          c += s->dur_ns;
          for (Ev child : inside(lanes[r], s)) {
            const Kind ck = kind_at(child);
            if (ck == Kind::kRoute || ck == Kind::kPack || ck == Kind::kScatter)
              c -= child->dur_ns;
          }
        }
        comp[r].push_back(static_cast<double>(c) * kS);
        exch[r].push_back(static_cast<double>(x) * kS);
      }
      ts.pack = std::max(ts.pack, pack);
      ts.scatter = std::max(ts.scatter, scatter);
      ts.route = std::max(ts.route, route);
      ts.window += static_cast<double>((*w)->dur_ns) * kS;
      ts.covered += static_cast<double>(union_ns(library)) * kS;
    }
    std::size_t steps = SIZE_MAX;
    for (const auto& c : comp) steps = std::min(steps, c.size());
    for (std::size_t k = 0; k < steps && !comp.empty(); ++k) {
      double mx = 0, sum = 0, xmx = 0;
      for (std::size_t r = 0; r < comp.size(); ++r) {
        mx = std::max(mx, comp[r][k]);
        sum += comp[r][k];
        xmx = std::max(xmx, exch[r][k]);
      }
      ts.compute += mx;
      ts.idle += mx - sum / static_cast<double>(comp.size());
      ts.exchange += xmx;
    }
    tm.stages.push_back(ts);
  }
  return tm;
}

}  // namespace hpcgraph::e2e
