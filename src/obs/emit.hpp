#pragma once
/// \file emit.hpp
/// Shared JSON emitters for the telemetry structs.
///
/// engine/trace.cpp used to spell every CommStats / PhaseBreakdown field name
/// inline, and the obs metrics registry would have needed a second copy; both
/// now route through these writers, with the spellings themselves defined
/// next to the structs (parcomm::comm_field / parcomm::phase_field), so the
/// superstep trace, the metrics dump, and trace_report.py agree by
/// construction.

#include <cstdio>
#include <string>
#include <string_view>

#include "parcomm/comm_stats.hpp"
#include "parcomm/phase_timer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hpcgraph::obs {

/// Emit the fields of one CommStats as key/value pairs into the writer's
/// current object (the caller brackets begin_object/end_object).
inline void write_comm_stats(util::JsonWriter& w,
                             const parcomm::CommStats& s) {
  namespace f = parcomm::comm_field;
  w.kv(f::kBytesSent, s.bytes_sent);
  w.kv(f::kBytesRemote, s.bytes_remote);
  w.kv(f::kBytesSelf, s.bytes_self);
  w.kv(f::kBytesReceived, s.bytes_received);
  w.kv(f::kCollectiveCalls, s.collective_calls);
  w.kv(f::kBarrierCalls, s.barrier_calls);
  w.kv(f::kGhostRoundsDense, s.ghost_rounds_dense);
  w.kv(f::kGhostRoundsSparse, s.ghost_rounds_sparse);
  w.kv(f::kGhostRoundsReduce, s.ghost_rounds_reduce);
  w.kv(f::kGhostBytesSaved, static_cast<std::int64_t>(s.ghost_bytes_saved));
}

/// Emit the fields of one PhaseBreakdown as key/value pairs into the
/// writer's current object.
inline void write_phase(util::JsonWriter& w,
                        const parcomm::PhaseBreakdown& p) {
  namespace f = parcomm::phase_field;
  w.kv(f::kComp, p.comp);
  w.kv(f::kComm, p.comm);
  w.kv(f::kIdle, p.idle);
  w.kv(f::kPack, p.pack);
  w.kv(f::kRoute, p.route);
  w.kv(f::kSweepBusyMax, p.sweep_busy_max);
  w.kv(f::kSweepBusyTotal, p.sweep_busy_total);
  w.kv(f::kTotal, p.total);
}

/// Write a whole text artifact (trace, metrics, bench JSON) with the same
/// open/short-write checks every emitter used to duplicate.
inline void write_text_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  HG_CHECK_MSG(f != nullptr, "cannot open output file " << path);
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = (n == body.size()) && std::fclose(f) == 0;
  HG_CHECK_MSG(ok, "short write to output file " << path);
}

}  // namespace hpcgraph::obs
