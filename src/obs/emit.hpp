#pragma once
/// \file emit.hpp
/// Whole-file writer shared by every telemetry artifact (trace, metrics,
/// bench JSON).

#include <cstdio>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace hpcgraph::obs {

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
