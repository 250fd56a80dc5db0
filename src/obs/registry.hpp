#pragma once
/// \file registry.hpp
/// Metrics registry: counters, gauges, and log2 histograms under stable
/// dotted names (DESIGN.md §13).
///
/// The registry is the machine-readable complement to the span tracer: one
/// flat namespace per rank, absorbed from the two counter structs
/// (`CommStats` -> comm.*, `SweepStats` -> sweep.*) plus whatever a caller
/// registers directly.  Time lives in the tracer's spans, not here.
/// `--metrics-json` serializes every rank's registry, gathers them on rank 0
/// through the ordinary collectives (obs/export.hpp), and dumps per-rank
/// values plus cross-rank aggregates.  Names are pinned by
/// tests/test_obs.cpp: renaming a metric is a schema change, not a refactor.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "parcomm/comm_stats.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"

namespace hpcgraph::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHist = 2 };

struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;   ///< counter value
  double gauge = 0.0;        ///< gauge value
  Log2Histogram hist;        ///< histogram buckets
};

class Registry {
 public:
  /// Set (overwrite) a monotone counter.
  void set_counter(std::string_view name, std::uint64_t v);
  /// Add to a counter, creating it at zero.
  void add_counter(std::string_view name, std::uint64_t v);
  /// Set a point-in-time gauge.
  void set_gauge(std::string_view name, double v);
  /// Find-or-create a histogram to add samples into.
  Log2Histogram& histogram(std::string_view name);

  /// Absorb the counter structs under their stable prefixes.
  void absorb(const parcomm::CommStats& s);  ///< comm.<comm_field>
  void absorb(const SweepStats& s);          ///< sweep.*

  std::size_t size() const { return metrics_.size(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(std::string_view name) const;

  /// One rank's registry as a JSON object (name-sorted, deterministic).
  void to_json(util::JsonWriter& w) const;
  std::string to_json() const;

  /// Wire form for the rank-0 gather.
  std::vector<std::uint8_t> serialize() const;
  static Registry deserialize(const std::uint8_t* data, std::size_t len);

 private:
  Metric& find_or_create(std::string_view name, MetricKind kind);

  std::vector<Metric> metrics_;  // insertion order; sorted at emit time
};

}  // namespace hpcgraph::obs
