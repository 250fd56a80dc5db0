#include "obs/registry.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace hpcgraph::obs {

namespace {

template <typename T>
void put_pod(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t n = out.size();
  out.resize(n + sizeof(T));
  std::memcpy(out.data() + n, &v, sizeof(T));
}

template <typename T>
T get_pod(const std::uint8_t* data, std::size_t len, std::size_t& off) {
  static_assert(std::is_trivially_copyable_v<T>);
  HG_CHECK_MSG(off + sizeof(T) <= len, "truncated obs metrics blob");
  T v;
  std::memcpy(&v, data + off, sizeof(T));
  off += sizeof(T);
  return v;
}

std::string dotted(std::string_view prefix, const char* field) {
  std::string out(prefix);
  out += '.';
  out += field;
  return out;
}

}  // namespace

Metric& Registry::find_or_create(std::string_view name, MetricKind kind) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      HG_CHECK_MSG(m.kind == kind, "obs metric " << m.name
                                                 << " re-registered with a "
                                                    "different kind");
      return m;
    }
  metrics_.push_back(Metric{});
  metrics_.back().name = std::string(name);
  metrics_.back().kind = kind;
  return metrics_.back();
}

const Metric* Registry::find(std::string_view name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Registry::set_counter(std::string_view name, std::uint64_t v) {
  find_or_create(name, MetricKind::kCounter).count = v;
}

void Registry::add_counter(std::string_view name, std::uint64_t v) {
  find_or_create(name, MetricKind::kCounter).count += v;
}

void Registry::set_gauge(std::string_view name, double v) {
  find_or_create(name, MetricKind::kGauge).gauge = v;
}

Log2Histogram& Registry::histogram(std::string_view name) {
  return find_or_create(name, MetricKind::kHist).hist;
}

void Registry::absorb(const parcomm::CommStats& s) {
  namespace f = parcomm::comm_field;
  set_counter(dotted("comm", f::kBytesSent), s.bytes_sent);
  set_counter(dotted("comm", f::kBytesRemote), s.bytes_remote);
  set_counter(dotted("comm", f::kBytesSelf), s.bytes_self);
  set_counter(dotted("comm", f::kBytesReceived), s.bytes_received);
  set_counter(dotted("comm", f::kCollectiveCalls), s.collective_calls);
  set_counter(dotted("comm", f::kBarrierCalls), s.barrier_calls);
  set_counter(dotted("comm", f::kGhostRoundsDense), s.ghost_rounds_dense);
  set_counter(dotted("comm", f::kGhostRoundsReduce), s.ghost_rounds_reduce);
}

void Registry::absorb(const SweepStats& s) {
  set_gauge("sweep.busy_max_s", s.busy_max);
  set_gauge("sweep.busy_total_s", s.busy_total);
  set_counter("sweep.work_max", s.work_max);
  set_counter("sweep.work_total", s.work_total);
  set_counter("sweep.loops", s.loops);
}

void Registry::to_json(util::JsonWriter& w) const {
  std::vector<const Metric*> order;
  order.reserve(metrics_.size());
  for (const Metric& m : metrics_) order.push_back(&m);
  std::sort(order.begin(), order.end(),
            [](const Metric* a, const Metric* b) { return a->name < b->name; });
  w.begin_object();
  for (const Metric* m : order) {
    switch (m->kind) {
      case MetricKind::kCounter:
        w.kv(m->name, m->count);
        break;
      case MetricKind::kGauge:
        w.kv(m->name, m->gauge);
        break;
      case MetricKind::kHist: {
        w.key(m->name);
        w.begin_object();
        w.kv("total", m->hist.total());
        w.key("buckets");
        w.begin_array();
        for (unsigned b = 0; b < m->hist.num_buckets(); ++b)
          w.value(m->hist.count(b));
        w.end_array();
        w.end_object();
        break;
      }
    }
  }
  w.end_object();
}

std::string Registry::to_json() const {
  util::JsonWriter w;
  to_json(w);
  return w.str();
}

std::vector<std::uint8_t> Registry::serialize() const {
  std::vector<std::uint8_t> out;
  put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(metrics_.size()));
  for (const Metric& m : metrics_) {
    put_pod<std::uint8_t>(out, static_cast<std::uint8_t>(m.kind));
    put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(m.name.size()));
    const std::size_t n = out.size();
    out.resize(n + m.name.size());
    std::memcpy(out.data() + n, m.name.data(), m.name.size());
    switch (m.kind) {
      case MetricKind::kCounter:
        put_pod<std::uint64_t>(out, m.count);
        break;
      case MetricKind::kGauge:
        put_pod<double>(out, m.gauge);
        break;
      case MetricKind::kHist: {
        put_pod<std::uint32_t>(out,
                               static_cast<std::uint32_t>(m.hist.num_buckets()));
        for (unsigned b = 0; b < m.hist.num_buckets(); ++b)
          put_pod<std::uint64_t>(out, m.hist.count(b));
        break;
      }
    }
  }
  return out;
}

Registry Registry::deserialize(const std::uint8_t* data, std::size_t len) {
  Registry r;
  std::size_t off = 0;
  const std::uint32_t n = get_pod<std::uint32_t>(data, len, off);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto kind =
        static_cast<MetricKind>(get_pod<std::uint8_t>(data, len, off));
    const std::uint32_t slen = get_pod<std::uint32_t>(data, len, off);
    HG_CHECK_MSG(off + slen <= len, "truncated obs metrics blob");
    std::string name(reinterpret_cast<const char*>(data + off), slen);
    off += slen;
    switch (kind) {
      case MetricKind::kCounter:
        r.set_counter(name, get_pod<std::uint64_t>(data, len, off));
        break;
      case MetricKind::kGauge:
        r.set_gauge(name, get_pod<double>(data, len, off));
        break;
      case MetricKind::kHist: {
        Log2Histogram& h = r.histogram(name);
        const std::uint32_t nb = get_pod<std::uint32_t>(data, len, off);
        for (std::uint32_t b = 0; b < nb; ++b) {
          const std::uint64_t c = get_pod<std::uint64_t>(data, len, off);
          if (c != 0) h.add(Log2Histogram::bucket_lo(b), c);
        }
        break;
      }
    }
  }
  HG_CHECK_MSG(off == len, "trailing bytes in obs metrics blob");
  return r;
}

}  // namespace hpcgraph::obs
