#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/json_util.hpp"

namespace wknng::obs {

Tracer::Tracer(bool warp_spans)
    : warp_spans_(warp_spans), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  const auto dt = std::chrono::steady_clock::now() - origin_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

void Tracer::record(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(ev));
}

void Tracer::instant(
    const std::string& name, const std::string& cat, std::uint32_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = 'i';
  ev.id = span_id(current_phase(), event_count(), 0, SpanSalt::kInstant);
  ev.tid = tid;
  ev.ts_us = now_us();
  ev.args = std::move(args);
  record(std::move(ev));
}

std::uint64_t Tracer::span_id(std::uint64_t a, std::uint64_t b,
                              std::uint64_t c, SpanSalt salt) {
  // Chained splitmix64: each step adds one argument and applies the
  // finalizer, a bijection on 64-bit words. With the other arguments fixed,
  // the id is therefore injective in each argument — distinct launches of
  // one phase can never share an id.
  const auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::uint64_t x = mix(static_cast<std::uint64_t>(salt));
  x = mix(x + a);
  x = mix(x + b);
  return mix(x + c);
}

std::uint64_t Tracer::begin_phase(const char* name) {
  (void)name;
  return phase_index_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string Tracer::to_chrome_json() const {
  std::vector<TraceEvent> evs = events();
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : evs) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
       << json_escape(ev.cat) << "\",\"ph\":\"" << ev.ph
       << "\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":" << fmt_double(ev.ts_us);
    if (ev.ph == 'X') os << ",\"dur\":" << fmt_double(ev.dur_us);
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"args\":{\"span_id\":\"0x";
    os << std::hex << ev.id << std::dec << "\"";
    for (const auto& [k, v] : ev.args) {
      os << ",\"" << json_escape(k) << "\":" << v;
    }
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  WKNNG_CHECK_MSG(out.good(), "cannot open trace output '" << path << "'");
  out << to_chrome_json();
  WKNNG_CHECK_MSG(out.good(), "failed writing trace output '" << path << "'");
}

ScopedTracing::ScopedTracing(Tracer& tracer) {
  Tracer* expected = nullptr;
  const bool installed = trace_detail::g_active.compare_exchange_strong(
      expected, &tracer, std::memory_order_release,
      std::memory_order_relaxed);
  WKNNG_CHECK_MSG(installed, "a tracer is already active (nesting)");
}

ScopedTracing::~ScopedTracing() {
  trace_detail::g_active.store(nullptr, std::memory_order_release);
}

void Span::arg_num(const std::string& key, double v) {
  if (tracer_) ev_.args.emplace_back(key, fmt_double(v));
}

void Span::arg_num(const std::string& key, std::uint64_t v) {
  if (tracer_) ev_.args.emplace_back(key, std::to_string(v));
}

void Span::arg_str(const std::string& key, const std::string& v) {
  if (tracer_) ev_.args.emplace_back(key, "\"" + json_escape(v) + "\"");
}

}  // namespace wknng::obs
