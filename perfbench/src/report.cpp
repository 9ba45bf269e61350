#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/json_util.hpp"

namespace perfbench {

namespace {

// Full precision: every measured digit is reported.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += wknng::obs::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::meta(const std::string& key, std::string json) {
  meta_.emplace_back(key, std::move(json));
}

void Report::meta_str(const std::string& key, const std::string& value) {
  meta(key, quoted(value));
}

void Report::meta_num(const std::string& key, double value) {
  meta(key, num(value));
}

void Report::warn(const std::string& text) { warnings_.push_back(text); }

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? "," : "") << quoted(m.name) << ":{\"value\":" << num(m.value)
       << ",\"unit\":" << quoted(m.unit) << "}";
  }
  os << "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    os << (i ? "," : "") << "{\"name\":" << quoted(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << quoted(c.detail) << "}";
  }
  os << "],\"warnings\":[";
  for (std::size_t i = 0; i < warnings_.size(); ++i) {
    os << (i ? "," : "") << quoted(warnings_[i]);
  }
  os << "],\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    os << (i ? "," : "") << quoted(meta_[i].first) << ":" << meta_[i].second;
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace perfbench
