#pragma once
// The driver's run report: named metrics with units, correctness checks,
// operation counts and host metadata, written as one JSON document that
// perfbench/run.py turns into the benchmark's result line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Host/run metadata; `json` must already be a valid JSON value.
  void meta(const std::string& key, std::string json);
  void meta_str(const std::string& key, const std::string& value);
  void meta_num(const std::string& key, double value);
  void warn(const std::string& text);

  /// Operation ledger: every user-visible operation of the measured phases
  /// (builds, queries, writes) and how many of them did not succeed.
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const;

  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> warnings_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double process_cpu_s();

}  // namespace perfbench
