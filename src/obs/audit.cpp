#include "obs/audit.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/topk.hpp"
#include "kernels/kernels.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"

namespace wknng::obs {

namespace {

/// Stream-id salt for audit sampling draws — its own disjoint 64-bit block,
/// like the loadgen's arrival/mutation streams, so the audit sample set
/// never correlates with arrivals, write mix, or the entry-table stream.
constexpr std::uint64_t kAuditStream = 0xA0D17BA5E0000000ULL;

/// Scan chunk: row pointers gathered per chunk so the dispatched l2_batch
/// kernel (not a scalar loop) does the distance work.
constexpr std::size_t kScanChunk = 256;

AuditEstimate estimate_from(std::uint64_t n, double sum, double sum_sq) {
  AuditEstimate est;
  est.audited = n;
  if (n == 0) return est;
  const double dn = static_cast<double>(n);
  est.recall = sum / dn;
  const double var = std::max(0.0, sum_sq / dn - est.recall * est.recall);
  // 95% normal-approximation interval over the per-query recalls.
  est.ci_halfwidth = 1.96 * std::sqrt(var / dn);
  return est;
}

}  // namespace

bool audit_should_sample(std::uint64_t seed, double fraction,
                         std::uint64_t index) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  SplitMix64 sm(seed ^ (kAuditStream + index));
  const double u =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return u < fraction;
}

RecallAuditor::RecallAuditor(AuditOptions options)
    : options_(std::move(options)),
      window_(options_.window,
              {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}) {
  WKNNG_CHECK_MSG(options_.k > 0, "audit depth k must be >= 1");
  WKNNG_CHECK_MSG(options_.queue_capacity > 0,
                  "audit queue needs capacity >= 1");
  worker_ = std::thread([this] { worker_loop(); });
}

RecallAuditor::~RecallAuditor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool RecallAuditor::should_sample(std::uint64_t index) const {
  return audit_should_sample(options_.seed, options_.fraction, index);
}

bool RecallAuditor::submit(std::uint64_t index, std::vector<float> query,
                           std::vector<std::uint32_t> served_ids,
                           AuditTarget target) {
  WKNNG_CHECK_MSG(target.base != nullptr, "audit target needs a base matrix");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= options_.queue_capacity) {
      ++dropped_;
      return false;
    }
    Job job;
    job.index = index;
    job.query = std::move(query);
    job.served_ids = std::move(served_ids);
    job.target = std::move(target);
    queue_.push_back(std::move(job));
    ++submitted_;
  }
  work_cv_.notify_one();
  return true;
}

void RecallAuditor::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
}

void RecallAuditor::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    double recall = 0.0;
    try {
      recall = exact_recall(job.target, job.query, job.served_ids, options_.k);
    } catch (...) {
      // An audit must never take the serving process down; a failed scan
      // scores 0 and shows up in the estimate rather than vanishing.
      recall = 0.0;
    }
    complete(job, recall);
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
    drain_cv_.notify_all();
  }
}

void RecallAuditor::complete(const Job& job, double recall) {
  SloTracker* slo = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
    lifetime_sum_ += recall;
    lifetime_sum_sq_ += recall * recall;
    window_.record(job.index, recall);
    if (sample_log_.size() < options_.sample_log_capacity) {
      sample_log_.push_back({job.index, job.target.version, recall});
    }
    slo = slo_;
  }
  if (slo != nullptr) slo->record_recall(job.index, recall);
  if (FlightRecorder* flight = active_flight_recorder()) {
    flight->annotate_recall(job.index, recall);
  }
}

AuditEstimate RecallAuditor::estimate() const {
  std::lock_guard<std::mutex> lock(mu_);
  const WindowStats w = window_.stats();
  return estimate_from(w.count, w.sum, w.sum_sq);
}

AuditEstimate RecallAuditor::lifetime_estimate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return estimate_from(completed_, lifetime_sum_, lifetime_sum_sq_);
}

std::vector<AuditSample> RecallAuditor::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sample_log_;
}

std::uint64_t RecallAuditor::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

std::uint64_t RecallAuditor::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::uint64_t RecallAuditor::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void RecallAuditor::attach_slo(SloTracker* slo) {
  std::lock_guard<std::mutex> lock(mu_);
  slo_ = slo;
}

double RecallAuditor::exact_recall(const AuditTarget& target,
                                   std::span<const float> query,
                                   std::span<const std::uint32_t> served_ids,
                                   std::size_t k) {
  WKNNG_CHECK_MSG(target.base != nullptr, "audit target needs a base matrix");
  const FloatMatrix& base = *target.base;
  WKNNG_CHECK_MSG(query.size() == base.cols(),
                  "audit query dim " << query.size() << " != base dim "
                                     << base.cols());
  const bool masked = target.exclude.size() == base.rows();

  // Exact top-k over the live rows: chunked row-pointer gather through the
  // dispatched l2_batch kernel — the same fp32 scan whether the query was
  // served from fp32 rows, the SQ8 tier, or the optimized layout.
  TopK top(k);
  const float* rows[kScanChunk];
  std::uint32_t ids[kScanChunk];
  float dists[kScanChunk];
  std::size_t filled = 0;
  const auto flush = [&] {
    if (filled == 0) return;
    kernels::ops().l2_batch(query.data(), rows, nullptr, filled, base.cols(),
                            dists);
    for (std::size_t j = 0; j < filled; ++j) top.push(dists[j], ids[j]);
    filled = 0;
  };
  for (std::size_t r = 0; r < base.rows(); ++r) {
    if (masked && target.exclude[r] != 0) continue;
    rows[filled] = base.row(r).data();
    ids[filled] = static_cast<std::uint32_t>(r);
    if (++filled == kScanChunk) flush();
  }
  flush();

  std::vector<Neighbor> exact = top.take_sorted();
  if (exact.empty()) return served_ids.empty() ? 1.0 : 0.0;

  // Compare in the client's id space: ground-truth rows map through the
  // snapshot's external ids, exactly like the served answer did.
  std::vector<std::uint32_t> truth_ids;
  truth_ids.reserve(exact.size());
  for (const Neighbor& nb : exact) {
    std::uint32_t id = nb.id;
    if (!target.external_ids.empty() && id < target.external_ids.size()) {
      id = target.external_ids[id];
    }
    truth_ids.push_back(id);
  }
  std::sort(truth_ids.begin(), truth_ids.end());
  std::uint64_t hits = 0;
  const std::size_t depth = std::min(served_ids.size(), truth_ids.size());
  for (std::size_t j = 0; j < depth; ++j) {
    if (std::binary_search(truth_ids.begin(), truth_ids.end(),
                           served_ids[j])) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth_ids.size());
}

void register_audit_metrics(MetricsRegistry& reg, const RecallAuditor& a) {
  const RecallAuditor* p = &a;
  reg.gauge_fn("wknng_slo_recall_estimate",
               [p] { return p->estimate().recall; },
               "Rolling-window audited recall estimate");
  reg.gauge_fn("wknng_slo_recall_ci_halfwidth",
               [p] { return p->estimate().ci_halfwidth; },
               "95% confidence half-width of the audited recall estimate");
  reg.gauge_fn("wknng_slo_audited_total",
               [p] { return static_cast<double>(p->completed()); },
               "Audited queries completed");
  reg.gauge_fn("wknng_slo_audit_dropped_total",
               [p] { return static_cast<double>(p->dropped()); },
               "Audit samples dropped at a full audit queue");
  reg.gauge_fn("wknng_slo_audit_fraction",
               [p] { return p->options().fraction; },
               "Configured audit sampling fraction");
}

}  // namespace wknng::obs
