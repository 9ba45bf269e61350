#include "core/entry_table.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace wknng::core {

namespace {

/// The entry table's stream id under the search seed.
constexpr std::uint64_t kEntryStream = 0x5EA5E000ULL;

}  // namespace

EntryTable build_entry_table(const FloatMatrix& rows, std::uint64_t seed,
                             std::size_t entry_sample,
                             std::span<const std::uint32_t> old_to_new) {
  const std::size_t n = rows.rows();
  WKNNG_CHECK_MSG(old_to_new.empty() || old_to_new.size() == n,
                  "entry id map size " << old_to_new.size() << " != rows "
                                       << n);
  EntryTable table;
  table.seed = seed;
  table.entry_sample = entry_sample;
  table.source_rows = n;
  Rng rng(seed, kEntryStream);
  std::vector<std::uint8_t> drawn(n, 0);
  for (std::size_t e = 0; e < entry_sample && table.ids.size() < n; ++e) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(n));
    if (drawn[id] != 0) continue;
    drawn[id] = 1;
    table.ids.push_back(old_to_new.empty() ? id : old_to_new[id]);
  }
  table.rows = FloatMatrix(table.ids.size(), rows.cols());
  for (std::size_t i = 0; i < table.ids.size(); ++i) {
    const auto src = rows.row(table.ids[i]);
    std::copy(src.begin(), src.end(), table.rows.row(i).begin());
  }
  if (!kernels::strict_mode()) table.norms = kernels::row_norms(table.rows);
  return table;
}

const EntryTable& SearchCache::entry_table(
    const FloatMatrix& rows, std::uint64_t seed, std::size_t entry_sample,
    std::span<const std::uint32_t> old_to_new) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : tables_) {
    if (t->seed != seed || t->entry_sample != entry_sample) continue;
    WKNNG_CHECK_MSG(t->source_rows == rows.rows() &&
                        t->rows.cols() == rows.cols(),
                    "cached entry table does not match the searched rows");
    return *t;
  }
  tables_.push_back(std::make_unique<const EntryTable>(
      build_entry_table(rows, seed, entry_sample, old_to_new)));
  return *tables_.back();
}

std::span<const float> SearchCache::norms(const FloatMatrix& rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!norms_built_) {
    if (!kernels::strict_mode()) norms_ = kernels::row_norms(rows);
    norms_built_ = true;
  }
  if (norms_.empty()) return {};
  WKNNG_CHECK_MSG(norms_.size() == rows.rows(),
                  "cached norms cover " << norms_.size() << " rows, searched "
                                        << rows.rows());
  return norms_;
}

}  // namespace wknng::core
