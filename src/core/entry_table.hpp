#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace wknng::core {

/// The entry candidates every query over one searched artifact scores: the
/// ids of a seeded random sample of its rows, those rows copied into one
/// contiguous block, and their squared norms. Scoring the block is a stream
/// of 32-row tiles instead of `entry_sample` scattered row gathers per query.
///
/// A table is a pure function of (the rows being searched, `seed`,
/// `entry_sample`, the id map): the first `entry_sample` draws of one seeded
/// stream over the source id space, duplicates dropped (sampling stops early
/// once every row is in), each id mapped through the optional `old_to_new`.
/// The raw graph (no map) and an optimized layout (its `old_to_new`)
/// therefore hold the same points in the same order.
struct EntryTable {
  std::uint64_t seed = 0;
  std::size_t entry_sample = 0;
  std::size_t source_rows = 0;     ///< rows() of the matrix sampled
  std::vector<std::uint32_t> ids;  ///< searched-space ids, in draw order
  FloatMatrix rows;                ///< rows.row(i) is searched row ids[i]
  std::vector<float> norms;        ///< ||rows.row(i)||^2; empty in strict mode

  std::size_t size() const { return ids.size(); }
};

/// Builds the table described above. `old_to_new`, when non-empty, maps
/// each drawn source id into the id space of `rows`.
EntryTable build_entry_table(const FloatMatrix& rows, std::uint64_t seed,
                             std::size_t entry_sample,
                             std::span<const std::uint32_t> old_to_new = {});

/// Search caches owned by one immutable artifact (serve::GraphSnapshot for
/// the raw graph, opt::ServingGraph for a layout): the base-row norms and
/// one entry table per (seed, entry_sample). Each is built at most once,
/// under a lock, and lives as long as the artifact — so a cache can never
/// outlive the rows it describes. The cache is keyed by the parameters only,
/// never by an address; a copy of the artifact starts with an empty cache.
///
/// Callers do not fill it directly: the search entry points read it, and
/// core::warm_search_cache builds it ahead of the first query.
class SearchCache {
 public:
  SearchCache() = default;
  SearchCache(const SearchCache&) {}
  SearchCache& operator=(const SearchCache&) {
    std::lock_guard<std::mutex> lock(mutex_);
    tables_.clear();
    norms_.clear();
    norms_built_ = false;
    return *this;
  }

  /// The table for (seed, entry_sample) over `rows`, built on first use.
  /// Throws wknng::Error if `rows` is not the shape the table was built for.
  const EntryTable& entry_table(const FloatMatrix& rows, std::uint64_t seed,
                                std::size_t entry_sample,
                                std::span<const std::uint32_t> old_to_new = {});

  /// Squared norms of `rows`, built on first use; empty ("no cache" to the
  /// distance kernels) in strict mode.
  std::span<const float> norms(const FloatMatrix& rows);

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<const EntryTable>> tables_;
  std::vector<float> norms_;
  bool norms_built_ = false;
};

}  // namespace wknng::core
