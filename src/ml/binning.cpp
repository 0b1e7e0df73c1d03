#include "ml/binning.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace alba {

namespace {

// Columns quantized per pool task, and the square tile side for the
// row-major → column-major transpose each task starts with.
constexpr std::size_t kColBlock = 64;

// Edge finding sorts at most this many values per column; larger columns
// are subsampled first (deterministically, seeded by the column index).
// Quantile cut points from ~4 samples per bin are statistically stable,
// and the full sort would otherwise dominate training on wide matrices —
// the same tradeoff LightGBM makes when capping bin-construction samples.
// The coding pass still visits every value.
constexpr std::size_t kEdgeSampleCap = 1024;

// Ascending upper edges for one column's finite values (sorted, first `n`
// entries of `sorted`). Fewer distinct values than bins: one bin per value,
// interior edges at midpoints (matching the exact splitter's thresholds),
// last edge = max value. More: edges at quantile boundaries, deduplicated
// so every bin is non-empty.
std::vector<double> make_edges(const double* sorted, std::size_t n,
                               std::size_t max_finite_bins) {
  std::vector<double> edges;
  if (n == 0) return edges;

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    distinct += sorted[i] != sorted[i - 1] ? 1 : 0;
  }

  if (distinct <= max_finite_bins) {
    edges.reserve(distinct);
    for (std::size_t i = 1; i < n; ++i) {
      if (sorted[i] != sorted[i - 1]) {
        edges.push_back(0.5 * (sorted[i - 1] + sorted[i]));
      }
    }
    edges.push_back(sorted[n - 1]);
    return edges;
  }

  edges.reserve(max_finite_bins);
  for (std::size_t b = 1; b < max_finite_bins; ++b) {
    const std::size_t pos = b * n / max_finite_bins;
    if (pos == 0 || sorted[pos] == sorted[pos - 1]) continue;
    const double edge = 0.5 * (sorted[pos - 1] + sorted[pos]);
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  edges.push_back(sorted[n - 1]);
  return edges;
}

// Index of the first edge >= v, i.e. std::lower_bound — but branchless,
// which matters when this runs once per matrix entry. The bool→integer
// multiply (rather than a ternary, which compilers turn back into a
// mispredicting branch) is what keeps the search chain branch-free; it
// measures >3× faster than std::lower_bound here. `n` must be >= 1.
std::size_t lower_bound_index(const double* edges, std::size_t n,
                              double v) noexcept {
  const double* base = edges;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    base += half * static_cast<std::size_t>(base[half - 1] < v);
    len -= half;
  }
  return static_cast<std::size_t>(base - edges) +
         static_cast<std::size_t>(*base < v);
}

// Copies columns [f0, f0 + bf) of row-major `x` into column-major
// `scratch` (bf × rows), tile by tile: both column views want sequential
// column reads instead of cache-hostile row-stride jumps.
void transpose_block(const Matrix& x, std::size_t f0, std::size_t bf,
                     std::vector<double>& scratch) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  scratch.resize(bf * rows);
  for (std::size_t r0 = 0; r0 < rows; r0 += kColBlock) {
    const std::size_t r1 = std::min(rows, r0 + kColBlock);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* row = x.data() + i * cols + f0;
      for (std::size_t j = 0; j < bf; ++j) scratch[j * rows + i] = row[j];
    }
  }
}

// Unsigned key ordered like the finite double `v` under `<`; the + 0.0
// folds -0.0 into +0.0, so the two zeros share a key.
std::uint64_t order_key(double v) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(v + 0.0);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// Ranks one column: LSD radix sort of the finite values' order keys (one
// pass per key byte, skipping bytes every key shares, such as the exponent
// of a narrow column), then one rank per distinct key. Buffers persist
// across the columns of a block.
class ColumnRanker {
 public:
  // Writes ranks for col[0..n) and returns the number of distinct finite
  // values.
  std::uint32_t rank(const double* col, std::size_t n, std::uint32_t* ranks) {
    keys_.clear();
    rows_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(col[i])) {
        keys_.push_back(order_key(col[i]));
        rows_.push_back(static_cast<std::uint32_t>(i));
      } else {
        ranks[i] = 0;
      }
    }
    const std::size_t m = keys_.size();
    if (m == 0) return 0;
    keys_tmp_.resize(m);
    rows_tmp_.resize(m);

    std::uint32_t counts[8][256] = {};
    for (const std::uint64_t key : keys_) {
      for (int b = 0; b < 8; ++b) ++counts[b][(key >> (8 * b)) & 0xFF];
    }
    std::uint64_t* keys = keys_.data();
    std::uint32_t* rows = rows_.data();
    std::uint64_t* keys_out = keys_tmp_.data();
    std::uint32_t* rows_out = rows_tmp_.data();
    for (int b = 0; b < 8; ++b) {
      const int shift = 8 * b;
      if (counts[b][(keys[0] >> shift) & 0xFF] == m) continue;  // shared
      std::uint32_t offset[256];
      std::uint32_t total = 0;
      for (int d = 0; d < 256; ++d) {
        offset[d] = total;
        total += counts[b][d];
      }
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t at = offset[(keys[i] >> shift) & 0xFF]++;
        keys_out[at] = keys[i];
        rows_out[at] = rows[i];
      }
      std::swap(keys, keys_out);
      std::swap(rows, rows_out);
    }

    std::uint32_t rank = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) ++rank;
      ranks[rows[i]] = rank;
    }
    return rank;
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint64_t> keys_tmp_;
  std::vector<std::uint32_t> rows_tmp_;
};

}  // namespace

BinnedMatrix::BinnedMatrix(const Matrix& x, int max_bins)
    : rows_(x.rows()), cols_(x.cols()) {
  ALBA_CHECK(max_bins >= 2 && max_bins <= kMaxBins)
      << "max_bins " << max_bins << " outside [2, " << kMaxBins << "]";
  const auto max_finite_bins = static_cast<std::size_t>(max_bins - 1);
  codes_.resize(rows_ * cols_);
  edges_.resize(cols_);

  // Block-parallel over columns: each task owns a contiguous range of
  // features (code spans and edge vectors), so the result is
  // schedule-independent.
  const std::size_t n_blocks = (cols_ + kColBlock - 1) / kColBlock;
  parallel_for(n_blocks, [&](std::size_t blk) {
    const std::size_t f0 = blk * kColBlock;
    const std::size_t bf = std::min(kColBlock, cols_ - f0);

    std::vector<double> scratch;
    transpose_block(x, f0, bf, scratch);

    std::vector<double> finite;
    finite.reserve(rows_);
    for (std::size_t j = 0; j < bf; ++j) {
      const std::size_t f = f0 + j;
      const double* col = scratch.data() + j * rows_;

      finite.clear();
      for (std::size_t i = 0; i < rows_; ++i) {
        if (std::isfinite(col[i])) finite.push_back(col[i]);
      }

      std::size_t nf = finite.size();
      if (nf > kEdgeSampleCap) {
        // Partial Fisher–Yates: move a without-replacement sample into the
        // buffer's head. The per-column seed keeps the sample (and so the
        // whole binned view) identical for every pool size.
        Rng rng(0x9E3779B97F4A7C15ULL ^ f);
        for (std::size_t i = 0; i < kEdgeSampleCap; ++i) {
          std::swap(finite[i], finite[i + rng.uniform_index(nf - i)]);
        }
        nf = kEdgeSampleCap;
      }
      std::sort(finite.begin(),
                finite.begin() + static_cast<std::ptrdiff_t>(nf));
      edges_[f] = make_edges(finite.data(), nf, max_finite_bins);

      const std::vector<double>& edges = edges_[f];
      const std::size_t m = edges.size();
      std::uint8_t* codes = codes_.data() + f * rows_;
      for (std::size_t i = 0; i < rows_; ++i) {
        const double v = col[i];
        if (!std::isfinite(v)) {
          codes[i] = 0;
          continue;
        }
        // Values above every sampled edge clamp into the last bin; that
        // bin is never a left-side cut, so training and raw-value
        // prediction still route them the same way.
        const std::size_t idx =
            std::min(lower_bound_index(edges.data(), m, v), m - 1);
        codes[i] = static_cast<std::uint8_t>(1 + idx);
      }
    }
  });
}

RankMatrix::RankMatrix(const Matrix& x)
    : rows_(x.rows()), cols_(x.cols()) {
  ALBA_CHECK(rows_ < std::numeric_limits<std::uint32_t>::max())
      << rows_ << " rows overflow 32-bit ranks";
  ranks_.resize(rows_ * cols_);
  num_ranks_.resize(cols_);

  // Block-parallel over columns, as in BinnedMatrix: each task owns its
  // columns' spans, so the result is schedule-independent.
  const std::size_t n_blocks = (cols_ + kColBlock - 1) / kColBlock;
  parallel_for(n_blocks, [&](std::size_t blk) {
    const std::size_t f0 = blk * kColBlock;
    const std::size_t bf = std::min(kColBlock, cols_ - f0);
    std::vector<double> scratch;
    transpose_block(x, f0, bf, scratch);

    ColumnRanker ranker;
    for (std::size_t j = 0; j < bf; ++j) {
      const std::size_t f = f0 + j;
      const double* col = scratch.data() + j * rows_;
      num_ranks_[f] = ranker.rank(col, rows_, ranks_.data() + f * rows_) + 1;
    }
  });
}

}  // namespace alba
