// Parallel stable counting sort (pbbslib's bucket scatter): route items
// into buckets, keeping within each bucket the order in which the items
// were walked. The graph builders use it to relabel without a comparison
// sort: walking source rows in ascending new id and scattering every edge
// into its target row yields rows that are already sorted.
//
// The walk is split into B contiguous blocks. Each block counts its items
// per bucket into its own slab of a B x buckets count matrix; a per-bucket
// scan over the blocks, then a scan over the buckets, turns every count
// into that block's write cursor inside the bucket, after all earlier
// blocks. The output is therefore identical at any thread count and any B.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace vebo {

/// Block count for scattering `items` items into `buckets` buckets: one
/// block per worker, capped so that the count matrix (B x buckets cells)
/// stays within max(items, buckets) cells.
inline std::size_t scatter_block_count(std::size_t items,
                                       std::size_t buckets) {
  const std::size_t threads = ThreadPool::global().num_threads();
  const std::size_t cap =
      buckets == 0 ? 1 : std::max(items, buckets) / buckets;
  return std::max<std::size_t>(1, std::min(threads, cap));
}

/// Stable counting scatter. `blocks` holds B+1 ascending boundaries over
/// the walk's units; `walk(lo, hi, emit)` must call emit(bucket, value)
/// for every item of units [lo, hi), in walk order, and the same items on
/// every call (it is called twice per block: count, then scatter). Fills
/// `out` with the values grouped by bucket, each bucket in walk order, and
/// returns the num_buckets+1 bucket offsets.
template <typename T, typename Walk>
std::vector<std::uint64_t> counting_scatter(std::size_t num_buckets,
                                            std::span<const std::size_t> blocks,
                                            Walk&& walk, std::vector<T>& out) {
  const std::size_t nb = num_buckets;
  const std::size_t B = blocks.size() - 1;
  // Block-major slabs: each block counts into and later advances its own
  // contiguous slab, so workers write disjoint memory while walking.
  std::unique_ptr<std::uint64_t[]> cursor(new std::uint64_t[B * nb]);
  ForOptions per_block;
  per_block.grain = 1;
  per_block.serial_cutoff = 1;
  parallel_for(
      0, B,
      [&](std::size_t b) {
        std::uint64_t* c = cursor.get() + b * nb;
        std::fill(c, c + nb, 0);
        walk(blocks[b], blocks[b + 1],
             [c](std::size_t bucket, const T&) { ++c[bucket]; });
      },
      per_block);

  std::vector<std::uint64_t> offsets(nb + 1, 0);
  parallel_for(0, nb, [&](std::size_t t) {
    std::uint64_t run = 0;
    for (std::size_t b = 0; b < B; ++b) {
      const std::uint64_t k = cursor[b * nb + t];
      cursor[b * nb + t] = run;
      run += k;
    }
    offsets[t] = run;
  });
  offsets[nb] = exclusive_scan(offsets.data(), offsets.data(), nb);
  parallel_for(0, nb, [&](std::size_t t) {
    for (std::size_t b = 0; b < B; ++b) cursor[b * nb + t] += offsets[t];
  });

  out.resize(offsets[nb]);
  parallel_for(
      0, B,
      [&](std::size_t b) {
        std::uint64_t* c = cursor.get() + b * nb;
        T* dst = out.data();
        walk(blocks[b], blocks[b + 1],
             [c, dst](std::size_t bucket, const T& v) {
               dst[c[bucket]++] = v;
             });
      },
      per_block);
  return offsets;
}

}  // namespace vebo
