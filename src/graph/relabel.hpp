// The one graph build: a comparison-free, parallel counting-sort transpose,
// shared by permute(Graph), DeltaGraph::snapshot(perm) and, under the
// identity, the cold loads (Graph::from_edges, io's CSR readers).
//
// The new out-CSR is the transpose of the old in-rows walked in ascending
// *new* destination id: destination d' = perm[d] scatters itself into row
// perm[s] of every in-neighbor s, so each row receives its values in
// ascending order and comes out sorted without a comparison. The new
// in-CSC is built the same way from the old out-rows. See
// parallel/counting_scatter.hpp for the block/cursor scheme that keeps the
// result identical at any thread count.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "parallel/counting_scatter.hpp"

namespace vebo {

namespace detail {

/// The identity as a permutation of n ids: a transpose without relabelling.
struct IdentityMap {
  std::size_t n;
  std::size_t size() const { return n; }
  VertexId operator[](std::size_t v) const { return static_cast<VertexId>(v); }
};

/// Row t of the result holds, ascending, every new id i whose old source
/// row (old id inv[i]) contains a vertex w with perm[w] == t.
/// `degree(v)` is the length of old row v; `for_each(v, fn)` calls fn(w)
/// for each entry w of old row v. `perm` and `inv` are spans or
/// IdentityMaps.
template <typename Map, typename Degree, typename ForEach>
Csr transpose_relabelled(const Map& perm, const Map& inv, Degree&& degree,
                         ForEach&& for_each) {
  const std::size_t n = perm.size();
  // Source row lengths in walk (new id) order: balances blocks by edges.
  std::vector<EdgeId> prefix(n);
  parallel_for(0, n, [&](std::size_t i) { prefix[i] = degree(inv[i]); });
  const EdgeId m = exclusive_scan(prefix.data(), prefix.data(), n);
  const std::size_t B = scatter_block_count(m, n);
  std::vector<std::size_t> blocks(B + 1, n);
  for (std::size_t b = 0; b < B; ++b)
    blocks[b] = static_cast<std::size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), b * m / B) -
        prefix.begin());

  std::vector<VertexId> neighbors;
  std::vector<EdgeId> offsets = counting_scatter<VertexId>(
      n, blocks,
      [&](std::size_t lo, std::size_t hi, auto&& emit) {
        for (std::size_t i = lo; i < hi; ++i)
          for_each(inv[i], [&](VertexId w) {
            emit(perm[w], static_cast<VertexId>(i));
          });
      },
      neighbors);
  return Csr(std::move(offsets), std::move(neighbors));
}

}  // namespace detail

/// The transpose of `rows` (row t lists, ascending, every row holding t);
/// entries within a row of the input may come in any order.
inline Csr transpose(const Csr& rows) {
  const detail::IdentityMap id{rows.num_vertices()};
  return detail::transpose_relabelled(
      id, id, [&](VertexId v) { return rows.degree(v); },
      [&](VertexId v, auto&& fn) {
        for (VertexId w : rows.neighbors(v)) fn(w);
      });
}

/// Builds the graph relabelled by `perm` (new = perm[old]; `inv` is its
/// inverse) from its rows under old ids: out_degree/in_degree(v) and
/// for_each_out/for_each_in(v, fn). Row entries may come in any order.
template <typename OutDegree, typename InDegree, typename ForEachOut,
          typename ForEachIn>
Graph relabel(std::span<const VertexId> perm, std::span<const VertexId> inv,
              bool directed, OutDegree&& out_degree, InDegree&& in_degree,
              ForEachOut&& for_each_out, ForEachIn&& for_each_in) {
  Csr out = detail::transpose_relabelled(perm, inv, in_degree, for_each_in);
  Csr in = detail::transpose_relabelled(perm, inv, out_degree, for_each_out);
  return Graph::from_parts(std::move(out), std::move(in), directed);
}

}  // namespace vebo
