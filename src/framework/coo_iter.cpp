#include "framework/coo_iter.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "order/hilbert.hpp"
#include "parallel/counting_scatter.hpp"
#include "parallel/parallel_for.hpp"
#include "support/error.hpp"

namespace vebo {

std::string to_string(EdgeOrder o) {
  switch (o) {
    case EdgeOrder::Csr: return "CSR";
    case EdgeOrder::Csc: return "CSC";
    case EdgeOrder::Hilbert: return "Hilbert";
  }
  return "?";
}

PartitionedCoo build_partitioned_coo(const Graph& g,
                                     const order::Partitioning& part,
                                     EdgeOrder order) {
  const std::size_t P = part.num_partitions();
  VEBO_CHECK(P >= 1, "partitioned COO requires at least one partition");
  const VertexId n = g.num_vertices();
  VEBO_CHECK(part.begin(0) == 0 && part.end(P - 1) == n,
             "partitioned COO: partitioning does not cover the vertices");
  PartitionedCoo out;

  if (order == EdgeOrder::Csc) {
    // Partitions are contiguous destination ranges, so (dst, src) order
    // within each one is the in-CSC read row by row.
    const auto in_off = g.in_csr().offsets();
    out.edges.resize(g.num_edges());
    parallel_for(0, n, [&](std::size_t v) {
      EdgeId e = in_off[v];
      for (VertexId u : g.in_neighbors(static_cast<VertexId>(v)))
        out.edges[e++] = {u, static_cast<VertexId>(v)};
    });
    for (VertexId b : part.boundaries) out.offsets.push_back(in_off[b]);
    return out;
  }

  // Stable scatter of the out-CSR rows, walked in (src, dst) order, by
  // destination partition: every partition comes out in CSR order without
  // a sort. Blocks are row ranges balanced by edges.
  std::vector<VertexId> owner(n);
  for (VertexId p = 0; p < P; ++p)
    std::fill(owner.begin() + part.begin(p), owner.begin() + part.end(p), p);
  const auto out_off = g.out_csr().offsets();
  const EdgeId m = g.num_edges();
  const std::size_t B = scatter_block_count(m, P);
  std::vector<std::size_t> blocks(B + 1, n);
  for (std::size_t b = 0; b < B; ++b)
    blocks[b] = static_cast<std::size_t>(
        std::lower_bound(out_off.begin(), out_off.end() - 1, b * m / B) -
        out_off.begin());
  const std::vector<std::uint64_t> offsets = counting_scatter<Edge>(
      P, blocks,
      [&](std::size_t lo, std::size_t hi, auto&& emit) {
        for (std::size_t v = lo; v < hi; ++v) {
          const auto u = static_cast<VertexId>(v);
          for (VertexId w : g.out_neighbors(u)) emit(owner[w], Edge{u, w});
        }
      },
      out.edges);
  out.offsets.assign(offsets.begin(), offsets.end());

  if (order == EdgeOrder::Hilbert) {
    // Sort each partition by (curve index, edge), each index computed once.
    const int k = order::hilbert_order_for(n);
    ForOptions per_partition;
    per_partition.grain = 1;
    per_partition.serial_cutoff = 1;
    parallel_for(
        0, P,
        [&](std::size_t p) {
          Edge* es = out.edges.data() + out.offsets[p];
          std::vector<std::pair<std::uint64_t, Edge>> keyed(
              out.offsets[p + 1] - out.offsets[p]);
          for (std::size_t i = 0; i < keyed.size(); ++i)
            keyed[i] = {order::hilbert_index(es[i].src, es[i].dst, k), es[i]};
          std::sort(keyed.begin(), keyed.end());
          for (std::size_t i = 0; i < keyed.size(); ++i)
            es[i] = keyed[i].second;
        },
        per_partition);
  }
  return out;
}

}  // namespace vebo
