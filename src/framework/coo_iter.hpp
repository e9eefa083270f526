// Partitioned COO traversal: the GraphGrind dense-frontier path.
//
// Edges are grouped by the partition owning their *destination* (data-race
// freedom: only the owning partition writes a destination), and within a
// partition ordered by CSR (source-major), CSC (destination-major) or the
// Hilbert space-filling curve — the axis studied in Section V-G / Fig. 6.
// As in GraphGrind, this COO exists only per engine, built from the
// graph's CSR/CSC rows; a Graph itself stores no COO.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "order/partition.hpp"

namespace vebo {

enum class EdgeOrder { Csr, Csc, Hilbert };

std::string to_string(EdgeOrder o);

struct PartitionedCoo {
  std::vector<Edge> edges;            ///< grouped by destination partition
  std::vector<std::size_t> offsets;   ///< P+1 group boundaries

  std::size_t num_partitions() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const Edge> partition(std::size_t p) const {
    return {edges.data() + offsets[p], edges.data() + offsets[p + 1]};
  }
};

/// Builds the partitioned COO for a graph under a destination partitioning
/// that covers [0, n). CSR order is a stable parallel scatter of the
/// out-CSR rows (no sort); CSC order reads the in-CSC rows (no sort);
/// Hilbert order scatters, then sorts each partition, in parallel over
/// partitions. The result is identical at any thread count.
PartitionedCoo build_partitioned_coo(const Graph& g,
                                     const order::Partitioning& part,
                                     EdgeOrder order);

}  // namespace vebo
