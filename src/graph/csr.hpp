// Compressed Sparse Row adjacency structure.
//
// A Csr groups edges by one endpoint: grouped by source it is the classic
// CSR (out-edges), grouped by destination it is the CSC (in-edges) that
// the paper's destination-partitioning operates on. Graphs build theirs by
// counting-sort transposes (graph/relabel.hpp), never by sorting rows.
#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"

namespace vebo {

class Csr {
 public:
  Csr() = default;

  /// Builds directly from rows: offsets has n+1 entries, neighbors has
  /// offsets[n] entries.
  Csr(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors);

  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  EdgeId num_edges() const { return offsets_.empty() ? 0 : offsets_.back(); }

  EdgeId degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  std::span<const EdgeId> offsets() const { return offsets_; }
  std::span<const VertexId> neighbor_array() const { return neighbors_; }

  /// Structural validity: offsets monotone, endpoints in range, rows sorted.
  bool valid() const;

  friend bool operator==(const Csr&, const Csr&) = default;

 private:
  std::vector<EdgeId> offsets_;      // n+1
  std::vector<VertexId> neighbors_;  // m
};

}  // namespace vebo
