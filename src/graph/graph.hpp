// The Graph type: dual CSR/CSC adjacency plus a COO copy of the out-CSR,
// which is what the frontier-based framework traverses (push uses
// out-edges, pull uses in-edges) and what the GraphGrind COO path iterates.
// Rows are sorted ascending in both CSRs and the COO is sorted by
// (src, dst) whichever builder made the graph, so two builds of one graph
// are array-for-array equal.
#pragma once

#include <span>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace vebo {

class Graph {
 public:
  Graph() = default;

  /// Builds CSR (out) and CSC (in) from an edge list by sorting it. The
  /// edge list is retained (sorted by source) for COO traversal. This is
  /// the cold-load path; relabelled graphs come from permute() and
  /// DeltaGraph::snapshot(perm), which never sort (graph/relabel.hpp).
  static Graph from_edges(EdgeList el);

  /// Builds a Graph from an out-CSR and the matching in-CSC without
  /// re-sorting; the COO is copied out of the out-CSR rows in parallel,
  /// so it is sorted by (src, dst). This is the hook of every non-sorting
  /// builder (permute, DeltaGraph snapshots). Checks cheap structural
  /// consistency (vertex and edge counts); row-content agreement between
  /// the two CSRs is the caller's contract.
  static Graph from_parts(Csr out, Csr in, bool directed);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  bool directed() const { return directed_; }

  EdgeId out_degree(VertexId v) const { return out_.degree(v); }
  EdgeId in_degree(VertexId v) const { return in_.degree(v); }

  /// Out-neighbors of v (push direction).
  std::span<const VertexId> out_neighbors(VertexId v) const {
    return out_.neighbors(v);
  }
  /// In-neighbors of v (pull direction; the paper's "sources of v").
  std::span<const VertexId> in_neighbors(VertexId v) const {
    return in_.neighbors(v);
  }

  const Csr& out_csr() const { return out_; }
  const Csr& in_csr() const { return in_; }
  const EdgeList& coo() const { return coo_; }

  /// Maximum in-degree; N in the paper is max_in_degree()+1.
  EdgeId max_in_degree() const;
  EdgeId max_out_degree() const;

  /// Vertices with zero in-degree / out-degree (paper's Table I columns).
  VertexId count_zero_in_degree() const;
  VertexId count_zero_out_degree() const;

  /// One-line description for logs and benches.
  std::string describe(const std::string& name = "") const;

 private:
  VertexId n_ = 0;
  EdgeId m_ = 0;
  bool directed_ = true;
  Csr out_;       // rows = sources
  Csr in_;        // rows = destinations (CSC)
  EdgeList coo_;  // sorted by source
};

}  // namespace vebo
