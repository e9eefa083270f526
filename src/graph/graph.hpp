// The Graph type: dual CSR/CSC adjacency, which is what the frontier-based
// framework traverses (push uses out-edges, pull uses in-edges). The edge
// set is stored once per direction and nowhere else: coo() is a view of
// the out-CSR in (src, dst) order, and the GraphGrind path builds its
// partitioned COO from the rows (framework/coo_iter.hpp). Rows are sorted
// ascending in both CSRs whichever builder made the graph, so two builds
// of one graph are array-for-array equal.
#pragma once

#include <span>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/edge_view.hpp"
#include "graph/types.hpp"

namespace vebo {

class Graph {
 public:
  Graph() = default;

  /// Builds CSR (out) and CSC (in) from an edge list without a comparison
  /// sort: a stable counting scatter by destination, whose unsorted in-rows
  /// are released with the input, then two counting-sort transposes
  /// (graph/relabel.hpp) give the sorted out-CSR and in-CSC. Multi-edges
  /// and self-loops are kept. This is the cold-load path; relabelled
  /// graphs come from permute() and DeltaGraph::snapshot(perm).
  static Graph from_edges(EdgeList el);

  /// Builds a Graph from an out-CSR and the matching in-CSC without
  /// re-sorting. This is the hook of every builder (from_edges, permute,
  /// DeltaGraph snapshots). Checks cheap structural consistency (vertex and
  /// edge counts); row-content agreement between the two CSRs is the
  /// caller's contract.
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
  /// The edges in (src, dst) order, read from the out-CSR (no copy).
  EdgeView coo() const { return {out_, directed_}; }

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
  Csr out_;  // rows = sources
  Csr in_;   // rows = destinations (CSC)
};

}  // namespace vebo
