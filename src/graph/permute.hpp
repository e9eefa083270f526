// Applying vertex permutations (reorderings) to graphs, and checking that
// a reordered graph is isomorphic to the original. Every ordering algorithm
// in src/order produces a permutation consumed by these functions.
//
// permute(Graph) is the relabel every ordering pays before it goes live.
// It never sorts: each CSR is a parallel counting-sort transpose of the
// other direction walked in new id order (graph/relabel.hpp). Its arrays
// equal those of Graph::from_edges(permute(g.coo().to_edge_list(), perm))
// at any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace vebo {

/// A vertex permutation: new_id = perm[old_id].
using Permutation = std::vector<VertexId>;

/// True iff `perm` is a bijection on 0..n-1.
bool is_permutation(std::span<const VertexId> perm);

/// True iff perm[v] == v for all v (no-op reordering).
bool is_identity(std::span<const VertexId> perm);

/// Inverse permutation: inv[perm[v]] = v. Throws vebo::Error unless
/// `perm` is a bijection on 0..n-1.
Permutation invert(std::span<const VertexId> perm);

/// Composition: result[v] = outer[inner[v]] (apply inner first).
Permutation compose(std::span<const VertexId> outer,
                    std::span<const VertexId> inner);

/// Identity permutation of size n.
Permutation identity_permutation(VertexId n);

/// Relabels every edge endpoint: (u,v) -> (perm[u], perm[v]). Throws
/// vebo::Error unless `perm` is a bijection on 0..n-1.
EdgeList permute(const EdgeList& el, std::span<const VertexId> perm);

/// Relabels the graph (CSR + CSC) in O(n + m) without sorting.
/// Throws vebo::Error unless `perm` is a bijection on 0..n-1.
Graph permute(const Graph& g, std::span<const VertexId> perm);

/// Order-independent structural fingerprint of a graph: a hash over the
/// multiset of canonicalized edges under the identity labelling. Two
/// *equal-labelled* graphs hash equal.
std::uint64_t structural_hash(const Graph& g);

/// Checks that `h` equals `g` relabelled by `perm` (exact isomorphism
/// witness check, not graph-isomorphism search).
bool is_isomorphic_under(const Graph& g, const Graph& h,
                         std::span<const VertexId> perm);

}  // namespace vebo
