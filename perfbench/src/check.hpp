// Output checking. Every answer the benchmark times is compared against
// algo::ref run on the graph the answer was computed on (the executing
// graph), with the source vertex expressed in that graph's ids.
//
//  * BFS levels, CC labels and Bellman-Ford distances match exactly
//    (edge weights are small integers, so path sums are exact).
//  * PR, SPMV and BC match within a relative tolerance.
//  * PRD and BP have no reference; callers check that their checksum is
//    identical on every pass and agrees across models on one graph.
#pragma once

#include <string>
#include <vector>

#include "algorithms/query.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// Reference answers for one executing graph and one source.
struct Reference {
  std::vector<vebo::VertexId> bfs, cc;
  std::vector<double> pr, bf, bc, spmv;
};

Reference make_reference(const vebo::Graph& g, vebo::VertexId source);

/// True for the algorithms make_reference covers.
bool has_reference(const std::string& code);

/// The reference as a payload in the executing graph's ids (the shape the
/// algorithm's spec returns); only for has_reference() codes.
vebo::algo::QueryPayload reference_payload(const std::string& code,
                                           const Reference& ref);

/// How closely two answers must agree. Scratch: both come from a full
/// run of the same algorithm (only summation order may differ). Refresh:
/// either may come from a warm-started refresh hook; PR/PRD then agree at
/// the refresh contract's convergence tolerance, 1e-5 * (|want| + 1/n) per
/// vertex (the bound tests/test_incremental.cpp pins), and every other
/// algorithm as under Scratch.
enum class Tolerance { Scratch, Refresh };

/// Compares two payloads of algorithm `code` on a graph of `n` vertices.
/// Returns "" when they agree, otherwise a one-line reason.
std::string compare_payloads(const std::string& code,
                             const vebo::algo::QueryPayload& got,
                             const vebo::algo::QueryPayload& want,
                             vebo::VertexId n,
                             Tolerance tol = Tolerance::Scratch);

/// Agreement of two checksum folds of `code` (a sum over vertices for
/// PR/PRD, so the per-vertex Refresh bound sums to 1e-5 * (|b| + 1)).
bool checksums_agree(const std::string& code, double a, double b,
                     Tolerance tol = Tolerance::Scratch);

/// A copy of `p` with one entry changed (the --corrupt self-test).
vebo::algo::QueryPayload perturbed(const vebo::algo::QueryPayload& p);

}  // namespace perfbench
