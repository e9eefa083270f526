#include "graph/graph.hpp"

#include <sstream>

#include "graph/relabel.hpp"
#include "parallel/counting_scatter.hpp"
#include "support/error.hpp"

namespace vebo {

Graph Graph::from_edges(EdgeList el) {
  const VertexId n = el.num_vertices();
  const bool directed = el.directed();
  // In-rows holding each destination's sources in input order.
  std::vector<VertexId> sources;
  std::vector<EdgeId> offsets;
  {
    const auto edges = el.edges();
    const std::size_t m = edges.size();
    const std::size_t B = scatter_block_count(m, n);
    std::vector<std::size_t> blocks(B + 1);
    for (std::size_t b = 0; b <= B; ++b) blocks[b] = b * m / B;
    offsets = counting_scatter<VertexId>(
        n, blocks,
        [&](std::size_t lo, std::size_t hi, auto&& emit) {
          for (std::size_t i = lo; i < hi; ++i)
            emit(edges[i].dst, edges[i].src);
        },
        sources);
  }
  el = EdgeList();  // the input is not needed past the first scatter
  // Each transpose walks its input rows in ascending id, so its rows come
  // out sorted whatever order the input rows were in.
  Csr out = transpose(Csr(std::move(offsets), std::move(sources)));
  Csr in = transpose(out);
  return from_parts(std::move(out), std::move(in), directed);
}

Graph Graph::from_parts(Csr out, Csr in, bool directed) {
  VEBO_CHECK(out.num_vertices() == in.num_vertices(),
             "from_parts: CSR/CSC vertex counts disagree");
  VEBO_CHECK(out.num_edges() == in.num_edges(),
             "from_parts: CSR/CSC edge counts disagree");
  Graph g;
  g.n_ = out.num_vertices();
  g.m_ = out.num_edges();
  g.directed_ = directed;
  g.out_ = std::move(out);
  g.in_ = std::move(in);
  return g;
}

EdgeId Graph::max_in_degree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < n_; ++v) best = std::max(best, in_degree(v));
  return best;
}

EdgeId Graph::max_out_degree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < n_; ++v) best = std::max(best, out_degree(v));
  return best;
}

VertexId Graph::count_zero_in_degree() const {
  VertexId c = 0;
  for (VertexId v = 0; v < n_; ++v)
    if (in_degree(v) == 0) ++c;
  return c;
}

VertexId Graph::count_zero_out_degree() const {
  VertexId c = 0;
  for (VertexId v = 0; v < n_; ++v)
    if (out_degree(v) == 0) ++c;
  return c;
}

std::string Graph::describe(const std::string& name) const {
  std::ostringstream os;
  if (!name.empty()) os << name << ": ";
  os << "|V|=" << n_ << " |E|=" << m_
     << (directed_ ? " directed" : " undirected")
     << " max_in_deg=" << max_in_degree();
  return os.str();
}

}  // namespace vebo
