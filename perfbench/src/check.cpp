#include "check.hpp"

#include <cmath>
#include <sstream>

#include "algorithms/reference.hpp"

namespace perfbench {

using vebo::VertexId;
using vebo::algo::PayloadKind;
using vebo::algo::QueryPayload;

namespace {

// PR and SPMV fold the same terms in a different order than the serial
// reference; BC additionally divides large path counts.
constexpr double kTightTolerance = 1e-9;
constexpr double kBcTolerance = 1e-6;
constexpr double kRefreshTolerance = 1e-5;

bool refreshable_rank(const std::string& code, Tolerance tol) {
  return tol == Tolerance::Refresh && (code == "PR" || code == "PRD");
}

}  // namespace

Reference make_reference(const vebo::Graph& g, VertexId source) {
  namespace ref = vebo::algo::ref;
  Reference r;
  r.bfs = ref::bfs_levels(g, source);
  r.cc = ref::wcc_labels(g);
  r.pr = ref::pagerank(g, 10);
  r.bf = ref::dijkstra(g, source);
  r.bc = ref::brandes_dependency(g, source);
  const VertexId n = g.num_vertices();
  r.spmv = ref::spmv(g, std::vector<double>(n, 1.0 / static_cast<double>(n)));
  return r;
}

bool has_reference(const std::string& code) {
  return code == "BFS" || code == "CC" || code == "PR" || code == "BF" ||
         code == "BC" || code == "SPMV";
}

QueryPayload reference_payload(const std::string& code, const Reference& ref) {
  if (code == "BFS") return QueryPayload::vertex_ids(ref.bfs);
  if (code == "CC") return QueryPayload::vertex_ids(ref.cc, true);
  if (code == "PR") return QueryPayload::vertex_doubles(ref.pr);
  if (code == "BF") return QueryPayload::vertex_doubles(ref.bf);
  if (code == "BC") return QueryPayload::vertex_doubles(ref.bc);
  return QueryPayload::vertex_doubles(ref.spmv);
}

std::string compare_payloads(const std::string& code, const QueryPayload& got,
                             const QueryPayload& want, VertexId n,
                             Tolerance tolerance) {
  std::ostringstream why;
  if (got.kind() != want.kind()) {
    why << code << ": payload kind " << int(got.kind()) << " != "
        << int(want.kind());
    return why.str();
  }
  if (want.kind() == PayloadKind::VertexIds) {
    const auto& a = got.ids();
    const auto& b = want.ids();
    if (a.size() != b.size()) {
      why << code << ": size " << a.size() << " != " << b.size();
      return why.str();
    }
    for (std::size_t v = 0; v < a.size(); ++v)
      if (a[v] != b[v]) {
        why << code << ": v=" << v << " got " << a[v] << " want " << b[v];
        return why.str();
      }
    return "";
  }
  if (want.kind() != PayloadKind::VertexDoubles) {
    why << code << ": unexpected payload kind";
    return why.str();
  }
  const auto& a = got.doubles();
  const auto& b = want.doubles();
  if (a.size() != b.size()) {
    why << code << ": size " << a.size() << " != " << b.size();
    return why.str();
  }
  const bool exact = code == "BF";
  const double inv_n = 1.0 / static_cast<double>(n);
  const bool refreshed = refreshable_rank(code, tolerance);
  const double tol = refreshed       ? kRefreshTolerance
                     : code == "BC" ? kBcTolerance
                                    : kTightTolerance;
  // Per-vertex values of PR/PRD/SPMV are O(1/n); BC dependencies are
  // counts. The floor keeps near-zero entries from demanding exactness.
  const double floor = code == "BC" ? 1.0 : inv_n;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const double err = std::abs(a[v] - b[v]);
    const bool ok = exact       ? a[v] == b[v]
                    : refreshed ? err <= tol * (std::abs(b[v]) + inv_n)
                                : err <= tol * std::max(std::abs(b[v]), floor);
    if (!ok) {
      why.precision(17);
      why << code << ": v=" << v << " got " << a[v] << " want " << b[v];
      return why.str();
    }
  }
  return "";
}

bool checksums_agree(const std::string& code, double a, double b,
                     Tolerance tol) {
  if (refreshable_rank(code, tol))
    return std::abs(a - b) <= kRefreshTolerance * (std::abs(b) + 1.0);
  return std::abs(a - b) <=
         kTightTolerance * std::max({std::abs(a), std::abs(b), 1e-300});
}

QueryPayload perturbed(const QueryPayload& p) {
  switch (p.kind()) {
    case PayloadKind::VertexDoubles: {
      auto v = p.doubles();
      if (!v.empty()) v[v.size() / 2] = v[v.size() / 2] * 1.5 + 1.0;
      QueryPayload out = QueryPayload::vertex_doubles(std::move(v));
      out.aux = p.aux;
      return out;
    }
    case PayloadKind::VertexIds: {
      auto v = p.ids();
      if (!v.empty()) v[v.size() / 2] ^= 1;
      QueryPayload out =
          QueryPayload::vertex_ids(std::move(v), p.values_are_vertex_ids());
      out.aux = p.aux;
      return out;
    }
    default: {
      QueryPayload out = QueryPayload::scalar(p.scalar_value() + 1.0);
      return out;
    }
  }
}

}  // namespace perfbench
