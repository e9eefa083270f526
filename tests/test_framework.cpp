// Tests for the Ligra-style framework: VertexSubset, edgemap (push/pull
// equivalence, direction heuristic), vertexmap, Engine system models and
// the partitioned COO.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "framework/edgemap.hpp"
#include "framework/engine.hpp"
#include "framework/vertex_subset.hpp"
#include "gen/rmat.hpp"
#include "gen/synthetic.hpp"
#include "graph/permute.hpp"
#include "order/hilbert.hpp"
#include "order/partition.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"

namespace vebo {
namespace {

// --------------------------------------------------------- VertexSubset

TEST(VertexSubset, EmptyAndSingle) {
  auto e = VertexSubset::empty(10);
  EXPECT_TRUE(e.empty_set());
  EXPECT_EQ(e.size(), 0u);
  auto s = VertexSubset::single(10, 3);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
}

TEST(VertexSubset, AllIsDense) {
  auto a = VertexSubset::all(100);
  EXPECT_TRUE(a.is_dense());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(a.contains(99));
}

TEST(VertexSubset, FromSparseSortsAndDedupes) {
  auto s = VertexSubset::from_sparse(10, {5, 1, 5, 3});
  EXPECT_EQ(s.size(), 3u);
  auto v = s.vertices();
  EXPECT_EQ(std::vector<VertexId>(v.begin(), v.end()),
            (std::vector<VertexId>{1, 3, 5}));
}

TEST(VertexSubset, ConversionsPreserveMembership) {
  auto s = VertexSubset::from_sparse(128, {0, 64, 127});
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(64));
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(127));
}

TEST(VertexSubset, ForEachVisitsAscending) {
  auto s = VertexSubset::from_sparse(50, {40, 10, 20});
  std::vector<VertexId> seen;
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{10, 20, 40}));
  s.to_dense();
  seen.clear();
  s.for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{10, 20, 40}));
}

TEST(VertexSubset, OutOfRangeRejected) {
  EXPECT_THROW(VertexSubset::single(5, 5), Error);
  EXPECT_THROW(VertexSubset::from_sparse(5, {7}), Error);
}

// --------------------------------------------------------------- Engine

TEST(Engine, ModelDefaults) {
  const Graph g = gen::rmat(10, 4, 1);
  Engine ligra(g, SystemModel::Ligra);
  EXPECT_FALSE(ligra.partitioned());
  Engine polymer(g, SystemModel::Polymer);
  EXPECT_EQ(polymer.num_partitions(), 4u);
  Engine gg(g, SystemModel::GraphGrind);
  EXPECT_EQ(gg.num_partitions(), 384u);
}

TEST(Engine, SchedulesPerModel) {
  const Graph g = gen::rmat(8, 4, 1);
  EXPECT_EQ(Engine(g, SystemModel::Ligra).vertex_loop().schedule,
            Schedule::Dynamic);
  EXPECT_EQ(Engine(g, SystemModel::Polymer).vertex_loop().schedule,
            Schedule::Static);
  EXPECT_EQ(Engine(g, SystemModel::GraphGrind).partition_loop().schedule,
            Schedule::Static);
}

TEST(Engine, PartitionsCappedAtVertexCount) {
  const Graph g = gen::figure3_example();  // 6 vertices
  Engine gg(g, SystemModel::GraphGrind);   // asks for 384
  EXPECT_LE(gg.num_partitions(), 6u);
}

TEST(Engine, ToStringNames) {
  EXPECT_EQ(to_string(SystemModel::Ligra), "Ligra");
  EXPECT_EQ(to_string(SystemModel::Polymer), "Polymer");
  EXPECT_EQ(to_string(SystemModel::GraphGrind), "GraphGrind");
  EXPECT_EQ(to_string(EdgeOrder::Hilbert), "Hilbert");
}

TEST(Engine, ExplicitPartitioningOverridesCounts) {
  const Graph g = gen::rmat(9, 4, 3);
  const auto r = order::vebo(g, 12);
  const Graph h = permute(g, r.perm);
  EngineOptions opts;
  opts.partitions = 99;  // must be ignored
  opts.explicit_partitioning = &r.partitioning;
  Engine eng(h, SystemModel::Polymer, opts);
  EXPECT_EQ(eng.num_partitions(), 12u);
  for (VertexId p = 0; p < 12; ++p)
    EXPECT_EQ(eng.partitioning().vertices_in(p), r.part_vertices[p]);
}

TEST(Engine, ExplicitPartitioningMustCoverVertexSet) {
  const Graph g = gen::rmat(9, 4, 3);  // 512 vertices
  order::Partitioning bad = order::partition_from_counts({100, 100});
  EngineOptions opts;
  opts.explicit_partitioning = &bad;
  EXPECT_THROW(Engine(g, SystemModel::Polymer, opts), Error);
}

TEST(Engine, ExplicitPartitioningIsCopied) {
  const Graph g = gen::rmat(8, 4, 5);
  Engine eng = [&] {
    const auto r = order::vebo(g, 8);  // dies at scope exit
    EngineOptions opts;
    opts.explicit_partitioning = &r.partitioning;
    return Engine(g, SystemModel::GraphGrind, opts);
  }();
  // The engine must have copied the partitioning: using it after the
  // source object is gone is safe.
  EXPECT_EQ(eng.num_partitions(), 8u);
  EXPECT_EQ(eng.partitioning().boundaries.back(), g.num_vertices());
}

// ------------------------------------------------------- PartitionedCoo

TEST(PartitionedCoo, GroupsByDestinationPartition) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto part = order::partition_by_destination(g, 8);
  const auto coo = build_partitioned_coo(g, part, EdgeOrder::Csr);
  EXPECT_EQ(coo.num_partitions(), 8u);
  EXPECT_EQ(coo.edges.size(), g.num_edges());
  for (std::size_t p = 0; p < 8; ++p)
    for (const Edge& e : coo.partition(p))
      ASSERT_EQ(part.owner(e.dst), p);
}

TEST(PartitionedCoo, CsrOrderWithinPartition) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto part = order::partition_by_destination(g, 4);
  const auto coo = build_partitioned_coo(g, part, EdgeOrder::Csr);
  for (std::size_t p = 0; p < 4; ++p) {
    auto es = coo.partition(p);
    for (std::size_t i = 1; i < es.size(); ++i)
      ASSERT_LE(es[i - 1], es[i]);
  }
}

TEST(PartitionedCoo, HilbertOrderWithinPartition) {
  const Graph g = gen::rmat(9, 6, 2);
  const auto part = order::partition_by_destination(g, 4);
  const auto coo = build_partitioned_coo(g, part, EdgeOrder::Hilbert);
  const int k = order::hilbert_order_for(g.num_vertices());
  for (std::size_t p = 0; p < 4; ++p) {
    auto es = coo.partition(p);
    for (std::size_t i = 1; i < es.size(); ++i)
      ASSERT_LE(order::hilbert_index(es[i - 1].src, es[i - 1].dst, k),
                order::hilbert_index(es[i].src, es[i].dst, k));
  }
}

// The serial build the parallel one replaced: bucket every COO edge by a
// binary-searched owner, then sort each partition in the requested order.
PartitionedCoo reference_partitioned_coo(const Graph& g,
                                         const order::Partitioning& part,
                                         EdgeOrder order) {
  const std::size_t P = part.num_partitions();
  std::vector<std::vector<Edge>> buckets(P);
  for (const Edge& e : g.coo().edges()) buckets[part.owner(e.dst)].push_back(e);
  const int k = order::hilbert_order_for(g.num_vertices());
  PartitionedCoo out;
  out.offsets.push_back(0);
  for (auto& b : buckets) {
    switch (order) {
      case EdgeOrder::Csr:
        std::sort(b.begin(), b.end());
        break;
      case EdgeOrder::Csc:
        std::sort(b.begin(), b.end(), [](const Edge& x, const Edge& y) {
          return std::pair(x.dst, x.src) < std::pair(y.dst, y.src);
        });
        break;
      case EdgeOrder::Hilbert:
        std::sort(b.begin(), b.end(), [k](const Edge& x, const Edge& y) {
          const auto hx = order::hilbert_index(x.src, x.dst, k);
          const auto hy = order::hilbert_index(y.src, y.dst, k);
          return hx != hy ? hx < hy : x < y;
        });
        break;
    }
    out.edges.insert(out.edges.end(), b.begin(), b.end());
    out.offsets.push_back(out.edges.size());
  }
  return out;
}

TEST(PartitionedCoo, MatchesSerialReferenceInEveryOrder) {
  const Graph base = gen::rmat(12, 8, 5);
  const Graph g = permute(base, order::vebo(base, 8).perm);
  const VertexId n = g.num_vertices();
  std::vector<std::pair<std::string, order::Partitioning>> parts;
  for (VertexId P : {1u, 4u, 384u})
    parts.push_back({"P=" + std::to_string(P),
                     order::partition_by_destination(g, P)});
  // Empty partitions at the front, in the middle and at the back.
  parts.push_back({"empty partitions",
                   order::Partitioning{{0, 0, 100, 100, 2000, n, n}}});
  for (const auto& [name, part] : parts) {
    for (EdgeOrder o : {EdgeOrder::Csr, EdgeOrder::Csc, EdgeOrder::Hilbert}) {
      SCOPED_TRACE(name + " " + to_string(o));
      const PartitionedCoo want = reference_partitioned_coo(g, part, o);
      const PartitionedCoo got = build_partitioned_coo(g, part, o);
      EXPECT_EQ(want.offsets, got.offsets);
      EXPECT_EQ(want.edges, got.edges);
    }
  }
}

TEST(PartitionedCoo, RejectsPartitioningThatMissesVertices) {
  const Graph g = gen::rmat(8, 4, 2);
  const order::Partitioning short_part{{0, 10, g.num_vertices() - 1}};
  EXPECT_THROW(build_partitioned_coo(g, short_part, EdgeOrder::Csr), Error);
}

// -------------------------------------------------------------- edgemap

// Counts each (active src -> dst) delivery exactly once per edge.
struct CountingFunctor {
  std::vector<std::atomic<std::uint32_t>>* hits;
  bool update(VertexId, VertexId v) {
    (*hits)[v].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(VertexId u, VertexId v) { return update(u, v); }
  bool cond(VertexId) const { return true; }
};

class EdgeMapDirection : public ::testing::TestWithParam<Direction> {};

TEST_P(EdgeMapDirection, DeliversEveryActiveEdge) {
  const Graph g = gen::rmat(9, 6, 4);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  // Frontier: every 3rd vertex.
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < n; v += 3) ids.push_back(v);
  VertexSubset frontier = VertexSubset::from_sparse(n, ids);

  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  CountingFunctor f{&hits};
  VertexSubset out = edge_map(eng, frontier, f, {.direction = GetParam()});

  // Expected: in-edge count from active sources, per destination.
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t expect = 0;
    for (VertexId u : g.in_neighbors(v))
      if (u % 3 == 0) ++expect;
    ASSERT_EQ(hits[v].load(), expect) << "v=" << v;
  }
  // Output frontier: exactly the destinations with >= 1 active in-edge.
  for (VertexId v = 0; v < n; ++v)
    ASSERT_EQ(out.contains(v), hits[v].load() > 0);
}

INSTANTIATE_TEST_SUITE_P(Directions, EdgeMapDirection,
                         ::testing::Values(Direction::Push, Direction::Pull,
                                           Direction::Auto),
                         [](const auto& info) {
                           switch (info.param) {
                             case Direction::Push: return "Push";
                             case Direction::Pull: return "Pull";
                             case Direction::Auto: return "Auto";
                           }
                           return "Unknown";
                         });

class EdgeMapModel : public ::testing::TestWithParam<SystemModel> {};

TEST_P(EdgeMapModel, PushPullAgreeAcrossModels) {
  const Graph g = gen::rmat(9, 6, 8);
  const VertexId n = g.num_vertices();
  Engine eng(g, GetParam(), {.partitions = 16});

  auto run = [&](Direction dir) {
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < n; v += 2) ids.push_back(v);
    VertexSubset frontier = VertexSubset::from_sparse(n, ids);
    std::vector<std::atomic<std::uint32_t>> hits(n);
    for (auto& h : hits) h.store(0);
    CountingFunctor f{&hits};
    VertexSubset out = edge_map(eng, frontier, f, {.direction = dir});
    std::vector<std::uint32_t> counts(n);
    for (VertexId v = 0; v < n; ++v) counts[v] = hits[v].load();
    return counts;
  };
  EXPECT_EQ(run(Direction::Push), run(Direction::Pull));
}

INSTANTIATE_TEST_SUITE_P(Models, EdgeMapModel,
                         ::testing::Values(SystemModel::Ligra,
                                           SystemModel::Polymer,
                                           SystemModel::GraphGrind),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// Cond-gated functor: only even destinations may be touched.
struct EvenOnlyFunctor {
  std::vector<std::atomic<std::uint32_t>>* hits;
  bool update(VertexId, VertexId v) {
    (*hits)[v].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(VertexId u, VertexId v) { return update(u, v); }
  bool cond(VertexId v) const { return v % 2 == 0; }
};

TEST(EdgeMap, CondFiltersDestinations) {
  const Graph g = gen::rmat(8, 5, 3);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::all(n);
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  EvenOnlyFunctor f{&hits};
  edge_map(eng, frontier, f, {.direction = Direction::Push});
  for (VertexId v = 1; v < n; v += 2) ASSERT_EQ(hits[v].load(), 0u);
}

TEST(EdgeMap, EmptyFrontierProducesEmpty) {
  const Graph g = gen::figure3_example();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::empty(6);
  std::vector<std::atomic<std::uint32_t>> hits(6);
  for (auto& h : hits) h.store(0);
  CountingFunctor f{&hits};
  VertexSubset out = edge_map(eng, frontier, f);
  EXPECT_TRUE(out.empty_set());
}

// ------------------------------------------------------------ vertexmap

TEST(VertexMap, AppliesToAllMembers) {
  const Graph g = gen::rmat(8, 4, 2);
  Engine eng(g, SystemModel::Polymer);
  const VertexId n = g.num_vertices();
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  VertexSubset all = VertexSubset::all(n);
  vertex_map(eng, all, [&](VertexId v) { hits[v].fetch_add(1); });
  for (VertexId v = 0; v < n; ++v) ASSERT_EQ(hits[v].load(), 1u);
}

TEST(VertexMap, SparseSubsetOnly) {
  const Graph g = gen::rmat(8, 4, 2);
  Engine eng(g, SystemModel::Ligra);
  std::vector<std::atomic<std::uint32_t>> hits(g.num_vertices());
  for (auto& h : hits) h.store(0);
  auto s = VertexSubset::from_sparse(g.num_vertices(), {1, 5, 9});
  vertex_map(eng, s, [&](VertexId v) { hits[v].fetch_add(1); });
  EXPECT_EQ(hits[1].load(), 1u);
  EXPECT_EQ(hits[5].load(), 1u);
  EXPECT_EQ(hits[2].load(), 0u);
}

// Functor whose cond() flips false once the destination got one edge:
// the pull path must stop scanning that row (early exit), the push path
// must stop accepting deliveries.
struct FirstOnlyFunctor {
  std::vector<std::atomic<std::uint32_t>>* hits;
  bool update(VertexId, VertexId v) {
    (*hits)[v].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(VertexId /*u*/, VertexId v) {
    if ((*hits)[v].fetch_add(1, std::memory_order_relaxed) == 0) return true;
    (*hits)[v].fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  bool cond(VertexId v) const {
    return (*hits)[v].load(std::memory_order_relaxed) == 0;
  }
};

TEST(EdgeMap, PullEarlyExitDeliversAtMostOneEdgePerDestination) {
  const Graph g = gen::rmat(9, 6, 6);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::all(n);
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  FirstOnlyFunctor f{&hits};
  edge_map(eng, frontier, f,
           {.direction = Direction::Pull, .flags = kPullEarlyExit});
  for (VertexId v = 0; v < n; ++v) ASSERT_LE(hits[v].load(), 1u) << v;
  // Every destination with at least one in-edge got exactly one.
  for (VertexId v = 0; v < n; ++v) {
    if (g.in_degree(v) > 0) {
      ASSERT_EQ(hits[v].load(), 1u) << v;
    }
  }
}

TEST(EdgeMap, PushRespectsCondPerDelivery) {
  const Graph g = gen::rmat(9, 6, 6);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  VertexSubset frontier = VertexSubset::all(n);
  std::vector<std::atomic<std::uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  FirstOnlyFunctor f{&hits};
  edge_map(eng, frontier, f, {.direction = Direction::Push});
  for (VertexId v = 0; v < n; ++v) ASSERT_LE(hits[v].load(), 1u) << v;
}

TEST(VertexFilter, WorksOnDenseSubset) {
  const Graph g = gen::rmat(8, 4, 2);
  Engine eng(g, SystemModel::Ligra);
  auto all = VertexSubset::all(64);
  all.to_dense();
  auto big = vertex_filter(eng, all, [](VertexId v) { return v >= 60; });
  EXPECT_EQ(big.size(), 4u);
}

TEST(VertexFilter, KeepsPredicateMatches) {
  const Graph g = gen::rmat(8, 4, 2);
  Engine eng(g, SystemModel::Ligra);
  auto all = VertexSubset::all(16);
  auto odd = vertex_filter(eng, all, [](VertexId v) { return v % 2 == 1; });
  EXPECT_EQ(odd.size(), 8u);
  EXPECT_TRUE(odd.contains(15));
  EXPECT_FALSE(odd.contains(0));
}

}  // namespace
}  // namespace vebo
