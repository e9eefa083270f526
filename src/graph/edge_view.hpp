// The edges of a graph as (src, dst) pairs in (src, dst) order, read
// straight out of its out-CSR: what Graph::coo() returns. A Graph keeps
// one copy of its edge set per direction (CSR and CSC), so this is a view,
// not a third copy; an owning EdgeList is an explicit to_edge_list().
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace vebo {

/// Random-access range over a CSR's edges, yielding Edge by value. `++`
/// is amortised O(1) and skips empty rows; `[k]` and `it + k` find the
/// source row by binary search over the offsets. Valid while the CSR lives.
class EdgeRange {
 public:
  class iterator {
   public:
    // A proxy iterator (reference is a value), like vector<bool>'s.
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using reference = Edge;
    using pointer = void;

    iterator() = default;

    Edge operator*() const { return {v_, dst_[e_]}; }
    Edge operator[](difference_type k) const { return *(*this + k); }

    iterator& operator++() {
      ++e_;
      while (v_ < n_ && off_[v_ + 1] <= e_) ++v_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    iterator& operator--() {
      --e_;
      while (off_[v_] > e_) --v_;
      return *this;
    }
    iterator operator--(int) {
      iterator t = *this;
      --*this;
      return t;
    }
    iterator& operator+=(difference_type k) {
      e_ = static_cast<EdgeId>(static_cast<difference_type>(e_) + k);
      v_ = row_of(off_, n_, e_);
      return *this;
    }
    iterator& operator-=(difference_type k) { return *this += -k; }
    friend iterator operator+(iterator it, difference_type k) {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.e_) -
             static_cast<difference_type>(b.e_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.e_ == b.e_;
    }
    friend std::strong_ordering operator<=>(const iterator& a,
                                            const iterator& b) {
      return a.e_ <=> b.e_;
    }

   private:
    friend class EdgeRange;
    iterator(const EdgeId* off, const VertexId* dst, VertexId n, EdgeId e)
        : off_(off), dst_(dst), n_(n), v_(row_of(off, n, e)), e_(e) {}

    const EdgeId* off_ = nullptr;
    const VertexId* dst_ = nullptr;
    VertexId n_ = 0;  ///< rows; v_ == n_ past the last edge
    VertexId v_ = 0;  ///< source row of edge e_
    EdgeId e_ = 0;
  };

  EdgeRange(std::span<const EdgeId> offsets, std::span<const VertexId> dst)
      : off_(offsets.empty() ? &kNoOffsets : offsets.data()),
        dst_(dst.data()),
        n_(offsets.empty() ? 0
                           : static_cast<VertexId>(offsets.size() - 1)) {}

  iterator begin() const { return {off_, dst_, n_, 0}; }
  iterator end() const { return {off_, dst_, n_, off_[n_]}; }
  std::size_t size() const { return static_cast<std::size_t>(off_[n_]); }
  bool empty() const { return size() == 0; }
  Edge operator[](std::size_t i) const {
    return {row_of(off_, n_, i), dst_[i]};
  }

 private:
  /// The row holding edge e (n for e == m): the last v with off[v] <= e.
  static VertexId row_of(const EdgeId* off, VertexId n, EdgeId e) {
    return static_cast<VertexId>(
        std::upper_bound(off, off + n + 1, e) - off - 1);
  }

  static constexpr EdgeId kNoOffsets = 0;  ///< the offsets of a default Csr

  const EdgeId* off_;
  const VertexId* dst_;
  VertexId n_;
};

/// A graph's edge set read through its out-CSR, with the graph's vertex
/// count and directedness, in the shape of an EdgeList.
class EdgeView {
 public:
  EdgeView(const Csr& out, bool directed) : out_(&out), directed_(directed) {}

  VertexId num_vertices() const { return out_->num_vertices(); }
  EdgeId num_edges() const { return out_->num_edges(); }
  bool directed() const { return directed_; }

  EdgeRange edges() const {
    return {out_->offsets(), out_->neighbor_array()};
  }

  /// An owning copy, sorted by (src, dst).
  EdgeList to_edge_list() const {
    const EdgeRange r = edges();
    return EdgeList(num_vertices(), std::vector<Edge>(r.begin(), r.end()),
                    directed_);
  }

 private:
  const Csr* out_;
  bool directed_;
};

}  // namespace vebo
