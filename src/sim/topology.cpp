#include "sim/topology.hpp"

#include <cmath>
#include <stdexcept>

#include "topology/builders.hpp"

namespace drrg::sim {

namespace {

constexpr std::uint32_t kNeverSeen = static_cast<std::uint32_t>(-1);

/// Double-sweep BFS over implicitly-enumerated neighbors: the exact
/// algorithm of Graph::pseudo_diameter (same farthest-node tie-break,
/// which is enumeration-order independent), so the implicit and CSR
/// backends report identical diameters.
template <typename ForEachNeighbor>
std::uint32_t pseudo_diameter_implicit(std::uint32_t n,
                                       ForEachNeighbor&& neighbors_of) {
  if (n <= 1) return 0;
  std::vector<std::uint32_t> dist(n);
  auto bfs = [&](NodeId start) -> NodeId {
    std::fill(dist.begin(), dist.end(), kNeverSeen);
    std::vector<NodeId> frontier{start};
    dist[start] = 0;
    NodeId farthest = start;
    while (!frontier.empty()) {
      std::vector<NodeId> next;
      for (NodeId v : frontier) {
        neighbors_of(v, [&](NodeId w) {
          if (dist[w] == kNeverSeen) {
            dist[w] = dist[v] + 1;
            if (dist[w] > dist[farthest] ||
                (dist[w] == dist[farthest] && w < farthest))
              farthest = w;
            next.push_back(w);
          }
        });
      }
      frontier = std::move(next);
    }
    return farthest;
  };
  const NodeId u = bfs(0);
  const NodeId w = bfs(u);
  return dist[w];
}

/// Node-independent sorted chord offset table: the undirected neighbor set
/// of any node i is {(i + d) mod n : d in table}.  Mirrors the edge set of
/// make_chord_graph (successor step 1 plus finger steps 2, 4, ...), with
/// each step s contributing both directions s and n - s.
std::vector<NodeId> chord_offset_table(std::uint32_t n) {
  std::vector<NodeId> table;
  auto add = [&](std::uint32_t s) {
    table.push_back(s);
    table.push_back(n - s);
  };
  add(1);
  for (std::uint64_t step = 2; step < n; step <<= 1)
    add(static_cast<std::uint32_t>(step));
  std::sort(table.begin(), table.end());
  table.erase(std::unique(table.begin(), table.end()), table.end());
  return table;
}

}  // namespace

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kComplete: return "complete";
    case TopologyKind::kChordRing: return "chord-ring";
    case TopologyKind::kRandomRegular: return "random-regular";
    case TopologyKind::kGrid2d: return "grid";
  }
  return "complete";
}

std::string_view to_string(TopologyBackend backend) noexcept {
  switch (backend) {
    case TopologyBackend::kAuto: return "auto";
    case TopologyBackend::kCsr: return "csr";
    case TopologyBackend::kImplicit: return "implicit";
  }
  return "auto";
}

std::optional<TopologySpec> topology_from_name(std::string_view name) noexcept {
  TopologySpec spec;
  if (name == "complete") {
    spec.kind = TopologyKind::kComplete;
  } else if (name == "chord-ring" || name == "chord") {
    spec.kind = TopologyKind::kChordRing;
  } else if (name == "random-regular" || name == "regular") {
    spec.kind = TopologyKind::kRandomRegular;
  } else if (name == "grid") {
    spec.kind = TopologyKind::kGrid2d;
  } else if (name == "torus") {
    spec.kind = TopologyKind::kGrid2d;
    spec.torus = true;
  } else {
    return std::nullopt;
  }
  return spec;
}

std::optional<TopologyBackend> backend_from_name(std::string_view name) noexcept {
  if (name == "auto") return TopologyBackend::kAuto;
  if (name == "csr") return TopologyBackend::kCsr;
  if (name == "implicit") return TopologyBackend::kImplicit;
  return std::nullopt;
}

Topology Topology::of_grid(std::uint32_t rows, std::uint32_t cols, bool torus) {
  Topology t = of_graph(make_grid(rows, cols, torus));
  t.grid_rows_ = rows;
  t.grid_cols_ = cols;
  t.grid_torus_ = torus;
  return t;
}

std::uint32_t Topology::grid_neighbors_of(std::uint32_t rows, std::uint32_t cols,
                                          bool torus, NodeId v, NodeId out[4]) {
  // Mirror make_grid's emission rules exactly: lattice edges plus torus
  // wraps only on dimensions > 2 (a wrap on a 2-wide dimension would
  // coincide with the lattice edge).
  const std::uint32_t r = v / cols;
  const std::uint32_t c = v % cols;
  std::uint32_t m = 0;
  auto push = [&](std::uint32_t rr, std::uint32_t cc) {
    out[m++] = rr * cols + cc;
  };
  if (c > 0) push(r, c - 1);
  else if (torus && cols > 2) push(r, cols - 1);
  if (c + 1 < cols) push(r, c + 1);
  else if (torus && cols > 2) push(r, 0);
  if (r > 0) push(r - 1, c);
  else if (torus && rows > 2) push(rows - 1, c);
  if (r + 1 < rows) push(r + 1, c);
  else if (torus && rows > 2) push(0, c);
  // Insertion-sort the <= 4 entries: the CSR slice is sorted ascending and
  // sampling indexes into the sorted order.
  for (std::uint32_t i = 1; i < m; ++i) {
    const NodeId x = out[i];
    std::uint32_t j = i;
    for (; j > 0 && out[j - 1] > x; --j) out[j] = out[j - 1];
    out[j] = x;
  }
  return m;
}

std::uint32_t Topology::implicit_neighbors(NodeId v, NodeId* out) const {
  if (storage_ == Storage::kImplicitGrid) {
    NodeId nb[4];
    const std::uint32_t deg = grid_neighbors(v, nb);
    for (std::uint32_t i = 0; i < deg; ++i) out[i] = nb[i];
    return deg;
  }
  if (storage_ == Storage::kImplicitChord) {
    // Sorted neighbor list of v = rotation of the offset table at the
    // wrap point (see PeerSampler::operator()).
    const NodeId* lb = std::lower_bound(chord_, chord_ + chord_degree_, n_ - v);
    const auto split = static_cast<std::uint32_t>(lb - chord_);
    std::uint32_t m = 0;
    for (std::uint32_t k = split; k < chord_degree_; ++k)
      out[m++] = static_cast<NodeId>(
          static_cast<std::uint64_t>(v) + chord_[k] - n_);
    for (std::uint32_t k = 0; k < split; ++k)
      out[m++] = v + chord_[k];
    return m;
  }
  return 0;
}

Topology Topology::implicit_chord(std::uint32_t n) {
  if (n < 4) throw std::invalid_argument("implicit_chord: need n >= 4");
  Topology t;
  t.storage_ = Storage::kImplicitChord;
  t.n_ = n;
  t.chord_table_ = std::make_shared<const std::vector<NodeId>>(chord_offset_table(n));
  t.chord_ = t.chord_table_->data();
  t.chord_degree_ = static_cast<std::uint32_t>(t.chord_table_->size());
  const NodeId* table = t.chord_;
  const std::uint32_t deg = t.chord_degree_;
  std::vector<NodeId> scratch(deg);
  t.diameter_ = pseudo_diameter_implicit(n, [&](NodeId v, auto&& visit) {
    const NodeId* lb = std::lower_bound(table, table + deg, n - v);
    const auto split = static_cast<std::uint32_t>(lb - table);
    for (std::uint32_t k = split; k < deg; ++k)
      visit(static_cast<NodeId>(static_cast<std::uint64_t>(v) + table[k] - n));
    for (std::uint32_t k = 0; k < split; ++k) visit(v + table[k]);
  });
  return t;
}

Topology Topology::implicit_grid(std::uint32_t rows, std::uint32_t cols,
                                 bool torus) {
  if (rows < 2 || cols < 2)
    throw std::invalid_argument("implicit_grid: need rows, cols >= 2");
  const std::uint64_t n64 = static_cast<std::uint64_t>(rows) * cols;
  if (n64 > kNeverSeen)
    throw std::invalid_argument("implicit_grid: rows * cols overflows NodeId");
  Topology t;
  t.storage_ = Storage::kImplicitGrid;
  t.n_ = static_cast<std::uint32_t>(n64);
  t.grid_rows_ = rows;
  t.grid_cols_ = cols;
  t.grid_torus_ = torus;
  t.diameter_ = pseudo_diameter_implicit(t.n_, [&](NodeId v, auto&& visit) {
    NodeId nb[4];
    const std::uint32_t deg = grid_neighbors_of(rows, cols, torus, v, nb);
    for (std::uint32_t i = 0; i < deg; ++i) visit(nb[i]);
  });
  return t;
}

GridShape grid_shape(std::uint32_t n) noexcept {
  GridShape shape;
  if (n == 0) return shape;
  std::uint32_t rows = 1;
  const auto limit = static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
  for (std::uint32_t r = 1; r <= limit; ++r)
    if (n % r == 0) rows = r;
  shape.rows = rows;
  shape.cols = n / rows;
  return shape;
}

bool uses_implicit_backend(const TopologySpec& spec, std::uint32_t n) noexcept {
  if (spec.kind != TopologyKind::kChordRing && spec.kind != TopologyKind::kGrid2d)
    return false;
  return spec.backend == TopologyBackend::kImplicit ||
         (spec.backend == TopologyBackend::kAuto && n >= kImplicitAutoThreshold);
}

Topology make_topology(const TopologySpec& spec, std::uint32_t n, std::uint64_t seed) {
  const bool implicit = uses_implicit_backend(spec, n);
  switch (spec.kind) {
    case TopologyKind::kComplete:
      return Topology::complete_of(n);
    case TopologyKind::kChordRing:
      if (implicit) return Topology::implicit_chord(n);
      return Topology::of_graph(make_chord_graph(n));
    case TopologyKind::kRandomRegular: {
      if (spec.backend == TopologyBackend::kImplicit)
        throw std::invalid_argument(
            "make_topology: random-regular has no implicit backend");
      std::uint32_t d = spec.degree;
      if (d == 0) d = 1;
      if (d >= n) d = n - 1;
      if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) ++d;  // even degree sum
      if (d >= n) return Topology::complete_of(n);            // tiny n: K_n
      return Topology::of_graph(make_random_regular(n, d, seed));
    }
    case TopologyKind::kGrid2d: {
      const GridShape shape = grid_shape(n);
      if (shape.rows < 2)
        throw std::invalid_argument(
            "make_topology: grid needs a composite n >= 4 (n = " +
            std::to_string(n) +
            " has no rows x cols shape; a 1 x n \"grid\" is a path whose "
            "diameter n-1 invalidates grid-family results)");
      if (implicit)
        return Topology::implicit_grid(shape.rows, shape.cols, spec.torus);
      return Topology::of_grid(shape.rows, shape.cols, spec.torus);
    }
  }
  return Topology::complete_of(n);
}

}  // namespace drrg::sim
