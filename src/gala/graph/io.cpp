#include "gala/graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

namespace gala::graph {
namespace {

constexpr std::uint64_t kBinaryMagic = 0x47414c41475246ULL;  // "GALAGRF"

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
T read_pod(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  GALA_CHECK(in.good(), "truncated binary graph file");
  return value;
}

template <typename T>
std::vector<T> read_vec(std::ifstream& in) {
  const auto size = read_pod<std::uint64_t>(in);
  // Bound the announced element count by the bytes actually left in the
  // file: a corrupted/adversarial size field must become a structured
  // error, not a multi-gigabyte allocation (std::bad_alloc) below.
  const auto pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  const std::uint64_t remaining =
      end >= pos ? static_cast<std::uint64_t>(end - pos) : 0;
  GALA_CHECK(size <= remaining / sizeof(T),
             "corrupt binary graph: array claims " << size << " elements ("
                 << size * sizeof(T) << "B) but only " << remaining << "B remain");
  std::vector<T> v(size);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(size * sizeof(T)));
  GALA_CHECK(in.good(), "truncated binary graph file");
  return v;
}

}  // namespace

Graph load_edge_list(const std::string& path, vid_t num_vertices) {
  std::ifstream in(path);
  GALA_CHECK(in.is_open(), "cannot open edge list: " << path);
  struct RawEdge {
    vid_t u, v;
    wt_t w;
  };
  std::vector<RawEdge> edges;
  vid_t max_id = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    double w = 1.0;
    GALA_CHECK(static_cast<bool>(ls >> u >> v), "malformed edge at " << path << ":" << line_no);
    ls >> w;  // optional weight
    GALA_CHECK(u <= kInvalidVid - 1 && v <= kInvalidVid - 1,
               "vertex id overflow at " << path << ":" << line_no);
    GALA_CHECK(w > 0, "non-positive weight at " << path << ":" << line_no);
    edges.push_back({static_cast<vid_t>(u), static_cast<vid_t>(v), w});
    max_id = std::max({max_id, static_cast<vid_t>(u), static_cast<vid_t>(v)});
  }
  const vid_t n = num_vertices > 0 ? num_vertices : (edges.empty() ? 0 : max_id + 1);
  GALA_CHECK(n > max_id || edges.empty(), "num_vertices " << n << " <= max id " << max_id);
  GraphBuilder builder(n);
  // Directed duplicates (u->v and v->u in the input) would double the weight;
  // keep only the canonical orientation when both appear. We cannot know in
  // advance, so we canonicalise here and let the builder merge duplicates of
  // the same undirected edge by summing — matching how SNAP-style directed
  // graphs are conventionally symmetrised (weight 1 per undirected edge needs
  // pre-deduped input; weighted inputs sum parallel edges).
  for (const auto& e : edges) builder.add_edge(e.u, e.v, e.w);
  return builder.build();
}

void save_edge_list(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  GALA_CHECK(out.is_open(), "cannot open for writing: " << path);
  out << "# GALA edge list: " << summary(g) << '\n';
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= v) out << v << ' ' << nbrs[i] << ' ' << ws[i] << '\n';
    }
  }
  GALA_CHECK(out.good(), "write failure: " << path);
}

void save_binary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GALA_CHECK(out.is_open(), "cannot open for writing: " << path);
  write_pod(out, kBinaryMagic);
  std::vector<eid_t> offsets(g.offsets().begin(), g.offsets().end());
  std::vector<vid_t> adj(g.adjacency().begin(), g.adjacency().end());
  std::vector<wt_t> w(g.adjacency_weights().begin(), g.adjacency_weights().end());
  write_vec(out, offsets);
  write_vec(out, adj);
  write_vec(out, w);
  GALA_CHECK(out.good(), "write failure: " << path);
}

Graph load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GALA_CHECK(in.is_open(), "cannot open binary graph: " << path);
  GALA_CHECK(read_pod<std::uint64_t>(in) == kBinaryMagic, "bad magic in " << path);
  auto offsets = read_vec<eid_t>(in);
  auto adj = read_vec<vid_t>(in);
  auto w = read_vec<wt_t>(in);
  GALA_CHECK(!offsets.empty() && adj.size() == w.size() && offsets.size() - 1 < kInvalidVid,
             "inconsistent binary graph " << path);
  GALA_CHECK(offsets.front() == 0 && offsets.back() == adj.size(),
             "corrupt offsets in " << path << ": [" << offsets.front() << ", " << offsets.back()
                                   << "] for " << adj.size() << " adjacency entries");
  const vid_t n = static_cast<vid_t>(offsets.size() - 1);

  // The snapshot is adopted as stored, so check every convention
  // from_sorted_csr relies on, in O(V+E). cursor[u] walks row u's
  // below-diagonal entries: the rows v < u are scanned in ascending order,
  // so each entry u->v (v < u) must be exactly the next one the cursor meets
  // when row v reaches its entry v->u — the reverse entry, with the same
  // weight bit for bit.
  // Offsets first: the walk reads ahead into later rows, so every row must
  // lie inside the adjacency before any is scanned.
  std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
  for (vid_t v = 0; v < n; ++v) {
    GALA_CHECK(offsets[v] <= offsets[v + 1],
               "non-monotone offsets at vertex " << v << " in " << path);
  }
  for (vid_t v = 0; v < n; ++v) {
    eid_t below = 0;  // entries v->u with u < v
    for (eid_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const vid_t u = adj[e];
      GALA_CHECK(u < n, "neighbour id " << u << " out of range [0, " << n << ") in " << path);
      GALA_CHECK(w[e] > 0, "bad weight " << w[e] << " on entry " << v << "->" << u
                                         << " (must be > 0) in " << path);
      if (e > offsets[v]) {
        GALA_CHECK(adj[e - 1] != u,
                   "duplicate neighbour " << u << " in row " << v << " in " << path);
        GALA_CHECK(adj[e - 1] < u, "unsorted row " << v << " in " << path);
      }
      if (u < v) {
        ++below;
      } else if (u > v) {
        eid_t& r = cursor[u];
        const bool in_row = r < offsets[u + 1];
        // An unconsumed entry u->x, x < v, means the finished row x lacks x->u.
        GALA_CHECK(!in_row || adj[r] >= v,
                   "missing reverse edge " << adj[r] << "->" << u << " in " << path);
        GALA_CHECK(in_row && adj[r] == v,
                   "missing reverse edge " << u << "->" << v << " in " << path);
        GALA_CHECK(w[r] == w[e], "asymmetric weight on edge {" << v << "," << u << "}: " << w[e]
                                                               << " vs " << w[r] << " in " << path);
        ++r;
      }
    }
    GALA_CHECK(cursor[v] == offsets[v] + below,
               "missing reverse edge " << adj[cursor[v]] << "->" << v << " in " << path);
  }
  return GraphBuilder::from_sorted_csr(n, std::move(offsets), std::move(adj), std::move(w));
}

}  // namespace gala::graph
