// Graph file I/O.
//
// Two formats:
//  - Text edge list: one "u v [w]" per line, '#' or '%' comment lines.
//    Directed inputs are symmetrised on load (the paper converts TW/EW to
//    undirected the same way).
//  - A compact binary snapshot (magic + CSR arrays) for fast reloads.
#pragma once

#include <string>

#include "gala/graph/csr.hpp"

namespace gala::graph {

/// Loads a text edge list. Vertex ids are 0-based; `num_vertices` of 0 means
/// "infer from the maximum id seen".
Graph load_edge_list(const std::string& path, vid_t num_vertices = 0);

/// Writes the graph as a text edge list (each undirected edge once).
void save_edge_list(const Graph& g, const std::string& path);

/// Binary snapshot round trip. load_binary adopts the stored CSR arrays as
/// they are, after an O(V+E) check of every convention the graph relies on
/// (monotone offsets, in-range neighbours, weights > 0, strictly ascending
/// rows, each entry mirrored with exactly the same weight); a file that
/// breaks one is rejected with an error naming the check and the path.
void save_binary(const Graph& g, const std::string& path);
Graph load_binary(const std::string& path);

}  // namespace gala::graph
