#include "gala/query/executor.hpp"

#include <algorithm>
#include <unordered_map>

#include "gala/common/error.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::query {

QueryExecutor::QueryExecutor(const CommunityStore& store, ThreadPool* pool, std::size_t grain)
    : store_(&store), pool_(pool != nullptr ? pool : &ThreadPool::global()),
      grain_(std::max<std::size_t>(grain, 1)) {}

cid_t QueryExecutor::community_of(vid_t v) const {
  SnapshotRef snap = store_->current();
  GALA_CHECK(snap, "query on an empty store (no epoch published yet)");
  GALA_CHECK(v < snap->num_vertices(),
             "vertex " << v << " out of range for epoch " << snap->epoch() << " ("
                       << snap->num_vertices() << " vertices)");
  RunScope::current().registry().counter("query.point_lookups").add(1);
  return snap->community_of(v);
}

std::vector<cid_t> QueryExecutor::community_of(const Snapshot& snap,
                                               std::span<const vid_t> vertices) const {
  telemetry::ScopedSpan span(RunScope::current().tracer(), "batch_community_of", "query");
  span.arg("ops", static_cast<double>(vertices.size()));
  const vid_t n = snap.num_vertices();
  std::vector<cid_t> out(vertices.size());
  pool_->parallel_for_chunked(
      0, vertices.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          GALA_CHECK(vertices[i] < n, "vertex " << vertices[i] << " out of range for epoch "
                                                << snap.epoch() << " (" << n << " vertices)");
          out[i] = snap.community_of(vertices[i]);
        }
      },
      grain_);
  RunScope::current().registry().counter("query.batch_lookups").add(vertices.size());
  return out;
}

std::vector<vid_t> QueryExecutor::community_size_of(const Snapshot& snap,
                                                    std::span<const vid_t> vertices) const {
  const vid_t n = snap.num_vertices();
  std::vector<vid_t> out(vertices.size());
  pool_->parallel_for_chunked(
      0, vertices.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          GALA_CHECK(vertices[i] < n, "vertex " << vertices[i] << " out of range for epoch "
                                                << snap.epoch() << " (" << n << " vertices)");
          out[i] = snap.size(snap.community_of(vertices[i]));
        }
      },
      grain_);
  RunScope::current().registry().counter("query.batch_lookups").add(vertices.size());
  return out;
}

std::vector<vid_t> QueryExecutor::members(const Snapshot& snap, cid_t c) const {
  GALA_CHECK(c < snap.num_communities(), "community " << c << " out of range for epoch "
                                                      << snap.epoch() << " ("
                                                      << snap.num_communities() << " communities)");
  auto row = snap.members(c);
  RunScope::current().registry().counter("query.member_scans").add(1);
  return std::vector<vid_t>(row.begin(), row.end());
}

std::vector<TopCommunity> QueryExecutor::top_k(const Snapshot& snap, std::size_t k) const {
  const auto order = snap.by_size();
  k = std::min<std::size_t>(k, order.size());
  std::vector<TopCommunity> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const cid_t c = order[i];
    out.push_back({c, snap.size(c), snap.weight(c), snap.modularity_of(c)});
  }
  RunScope::current().registry().counter("query.top_k").add(1);
  return out;
}

EpochDiff QueryExecutor::diff(const Snapshot& from, const Snapshot& to) const {
  telemetry::ScopedSpan span(RunScope::current().tracer(), "epoch_diff", "query");
  const vid_t n = from.num_vertices();
  GALA_CHECK(n == to.num_vertices(), "epoch diff across different vertex sets: epoch "
                                         << from.epoch() << " has " << n << " vertices, epoch "
                                         << to.epoch() << " has " << to.num_vertices());
  EpochDiff result;
  result.from_epoch = from.epoch();
  result.to_epoch = to.epoch();

  // pair_count[(c_from, c_to)] = vertices that landed in exactly that label
  // pair. A vertex is unmoved iff its pair covers both of its communities
  // completely — membership sets equal, independent of labels.
  std::unordered_map<std::uint64_t, vid_t> pair_count;
  pair_count.reserve(std::max<std::size_t>(from.num_communities(), to.num_communities()) * 2);
  const auto key = [&](vid_t v) {
    return (static_cast<std::uint64_t>(from.community_of(v)) << 32) |
           static_cast<std::uint64_t>(to.community_of(v));
  };
  for (vid_t v = 0; v < n; ++v) ++pair_count[key(v)];

  const std::size_t chunks = (n + grain_ - 1) / std::max<std::size_t>(grain_, 1);
  std::vector<std::vector<vid_t>> moved_per_chunk(std::max<std::size_t>(chunks, 1));
  pool_->parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<vid_t>& local = moved_per_chunk[lo / grain_];
        for (std::size_t i = lo; i < hi; ++i) {
          const vid_t v = static_cast<vid_t>(i);
          const vid_t pair = pair_count.find(key(v))->second;
          if (pair != from.size(from.community_of(v)) || pair != to.size(to.community_of(v))) {
            local.push_back(v);
          }
        }
      },
      grain_);
  for (const auto& chunk : moved_per_chunk) {
    result.moved.insert(result.moved.end(), chunk.begin(), chunk.end());
  }
  span.arg("moved", static_cast<double>(result.moved.size()));
  RunScope::current().registry().counter("query.epoch_diffs").add(1);
  return result;
}

EpochDiff QueryExecutor::diff(std::uint64_t from_epoch, std::uint64_t to_epoch) const {
  SnapshotRef from = store_->at(from_epoch);
  GALA_CHECK(from, "epoch " << from_epoch << " is not retained (evicted or never published)");
  SnapshotRef to = store_->at(to_epoch);
  GALA_CHECK(to, "epoch " << to_epoch << " is not retained (evicted or never published)");
  return diff(*from, *to);
}

}  // namespace gala::query
