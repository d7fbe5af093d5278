#include "gala/multigpu/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "gala/scope/run_scope.hpp"

namespace gala::multigpu {

Communicator::Communicator(std::size_t num_ranks, CommCostModel cost)
    : num_ranks_(num_ranks), cost_(cost), barrier_(static_cast<std::ptrdiff_t>(num_ranks)) {
  GALA_CHECK(num_ranks >= 1, "communicator needs at least one rank");
  staging_.resize(num_ranks);
  scalar_buffer_.resize(num_ranks);
}

void Communicator::inject_gather_faults(std::size_t rank, Chunk& chunk) {
  auto& injector = RunScope::current().faults();
  const int r = static_cast<int>(rank);
  if (injector.should_fire(resilience::FaultSite::CollectiveDrop, "all_gather_v", r)) {
    chunk.bytes.clear();
    chunk.status = ChunkStatus::Dropped;
    return;
  }
  if (injector.should_fire(resilience::FaultSite::CollectiveTimeout, "all_gather_v", r)) {
    chunk.status = ChunkStatus::TimedOut;
    return;
  }
  if (injector.should_fire(resilience::FaultSite::CollectiveCorrupt, "all_gather_v", r) &&
      !chunk.bytes.empty()) {
    // Flip one payload byte *after* the checksum was computed: exactly the
    // on-the-wire corruption the integrity check exists to catch.
    chunk.bytes[chunk.bytes.size() / 2] ^= std::byte{0x40};
  }
}

std::string Communicator::verify_round(const char* op) {
  std::ostringstream msg;
  for (std::size_t r = 0; r < num_ranks_; ++r) {
    const Chunk& c = staging_[r];
    if (c.status == ChunkStatus::Dropped) {
      msg << op << ": rank " << r << " dropped its contribution [collective-drop]";
      return msg.str();
    }
    if (c.status == ChunkStatus::TimedOut) {
      msg << op << ": rank " << r << " timed out [collective-timeout]";
      return msg.str();
    }
    if (fnv1a(c.bytes) != c.checksum) {
      msg << op << ": rank " << r << " payload failed checksum [collective-corrupt]";
      return msg.str();
    }
  }
  return {};
}

void Communicator::check_abort(const char* op) {
  if (!aborted()) return;
  std::string reason;
  {
    std::lock_guard lock(mutex_);
    reason = abort_reason_;
  }
  GALA_THROW(CollectiveFault, op << ": communicator aborted — " << reason);
}

void Communicator::abort(const std::string& reason) {
  {
    std::lock_guard lock(mutex_);
    if (abort_reason_.empty()) abort_reason_ = reason;
  }
  aborted_.store(true, std::memory_order_release);
  // Each aborting rank permanently leaves the barrier: its arrival completes
  // the current phase (releasing waiters) and shrinks the expected count for
  // every later phase, so the surviving ranks can always make progress to
  // their next check_abort.
  barrier_.arrive_and_drop();
}

void Communicator::all_reduce_sum(std::size_t rank, std::span<double> data, CommStats& stats) {
  GALA_CHECK(rank < num_ranks_,
             "all_reduce_sum: rank " << rank << " out of range [0, " << num_ranks_ << ")");
  check_abort("all_reduce_sum");
  {
    std::lock_guard lock(mutex_);
    if (reduce_buffer_.size() < data.size()) reduce_buffer_.assign(data.size(), 0.0);
  }
  barrier_.arrive_and_wait();
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < data.size(); ++i) reduce_buffer_[i] += data[i];
  }
  barrier_.arrive_and_wait();
  std::copy_n(reduce_buffer_.begin(), data.size(), data.begin());
  const std::size_t bytes = charged_reduce_bytes(data.size() * sizeof(double));
  stats.collectives += 1;
  stats.bytes += bytes;
  stats.modeled_us += cost_.microseconds(bytes);
  barrier_.arrive_and_wait();
  if (rank == 0) {
    std::lock_guard lock(mutex_);
    std::fill(reduce_buffer_.begin(), reduce_buffer_.end(), 0.0);
  }
  barrier_.arrive_and_wait();
}

double Communicator::all_reduce_min(std::size_t rank, double value, CommStats& stats) {
  GALA_CHECK(rank < num_ranks_,
             "all_reduce_min: rank " << rank << " out of range [0, " << num_ranks_ << ")");
  check_abort("all_reduce_min");
  scalar_buffer_[rank] = value;
  barrier_.arrive_and_wait();
  const double result = *std::min_element(scalar_buffer_.begin(), scalar_buffer_.end());
  // A scalar all-reduce(min) is modeled as an all-gather of one scalar per
  // rank, so it charges by the gather convention.
  const std::size_t bytes = charged_gather_bytes(num_ranks_ * sizeof(double));
  stats.collectives += 1;
  stats.bytes += bytes;
  stats.modeled_us += cost_.microseconds(bytes);
  barrier_.arrive_and_wait();
  return result;
}

}  // namespace gala::multigpu
