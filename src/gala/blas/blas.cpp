#include "gala/blas/blas.hpp"

namespace gala::blas {

const char* to_string(Accumulator a) {
  switch (a) {
    case Accumulator::Spa:
      return "spa";
    case Accumulator::Sorted:
      return "sorted";
  }
  return "?";
}

const char* to_string(Direction d) {
  switch (d) {
    case Direction::Pull:
      return "pull";
    case Direction::Push:
      return "push";
  }
  return "?";
}

Direction choose_direction(std::uint64_t active_rows, std::uint64_t total_rows,
                           double pull_threshold) {
  if (total_rows == 0) return Direction::Pull;
  const double density = static_cast<double>(active_rows) / static_cast<double>(total_rows);
  return density >= pull_threshold ? Direction::Pull : Direction::Push;
}

}  // namespace gala::blas
