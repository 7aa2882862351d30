#include "sim/lorenz.h"

namespace m2td::sim {

void LorenzSystem::BatchDerivative(double /*t*/,
                                   std::span<const OdeSystem* const> lanes,
                                   const double* state,
                                   double* derivative) const {
  constexpr std::size_t B = kBatchLanes;
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    const auto& lane = static_cast<const LorenzSystem&>(*lanes[b]);
    const double x = state[b];
    const double y = state[B + b];
    const double z = state[2 * B + b];
    derivative[b] = lane.sigma_ * (y - x);
    derivative[B + b] = x * (lane.rho_ - z) - y;
    derivative[2 * B + b] = x * y - lane.beta_ * z;
  }
}

}  // namespace m2td::sim
