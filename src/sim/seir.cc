#include "sim/seir.h"

namespace m2td::sim {

Result<SeirSystem> SeirSystem::Create(double beta, double sigma,
                                      double gamma) {
  if (!(beta > 0.0) || !(sigma > 0.0) || !(gamma > 0.0)) {
    return Status::InvalidArgument("SEIR rates must be positive");
  }
  return SeirSystem(beta, sigma, gamma);
}

void SeirSystem::BatchDerivative(double /*t*/,
                                 std::span<const OdeSystem* const> lanes,
                                 const double* state,
                                 double* derivative) const {
  constexpr std::size_t B = kBatchLanes;
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    const auto& lane = static_cast<const SeirSystem&>(*lanes[b]);
    const double s = state[b];
    const double e = state[B + b];
    const double i = state[2 * B + b];
    const double infection = lane.beta_ * s * i;
    derivative[b] = -infection;
    derivative[B + b] = infection - lane.sigma_ * e;
    derivative[2 * B + b] = lane.sigma_ * e - lane.gamma_ * i;
    derivative[3 * B + b] = lane.gamma_ * i;
  }
}

Result<std::vector<double>> SeirSystem::InitialState(double i0) {
  if (!(i0 > 0.0) || !(i0 < 1.0)) {
    return Status::InvalidArgument("i0 must be in (0, 1)");
  }
  return std::vector<double>{1.0 - i0, 0.0, i0, 0.0};
}

}  // namespace m2td::sim
