#include "quantum/gates.hpp"

#include <cmath>

namespace poq::quantum::gates {

namespace {
using C = Amplitude;
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
}  // namespace

Gate1 identity() { return Gate1{{C{1, 0}, C{0, 0}, C{0, 0}, C{1, 0}}}; }

Gate1 pauli_x() { return Gate1{{C{0, 0}, C{1, 0}, C{1, 0}, C{0, 0}}}; }

Gate1 pauli_y() { return Gate1{{C{0, 0}, C{0, -1}, C{0, 1}, C{0, 0}}}; }

Gate1 pauli_z() { return Gate1{{C{1, 0}, C{0, 0}, C{0, 0}, C{-1, 0}}}; }

Gate1 hadamard() {
  return Gate1{{C{kInvSqrt2, 0}, C{kInvSqrt2, 0}, C{kInvSqrt2, 0}, C{-kInvSqrt2, 0}}};
}

Gate1 phase_t() {
  return Gate1{{C{1, 0}, C{0, 0}, C{0, 0}, C{kInvSqrt2, kInvSqrt2}}};
}

Gate1 rotation_y(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return Gate1{{C{c, 0}, C{-s, 0}, C{s, 0}, C{c, 0}}};
}

Gate1 rotation_z(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return Gate1{{C{c, -s}, C{0, 0}, C{0, 0}, C{c, s}}};
}

}  // namespace poq::quantum::gates
