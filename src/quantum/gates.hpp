// Standard single-qubit gates as Gate1 constants.
#pragma once

#include "quantum/statevector.hpp"

namespace poq::quantum::gates {

/// Identity.
[[nodiscard]] Gate1 identity();
/// Pauli-X (bit flip).
[[nodiscard]] Gate1 pauli_x();
/// Pauli-Y.
[[nodiscard]] Gate1 pauli_y();
/// Pauli-Z (phase flip).
[[nodiscard]] Gate1 pauli_z();
/// Hadamard.
[[nodiscard]] Gate1 hadamard();
/// T gate = diag(1, e^{i pi/4}).
[[nodiscard]] Gate1 phase_t();
/// Rotation about Y by angle theta.
[[nodiscard]] Gate1 rotation_y(double theta);
/// Rotation about Z by angle theta.
[[nodiscard]] Gate1 rotation_z(double theta);

}  // namespace poq::quantum::gates
