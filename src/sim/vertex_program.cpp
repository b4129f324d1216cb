#include "sim/vertex_program.hpp"

#include "util/error.hpp"

namespace poq::sim {

SignalSet::SignalSet(std::size_t vertex_count) : bits_(vertex_count, 0) {
  require(vertex_count > 0, "SignalSet: vertex_count must be positive");
}

void SignalSet::signal(std::uint32_t vertex) {
  relaxed(bits_[vertex]).store(1, std::memory_order_relaxed);
}

void SignalSet::signal_all() {
  for (std::uint8_t& byte : bits_) {
    relaxed(byte).store(1, std::memory_order_relaxed);
  }
}

bool SignalSet::test(std::uint32_t vertex) const {
  return relaxed(bits_[vertex]).load(std::memory_order_relaxed) != 0;
}

void SignalSet::clear(std::uint32_t vertex) {
  relaxed(bits_[vertex]).store(0, std::memory_order_relaxed);
}

}  // namespace poq::sim
