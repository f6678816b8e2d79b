// Per-layer probes for the traced run: the benchmark times its own calls
// into each module's public functions, on inputs the workload's stream
// produced (its maps, labels, the users' assignment windows, the cluster
// blobs, and — in onboard — the personal checkpoints it stored).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerInputs {
  const Model* model = nullptr;
  const Plan* plan = nullptr;
  /// Answered timed responses (codec probe).
  std::vector<net::WireResponse> responses;
  /// Journal directory holding stored personal checkpoints, and the users
  /// that have one; empty outside onboard.
  std::string checkpoint_dir;
  std::vector<std::uint64_t> personal_users;
};

/// Metric name -> value (µs unless the name says otherwise).
std::map<std::string, double> probe_layers(const LayerInputs& in);

}  // namespace perfbench
