// Isolated per-layer timings: each layer's public entry points, called
// from outside on the workload's own messages.
#pragma once

#include "traffic.hpp"
#include "util.hpp"

namespace perfbench {

/// Times wire, adt, dpu (CodecPool), rdmarpc/simverbs and xrpc in
/// isolation and stores the results under their per-layer metric names.
/// Takes roughly `budget_s` seconds. False if a layer call failed.
bool measure_layers(const Traffic& t, double budget_s, Metrics& out);

}  // namespace perfbench
