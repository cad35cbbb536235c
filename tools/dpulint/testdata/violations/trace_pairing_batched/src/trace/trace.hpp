// Fixture trace library for the pairing violation (all stages recorded).
#pragma once

namespace trace {

enum class Stage : unsigned char {
  kRequest,
  kComplete,
  kStageCount,
};

struct TraceContext {
  unsigned long trace_id = 0;
};

void record(Stage stage, const TraceContext& ctx, unsigned long start,
            unsigned long end, unsigned long arg);
void record_root(const TraceContext& ctx, unsigned long start,
                 unsigned long end, unsigned long arg);

}  // namespace trace
