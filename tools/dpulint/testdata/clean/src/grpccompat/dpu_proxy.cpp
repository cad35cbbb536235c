// Fixture responder file: record-before-respond pairing done right —
// kComplete is recorded before the responder fires (§3.15), on the direct
// and on the batched reply path.
#include "trace/trace.hpp"

namespace fix {

struct Responder {
  void operator()(int code);
};
struct ReplyBatch {
  void add(const Responder& to, int code);
};

void finish(Responder& respond, trace::TraceContext& ctx) {
  trace::record(trace::Stage::kComplete, ctx, 2, 3, 0);
  respond(0);
}

void finish_batched(ReplyBatch& replies, Responder& respond,
                    trace::TraceContext& ctx) {
  trace::record(trace::Stage::kComplete, ctx, 2, 3, 0);
  replies.add(respond, 0);
}

}  // namespace fix
