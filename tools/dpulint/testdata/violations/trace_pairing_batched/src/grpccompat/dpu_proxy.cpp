// Deliberate trace-pairing violation on the batched reply path: the
// responder is handed to the reply batch (`add(pending.respond, ...)`)
// without a kComplete mention before it (record-before-respond, §3.15).
#include "trace/trace.hpp"

namespace fix {

struct Responder {};
struct ReplyBatch {
  void add(const Responder& to, int code);
};
struct Pending {
  Responder respond;
};

void reject_batched(ReplyBatch& replies, Pending& pending) {
  replies.add(pending.respond, -1);
}

}  // namespace fix
