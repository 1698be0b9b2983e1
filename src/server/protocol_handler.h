// ProtocolHandler: per-processor strategy object implementing one of the
// paper's replica-maintenance algorithms (protocol/).

#ifndef LAZYTREE_SERVER_PROTOCOL_HANDLER_H_
#define LAZYTREE_SERVER_PROTOCOL_HANDLER_H_

#include "src/msg/action.h"
#include "src/msg/fingerprint.h"

namespace lazytree {

class Processor;

class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;

  /// Executes one action against the local node store. Runs on the
  /// processor's (single) worker thread, so an action on a node is atomic.
  /// Takes the action by value: handlers mutate its routing fields as it
  /// travels, and callers move it in.
  virtual void Handle(Action action) = 0;

  /// Folds protocol-private scratch state (parked actions, address tables,
  /// pending ack / join bookkeeping) into a canonical state fingerprint for
  /// the exhaustive verifier. Mixed data must be ordered canonically
  /// (sorted by key, never by hash-map iteration order). Pure diagnostics
  /// counters that cannot influence future behavior should be left out.
  virtual void MixState(Fingerprint& fp) const { (void)fp; }
};

}  // namespace lazytree

#endif  // LAZYTREE_SERVER_PROTOCOL_HANDLER_H_
