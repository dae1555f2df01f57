// Protocol dispatch for the serving loop.
//
// One Dispatcher turns a decoded frame into a reply payload against a
// DatasetRegistry (which tenant?) and a ClientSession (how much budget is
// left?).  The epoll EventLoop routes every frame through this one switch,
// so it holds no protocol semantics of its own.
//
// The API is asynchronous: HandleFrame invokes `done(reply)` exactly once —
// synchronously for control frames (Hello, Warm, Stats, Shutdown,
// RegisterDataset) and every error caught before submission, or from a
// pool thread's completion callback for engine-backed frames (Fit,
// QueryBatch, SeqQueryBatch), which is what lets the event loop pipeline
// requests without parking a thread per in-flight frame.
//
// Budget semantics: every fit-carrying request charges its spec's ε to the
// session the first time the session touches that synopsis key (repeats
// are free — queries are post-processing); a request that then *fails*
// refunds the charge.  Warm is exempt: prefetch returns no released
// values, and billing a background cache fill to whichever client happened
// to request it would double-charge the client that later reads it.
#ifndef PRIVTREE_SERVER_DISPATCHER_H_
#define PRIVTREE_SERVER_DISPATCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "server/client_session.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"

namespace privtree::server {

struct DispatcherOptions {
  /// Per-connection Σε ceiling handed to every NewSession(); 0 = unlimited.
  double session_budget = 0.0;
  /// Whether RegisterDataset frames are accepted (loopback deployments);
  /// refused with InvalidArgument when false.
  bool allow_uploads = true;
};

class Dispatcher {
 public:
  /// Invoked exactly once with the complete reply payload.  May run on the
  /// calling thread or on an engine pool thread; must not block.
  using Done = std::function<void(std::string reply)>;

  /// `registry` must outlive the dispatcher.
  explicit Dispatcher(DatasetRegistry& registry,
                      DispatcherOptions options = {});

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// A fresh per-connection session with this dispatcher's budget policy.
  std::shared_ptr<ClientSession> NewSession() const {
    return std::make_shared<ClientSession>(options_.session_budget);
  }

  /// Dispatches one frame.  `*shutdown` is set synchronously (before
  /// return) when the frame asks the server to stop; the reply still goes
  /// out first.  `session` is captured by asynchronous completions — the
  /// shared_ptr keeps budget accounting alive however the connection ends.
  ///
  /// `trace`, when non-null, collects span timings along the way (and
  /// receives the client's trace id if the frame arrived in a Traced
  /// envelope).  Tracing never changes the reply bytes: a Traced wrapper is
  /// unwrapped transparently whether or not a trace is attached.
  void HandleFrame(std::string_view payload,
                   const std::shared_ptr<ClientSession>& session,
                   bool* shutdown, Done done, obs::TracePtr trace = {});

  DatasetRegistry& registry() const { return registry_; }
  const DispatcherOptions& options() const { return options_; }

 private:
  std::string HandleHello(std::string_view payload,
                          const ClientSession& session) const;
  std::string HandleWarm(std::string_view payload) const;
  std::string HandleStats() const;
  std::string HandleRegisterDataset(std::string_view payload) const;

  DatasetRegistry& registry_;
  const DispatcherOptions options_;
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_DISPATCHER_H_
