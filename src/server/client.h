// The client side of the serving protocol: one blocking call per request.
//
// Connect() dials the server, performs the Hello version handshake, and
// returns a client whose info() describes what is being served (dim, point
// count, dataset fingerprint, registered methods).  Every method is a
// frame round trip; a server-side ErrorReply comes back as that call's
// non-OK Status (shed load is Unavailable, an expired deadline is
// DeadlineExceeded), so callers branch on status codes, not on parsing.
// One Client serializes its calls on one connection — use one Client per
// concurrent caller; the server interleaves them.
//
// Resilience: Connect always bounds the dial and the Hello read
// (ClientOptions::connect_timeout_millis), so a half-open or blackholed
// server yields a clean DeadlineExceeded instead of a hang.  With
// max_attempts > 1 the client additionally retries: transport failures
// (reset, torn frame, read timeout) trigger a reconnect + resend, and a
// served Unavailable waits out the server's retry-after hint (or the
// client's own exponential backoff with deterministic jitter) before
// resending.  Retries are restricted to idempotent frames — every request
// except Shutdown; a Fit is a pure function of its spec and registration
// is idempotent by content — and stop when the retry budget's deadline
// would pass.  A reconnect starts a fresh server session (a new session
// ε budget); telemetry() counts retries/reconnects for chaos tests.
#ifndef PRIVTREE_SERVER_CLIENT_H_
#define PRIVTREE_SERVER_CLIENT_H_

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "dp/status.h"
#include "server/protocol.h"
#include "server/request.h"
#include "server/socket.h"
#include "spatial/box.h"

namespace privtree::server {

struct ClientOptions {
  /// Bounds the TCP connect and the Hello reply read; 0 disables (never
  /// recommended — a half-open server then hangs the caller forever).
  std::int64_t connect_timeout_millis = 5000;
  /// Bounds every reply-frame read after the handshake; 0 = no bound
  /// (the default: fits of large datasets legitimately take a while).
  std::int64_t read_timeout_millis = 0;
  /// Total tries per call (and per Connect); 1 = fail fast, no retries.
  int max_attempts = 1;
  /// Exponential backoff between retries: base * 2^attempt, capped.  A
  /// served retry-after hint overrides the computed backoff when larger.
  std::int64_t base_backoff_millis = 10;
  std::int64_t max_backoff_millis = 2000;
  /// Wall-clock budget across one call's attempts (dial + sends + waits);
  /// when the next backoff would overrun it, the last error surfaces.
  std::int64_t retry_budget_millis = 15000;
  /// Seeds the deterministic backoff jitter.
  std::uint64_t backoff_seed = 1;
};

class Client {
 public:
  struct Telemetry {
    /// Actual resends of a request payload: bumped exactly once per extra
    /// send, never for a failed reconnect that sent nothing (a chaos run
    /// summing retries across clients gets the true resend count).
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;  ///< Successful re-dials mid-call.
  };

  /// Dials `host`:`port` and handshakes; IOError when nothing is
  /// listening, DeadlineExceeded on a connect/Hello timeout,
  /// InvalidArgument on a protocol-version mismatch.  With
  /// options.max_attempts > 1, failed dials retry with backoff.
  static Result<Client> Connect(const std::string& host, std::uint16_t port,
                                ClientOptions options = {});

  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;

  /// The server's Hello description of the served datasets (the default
  /// tenant's shape, the full tenant table, and this session's budget).
  const HelloReply& info() const { return info_; }

  /// Routes subsequent Fit/QueryBatch/SeqQueryBatch/Warm calls at the
  /// tenant with this fingerprint (see info().datasets); 0 restores the
  /// server default.  An unknown fingerprint answers NotFound per call.
  void SelectDataset(std::uint64_t fingerprint) { dataset_ = fingerprint; }
  std::uint64_t selected_dataset() const { return dataset_; }

  /// Uploads a dataset for this server to host (protocol v3) and returns
  /// its fingerprint; registration is idempotent by content.  Does not
  /// auto-select the new tenant.
  Result<RegisterDatasetReply> RegisterDataset(
      const RegisterDatasetRequest& request);

  /// Fits (or re-serves) the spec'd release; `deadline_millis` 0 = none.
  Result<FitReply> Fit(const FitSpec& spec, std::int64_t deadline_millis = 0);

  /// Answers `queries` against the spec'd release, one double per box
  /// (spatial servers; a sequence server answers with InvalidArgument).
  Result<std::vector<double>> QueryBatch(const FitSpec& spec,
                                         std::span<const Box> queries,
                                         std::int64_t deadline_millis = 0);

  /// Sequence counterpart: one double per SequenceQuery spec (check
  /// info().kind to pick the right frame).
  Result<std::vector<double>> SeqQueryBatch(
      const FitSpec& spec, std::span<const release::SequenceQuery> queries,
      std::int64_t deadline_millis = 0);

  /// Requests background cache warming; returns how many specs the
  /// server's admission control accepted.
  Result<std::uint64_t> Warm(std::span<const FitSpec> specs);

  /// The server's observability snapshot (protocol v5 GetStats): the whole
  /// metrics registry as one JSON object, plus trace-ring and fault-point
  /// sections.  See obs::ProcessStatsJson for the schema.
  Result<std::string> GetStatsJson();

  /// Wraps every subsequent request in a Traced frame (protocol v5)
  /// carrying sequential ids starting at `first_id` (0 is skipped — it
  /// means "absent" on the wire).  Replies are byte-identical either way;
  /// the id only labels the request in the server's trace ring and slow
  /// log.  The Hello handshake is never wrapped.
  void EnableTraceIds(std::uint64_t first_id = 1) {
    next_trace_id_ = first_id == 0 ? 1 : first_id;
    trace_ids_enabled_ = true;
  }

  /// Asks the server process to stop its loop (it still drains in-flight
  /// work before exiting).  Never retried: a lost reply leaves the
  /// server's fate unknown, and resending could kill a fresh server.
  Status Shutdown();

  const Telemetry& telemetry() const { return telemetry_; }

 private:
  Client(Connection conn, HelloReply info, std::string host,
         std::uint16_t port, ClientOptions options);

  /// One dial + Hello handshake with the connect timeout applied.
  static Result<Connection> DialAndHello(const std::string& host,
                                         std::uint16_t port,
                                         const ClientOptions& options,
                                         HelloReply* info);

  /// Sends `payload`, receives one reply frame, and unwraps ErrorReply
  /// into its carried Status.  When `idempotent` and attempts remain in
  /// the retry budget, transport failures reconnect + resend and served
  /// Unavailable replies back off (honoring retry-after) + resend.
  Result<std::string> RoundTrip(const std::string& payload, bool idempotent);

  /// One send + recv + ErrorReply unwrap, no retries.  `*transport` is set
  /// when the failure was the connection itself (send/recv/framing) rather
  /// than a Status the server answered with.
  Result<std::string> RoundTripOnce(const std::string& payload,
                                    bool* transport);

  /// The next backoff in a retry sequence: exponential with deterministic
  /// jitter, at least `floor_millis` (the server's retry-after hint).
  std::int64_t BackoffMillis(int attempt, std::int64_t floor_millis);

  Connection conn_;
  HelloReply info_;
  std::string host_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  Telemetry telemetry_;
  std::minstd_rand jitter_;
  std::uint64_t dataset_ = 0;  ///< Selected tenant; 0 = server default.
  bool trace_ids_enabled_ = false;
  std::uint64_t next_trace_id_ = 1;
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_CLIENT_H_
