#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace privtree::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Registry mirrors of Telemetry, summed across every Client in the
/// process (bench worker threads each own a Client; GetStats sees the
/// fleet total).
struct ClientCounters {
  obs::Counter& retries =
      obs::Registry::Global().GetCounter("client.retries");
  obs::Counter& reconnects =
      obs::Registry::Global().GetCounter("client.reconnects");
};

ClientCounters& Counters() {
  static ClientCounters* counters = new ClientCounters();
  return *counters;
}

/// Failures that mean "this connection is gone; a reconnect may succeed":
/// resets and torn frames (IOError), a clean close between frames
/// (NotFound eof), and a read that outlived its socket timeout.
bool IsTransportError(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kNotFound ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

Client::Client(Connection conn, HelloReply info, std::string host,
               std::uint16_t port, ClientOptions options)
    : conn_(std::move(conn)),
      info_(std::move(info)),
      host_(std::move(host)),
      port_(port),
      options_(options),
      jitter_(static_cast<std::uint32_t>(options.backoff_seed | 1)) {}

Result<Connection> Client::DialAndHello(const std::string& host,
                                        std::uint16_t port,
                                        const ClientOptions& options,
                                        HelloReply* info) {
  Result<Connection> dialed =
      Connection::Dial(host, port, options.connect_timeout_millis);
  if (!dialed.ok()) return dialed.status();
  Connection conn = std::move(dialed).value();

  // The handshake read is bounded by the connect timeout: a server that
  // accepts but never speaks (half-open, wedged) must not hang Connect.
  if (options.connect_timeout_millis > 0) {
    if (Status s = conn.SetRecvTimeout(options.connect_timeout_millis);
        !s.ok()) {
      return s;
    }
  }
  if (Status sent = conn.SendFrame(EncodeHello(HelloRequest{})); !sent.ok()) {
    return sent;
  }
  Result<std::string> frame = conn.RecvFrame();
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      return Status::DeadlineExceeded(
          "no Hello reply within " +
          std::to_string(options.connect_timeout_millis) + "ms");
    }
    return frame.status();
  }
  const Result<MessageType> type = PeekType(frame.value());
  if (!type.ok()) return type.status();
  if (type.value() == MessageType::kErrorReply) {
    Status carried;
    if (Status s = DecodeErrorReply(frame.value(), &carried); !s.ok()) {
      return s;
    }
    return carried;
  }
  if (Status s = DecodeHelloReply(frame.value(), info); !s.ok()) return s;
  if (info->version != kProtocolVersion) {
    return Status::InvalidArgument(
        "server speaks protocol version " + std::to_string(info->version) +
        ", client speaks " + std::to_string(kProtocolVersion));
  }
  // Steady-state reads use the per-call bound (0 = unbounded fits).
  if (Status s = conn.SetRecvTimeout(options.read_timeout_millis); !s.ok()) {
    return s;
  }
  return conn;
}

Result<Client> Client::Connect(const std::string& host, std::uint16_t port,
                               ClientOptions options) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(options.retry_budget_millis);
  std::minstd_rand jitter(
      static_cast<std::uint32_t>(options.backoff_seed | 1));
  Status last = Status::IOError("connect never attempted");
  const int attempts = std::max(1, options.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    HelloReply info;
    Result<Connection> conn = DialAndHello(host, port, options, &info);
    if (conn.ok()) {
      return Client(std::move(conn).value(), std::move(info), host, port,
                    options);
    }
    last = conn.status();
    // A version mismatch or malformed Hello will not heal on retry; a
    // refused/timed-out dial or a draining server (Unavailable) might.
    if (!IsTransportError(last) &&
        last.code() != StatusCode::kUnavailable) {
      break;
    }
    if (attempt + 1 >= attempts) break;
    std::int64_t backoff =
        std::min(options.max_backoff_millis,
                 options.base_backoff_millis << std::min(attempt, 20));
    backoff = backoff / 2 + static_cast<std::int64_t>(
                                jitter() % (static_cast<std::uint32_t>(
                                                std::max<std::int64_t>(
                                                    1, backoff / 2 + 1))));
    if (Clock::now() + std::chrono::milliseconds(backoff) > give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
  return last;
}

std::int64_t Client::BackoffMillis(int attempt, std::int64_t floor_millis) {
  std::int64_t backoff =
      std::min(options_.max_backoff_millis,
               options_.base_backoff_millis << std::min(attempt, 20));
  // Deterministic jitter in [backoff/2, backoff]: spreads synchronized
  // retry herds without making chaos runs irreproducible.
  backoff = backoff / 2 +
            static_cast<std::int64_t>(
                jitter_() % (static_cast<std::uint32_t>(
                                 std::max<std::int64_t>(1, backoff / 2 + 1))));
  return std::max(backoff, floor_millis);
}

Result<std::string> Client::RoundTripOnce(const std::string& payload,
                                          bool* transport) {
  *transport = true;
  if (Status sent = conn_.SendFrame(payload); !sent.ok()) return sent;
  Result<std::string> frame = conn_.RecvFrame();
  if (!frame.ok()) return frame.status();
  const Result<MessageType> type = PeekType(frame.value());
  if (!type.ok()) return type.status();
  if (type.value() == MessageType::kErrorReply) {
    Status carried;
    if (Status s = DecodeErrorReply(frame.value(), &carried); !s.ok()) {
      return s;
    }
    *transport = false;  // The server answered; the connection is fine.
    return carried;
  }
  *transport = false;
  return frame;
}

Result<std::string> Client::RoundTrip(const std::string& payload,
                                      bool idempotent) {
  // A trace-id wrapper never changes the reply bytes (the server unwraps
  // transparently); resends reuse the same id so the server's trace ring
  // can correlate them.
  const std::string* wire = &payload;
  std::string wrapped;
  if (trace_ids_enabled_) {
    if (next_trace_id_ == 0) next_trace_id_ = 1;  // 0 means "absent".
    wrapped = EncodeTraced(next_trace_id_++, payload);
    wire = &wrapped;
  }
  const int attempts = std::max(1, options_.max_attempts);
  const Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(options_.retry_budget_millis);
  Result<std::string> result = Status::Internal("round trip never attempted");
  bool sent_before = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (!conn_.ok()) {
      // The previous attempt tore the connection down; re-dial before the
      // resend.  A failed reconnect consumes this attempt but sends
      // nothing, so it is not a retry.
      HelloReply info;
      Result<Connection> conn =
          DialAndHello(host_, port_, options_, &info);
      if (conn.ok()) {
        conn_ = std::move(conn).value();
        info_ = std::move(info);
        ++telemetry_.reconnects;
        Counters().reconnects.Inc();
      } else {
        result = conn.status();
        if (!idempotent || !IsTransportError(conn.status())) return result;
        const std::int64_t backoff = BackoffMillis(attempt, 0);
        if (attempt + 1 >= attempts ||
            Clock::now() + std::chrono::milliseconds(backoff) > give_up) {
          return result;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        continue;
      }
    }
    // Every send after the first is the retry; count it exactly here so
    // telemetry matches the number of frames the server may have seen.
    if (sent_before) {
      ++telemetry_.retries;
      Counters().retries.Inc();
    }
    sent_before = true;
    bool transport = false;
    result = RoundTripOnce(*wire, &transport);
    if (result.ok()) return result;
    const Status& failure = result.status();

    std::int64_t floor_millis = 0;
    if (transport) {
      // The stream may be desynchronized (torn frame, timed-out read);
      // never reuse it.  Only an idempotent frame may be resent — the
      // server might have executed the lost request.
      conn_.Close();
      if (!idempotent) return result;
    } else if (failure.code() == StatusCode::kUnavailable ||
               failure.code() == StatusCode::kDeadlineExceeded) {
      // Shed load or a queue-expired deadline: the connection is fine, the
      // server is just busy.  Pace the resend with its retry-after hint
      // when it sent one.
      floor_millis =
          static_cast<std::int64_t>(failure.retry_after_millis());
      if (!idempotent) return result;
    } else {
      return result;  // InvalidArgument, NotFound, ...: retrying cannot help.
    }
    const std::int64_t backoff = BackoffMillis(attempt, floor_millis);
    if (attempt + 1 >= attempts ||
        Clock::now() + std::chrono::milliseconds(backoff) > give_up) {
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
  return result;
}

Result<FitReply> Client::Fit(const FitSpec& spec,
                             std::int64_t deadline_millis) {
  Result<std::string> frame =
      RoundTrip(EncodeFit(FitRequest{spec, deadline_millis, dataset_}),
                /*idempotent=*/true);
  if (!frame.ok()) return frame.status();
  FitReply reply;
  if (Status s = DecodeFitReply(frame.value(), &reply); !s.ok()) return s;
  return reply;
}

Result<std::vector<double>> Client::QueryBatch(const FitSpec& spec,
                                               std::span<const Box> queries,
                                               std::int64_t deadline_millis) {
  // The wire format declares one dim for the whole batch; a mixed-dim span
  // would mis-encode into wrong-but-well-formed boxes (silently wrong
  // answers), so refuse it here.
  for (const Box& q : queries) {
    if (q.dim() != queries.front().dim()) {
      return Status::InvalidArgument(
          "query batch mixes dimensionalities (" +
          std::to_string(queries.front().dim()) + " and " +
          std::to_string(q.dim()) + ")");
    }
  }
  QueryBatchRequest request;
  request.spec = spec;
  request.deadline_millis = deadline_millis;
  request.dataset_fingerprint = dataset_;
  request.queries.assign(queries.begin(), queries.end());
  Result<std::string> frame =
      RoundTrip(EncodeQueryBatch(request), /*idempotent=*/true);
  if (!frame.ok()) return frame.status();
  QueryBatchReply reply;
  if (Status s = DecodeQueryBatchReply(frame.value(), &reply); !s.ok()) {
    return s;
  }
  if (reply.answers.size() != queries.size()) {
    return Status::Internal("server answered " +
                            std::to_string(reply.answers.size()) + " of " +
                            std::to_string(queries.size()) + " queries");
  }
  return std::move(reply.answers);
}

Result<std::vector<double>> Client::SeqQueryBatch(
    const FitSpec& spec, std::span<const release::SequenceQuery> queries,
    std::int64_t deadline_millis) {
  SeqQueryBatchRequest request;
  request.spec = spec;
  request.deadline_millis = deadline_millis;
  request.dataset_fingerprint = dataset_;
  request.queries.assign(queries.begin(), queries.end());
  Result<std::string> frame =
      RoundTrip(EncodeSeqQueryBatch(request), /*idempotent=*/true);
  if (!frame.ok()) return frame.status();
  QueryBatchReply reply;
  if (Status s = DecodeQueryBatchReply(frame.value(), &reply); !s.ok()) {
    return s;
  }
  if (reply.answers.size() != queries.size()) {
    return Status::Internal("server answered " +
                            std::to_string(reply.answers.size()) + " of " +
                            std::to_string(queries.size()) + " queries");
  }
  return std::move(reply.answers);
}

Result<std::uint64_t> Client::Warm(std::span<const FitSpec> specs) {
  WarmRequest request;
  request.dataset_fingerprint = dataset_;
  request.specs.assign(specs.begin(), specs.end());
  Result<std::string> frame =
      RoundTrip(EncodeWarm(request), /*idempotent=*/true);
  if (!frame.ok()) return frame.status();
  WarmReply reply;
  if (Status s = DecodeWarmReply(frame.value(), &reply); !s.ok()) return s;
  return reply.accepted;
}

Result<RegisterDatasetReply> Client::RegisterDataset(
    const RegisterDatasetRequest& request) {
  Result<std::string> frame =
      RoundTrip(EncodeRegisterDataset(request), /*idempotent=*/true);
  if (!frame.ok()) return frame.status();
  RegisterDatasetReply reply;
  if (Status s = DecodeRegisterDatasetReply(frame.value(), &reply);
      !s.ok()) {
    return s;
  }
  return reply;
}

Result<std::string> Client::GetStatsJson() {
  Result<std::string> frame =
      RoundTrip(EncodeGetStats(), /*idempotent=*/true);
  if (!frame.ok()) return frame.status();
  std::string json;
  if (Status s = DecodeGetStatsReply(frame.value(), &json); !s.ok()) {
    return s;
  }
  return json;
}

Status Client::Shutdown() {
  Result<std::string> frame =
      RoundTrip(EncodeShutdown(), /*idempotent=*/false);
  if (!frame.ok()) return frame.status();
  const Result<MessageType> type = PeekType(frame.value());
  if (!type.ok()) return type.status();
  if (type.value() != MessageType::kShutdownReply) {
    return Status::Internal("unexpected reply to Shutdown");
  }
  return Status::OK();
}

}  // namespace privtree::server
