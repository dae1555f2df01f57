#include "server/dispatcher.h"

#include <chrono>
#include <optional>
#include <type_traits>
#include <utility>

#include "obs/export.h"
#include "obs/metrics.h"
#include "release/registry.h"
#include "server/request.h"

namespace privtree::server {

namespace {

/// Runs `encode` and charges its duration to the serialize histogram and
/// to the trace's serialize span.
template <typename EncodeFn>
std::string EncodeWithSpan(const obs::TracePtr& trace, EncodeFn&& encode) {
  static obs::Histogram& serialize_us =
      obs::Registry::Global().GetHistogram("server.serialize_us");
  const auto start = std::chrono::steady_clock::now();
  std::string reply = encode();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const std::int64_t us = elapsed < 0 ? 0 : elapsed;
  serialize_us.Observe(static_cast<std::uint64_t>(us));
  if (trace) trace->Record(obs::Span::kSerialize, us);
  return reply;
}

/// Looks up the tenant a request addressed; null already answered `done`.
AsyncEngine* FindEngine(const DatasetRegistry& registry,
                        std::uint64_t fingerprint,
                        const Dispatcher::Done& done) {
  AsyncEngine* engine = registry.Find(fingerprint);
  if (engine == nullptr) {
    done(EncodeErrorReply(Status::NotFound(
        fingerprint == 0
            ? "no dataset is registered"
            : "no dataset with fingerprint " + std::to_string(fingerprint))));
  }
  return engine;
}

std::string EncodeReply(const FitResponse& response) {
  return EncodeFitReply({response.metadata, response.cache_hit});
}

std::string EncodeReply(const QueryBatchResponse& response) {
  return EncodeQueryBatchReply({response.answers, response.cache_hit});
}

/// The one path of every fit-carrying frame (Fit, QueryBatch,
/// SeqQueryBatch): decode, find the tenant, prepare the spec once, charge
/// the session on its key, submit, refund the charge if the request fails,
/// and encode the reply under the serialize span.  A Fit submits no
/// queries.  This is the one place a session is charged and the one place
/// it is refunded.
template <typename Request>
void ServeFitCarrying(const DatasetRegistry& registry,
                      std::string_view payload,
                      Status (*decode)(std::string_view, Request*),
                      const std::shared_ptr<ClientSession>& session,
                      Dispatcher::Done done, obs::TracePtr trace) {
  Request request;
  if (Status s = decode(payload, &request); !s.ok()) {
    done(EncodeErrorReply(s));
    return;
  }
  AsyncEngine* engine =
      FindEngine(registry, request.dataset_fingerprint, done);
  if (engine == nullptr) return;
  Result<PreparedSpec> prepared = engine->Prepare(std::move(request.spec));
  if (!prepared.ok()) {
    done(EncodeErrorReply(prepared.status()));
    return;
  }
  const double epsilon = prepared.value().spec.epsilon;
  const ClientSession::ChargeOutcome outcome =
      session->Charge(prepared.value().key, epsilon);
  if (!outcome.status.ok()) {
    done(EncodeErrorReply(outcome.status));
    return;
  }
  // Only a request that debited the budget keeps its key for a refund.
  std::optional<serve::SynopsisKey> refund;
  if (outcome.charged) refund = prepared.value().key;
  const DeadlineClock::time_point deadline =
      DeadlineFromMillis(request.deadline_millis);
  auto future = [&] {
    if constexpr (std::is_same_v<Request, FitRequest>) {
      return engine->Submit(std::move(prepared).value(), deadline, trace);
    } else {
      return engine->Submit(std::move(prepared).value(),
                            std::move(request.queries), deadline, trace);
    }
  }();
  future.OnReady([done = std::move(done), session, refund = std::move(refund),
                  epsilon, trace](const auto& response) {
    if (!response.status.ok()) {
      if (refund) session->Refund(*refund, epsilon);
      done(EncodeErrorReply(response.status));
      return;
    }
    done(EncodeWithSpan(trace, [&] { return EncodeReply(response); }));
  });
}

}  // namespace

Dispatcher::Dispatcher(DatasetRegistry& registry, DispatcherOptions options)
    : registry_(registry), options_(options) {}

void Dispatcher::HandleFrame(std::string_view payload,
                             const std::shared_ptr<ClientSession>& session,
                             bool* shutdown, Done done, obs::TracePtr trace) {
  Result<MessageType> type = PeekType(payload);
  if (!type.ok()) {
    done(EncodeErrorReply(type.status()));
    return;
  }

  // Unwrap the optional v5 trace envelope first: the inner frame is
  // dispatched exactly as if it had arrived bare, so wrapping never
  // changes the reply bytes.  DecodeTraced rejects nesting, so one pass
  // suffices.
  if (type.value() == MessageType::kTraced) {
    std::uint64_t trace_id = 0;
    std::string_view inner;
    if (Status s = DecodeTraced(payload, &trace_id, &inner); !s.ok()) {
      done(EncodeErrorReply(s));
      return;
    }
    if (trace) {
      trace->trace_id = trace_id;
      trace->client_supplied_id = true;
    }
    payload = inner;
    type = PeekType(payload);
    if (!type.ok()) {
      done(EncodeErrorReply(type.status()));
      return;
    }
  }

  switch (type.value()) {
    case MessageType::kHello:
      done(HandleHello(payload, *session));
      return;

    case MessageType::kFit:
      ServeFitCarrying(registry_, payload, DecodeFit, session,
                       std::move(done), std::move(trace));
      return;

    case MessageType::kQueryBatch:
      ServeFitCarrying(registry_, payload, DecodeQueryBatch, session,
                       std::move(done), std::move(trace));
      return;

    case MessageType::kSeqQueryBatch:
      ServeFitCarrying(registry_, payload, DecodeSeqQueryBatch, session,
                       std::move(done), std::move(trace));
      return;

    case MessageType::kWarm:
      done(HandleWarm(payload));
      return;

    case MessageType::kGetStats:
      done(EncodeGetStatsReply(obs::ProcessStatsJson()));
      return;

    case MessageType::kRegisterDataset:
      done(HandleRegisterDataset(payload));
      return;

    case MessageType::kShutdown:
      *shutdown = true;
      done(EncodeShutdownReply());
      return;

    default:
      done(EncodeErrorReply(Status::InvalidArgument(
          "unexpected message type " +
          std::to_string(static_cast<std::uint32_t>(type.value())) +
          " (reply tags are server-to-client only)")));
      return;
  }
}

std::string Dispatcher::HandleHello(std::string_view payload,
                                    const ClientSession& session) const {
  HelloRequest request;
  if (Status s = DecodeHello(payload, &request); !s.ok()) {
    return EncodeErrorReply(s);
  }
  if (request.version != kProtocolVersion) {
    return EncodeErrorReply(Status::InvalidArgument(
        "protocol version " + std::to_string(request.version) +
        " unsupported (server speaks " + std::to_string(kProtocolVersion) +
        ")"));
  }
  HelloReply reply;
  reply.version = kProtocolVersion;
  reply.datasets = registry_.List();
  if (!reply.datasets.empty()) {
    const DatasetInfo& fallback = reply.datasets.front();
    reply.kind = fallback.kind;
    reply.dim = fallback.dim;
    reply.point_count = fallback.point_count;
    reply.dataset_fingerprint = fallback.fingerprint;
    // Advertise only what the default tenant can actually fit: a client
    // picking from the list must never draw a kind-mismatch rejection.
    reply.methods = release::GlobalMethodRegistry().Names(fallback.kind);
  }
  reply.budget_total = session.budget_total();
  reply.budget_spent = session.spent();
  return EncodeHelloReply(reply);
}

std::string Dispatcher::HandleWarm(std::string_view payload) const {
  WarmRequest request;
  if (Status s = DecodeWarm(payload, &request); !s.ok()) {
    return EncodeErrorReply(s);
  }
  AsyncEngine* engine = registry_.Find(request.dataset_fingerprint);
  if (engine == nullptr) {
    return EncodeErrorReply(
        Status::NotFound("no dataset with fingerprint " +
                         std::to_string(request.dataset_fingerprint)));
  }
  return EncodeWarmReply({engine->Warm(request.specs)});
}

std::string Dispatcher::HandleRegisterDataset(
    std::string_view payload) const {
  RegisterDatasetRequest request;
  if (Status s = DecodeRegisterDataset(payload, &request); !s.ok()) {
    return EncodeErrorReply(s);
  }
  if (!options_.allow_uploads) {
    return EncodeErrorReply(Status::InvalidArgument(
        "this server does not accept dataset uploads"));
  }
  Result<std::uint64_t> registered = Status::Internal("unreachable");
  std::uint64_t count = 0;
  if (request.kind == release::DatasetKind::kSpatial) {
    PointSet points(request.dim, std::move(request.coords));
    count = points.size();
    registered = registry_.Register(
        std::move(request.name), std::move(points),
        Box(request.domain_lo, request.domain_hi));
  } else {
    SequenceDataset sequences(request.dim);
    for (const std::vector<Symbol>& row : request.sequences) {
      sequences.Add(row);
    }
    count = sequences.size();
    registered = registry_.Register(std::move(request.name),
                                    std::move(sequences));
  }
  if (!registered.ok()) return EncodeErrorReply(registered.status());
  return EncodeRegisterDatasetReply({registered.value(), count});
}

}  // namespace privtree::server
