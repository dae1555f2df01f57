#include "server/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/export.h"
#include "release/registry.h"
#include "server/request.h"

namespace privtree::server {

namespace {

/// Runs `encode` and charges its duration to the trace's serialize span.
template <typename EncodeFn>
std::string EncodeWithSpan(const obs::TracePtr& trace, EncodeFn&& encode) {
  if (!trace) return encode();
  const auto start = std::chrono::steady_clock::now();
  std::string reply = encode();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  trace->Record(obs::Span::kSerialize, us < 0 ? 0 : us);
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

/// Validates the spec, charges the session, and hands back the charge
/// bookkeeping the completion callback needs; a non-OK outcome already
/// answered `done`.  Validation must precede KeyFor — canonicalizing the
/// options of an unregistered method is a contract violation.
struct BudgetTicket {
  bool ok = false;
  bool charged = false;
  serve::SynopsisKey key;
};

BudgetTicket ChargeOrRefuse(AsyncEngine& engine, const FitSpec& spec,
                            const std::shared_ptr<ClientSession>& session,
                            const Dispatcher::Done& done) {
  if (Status valid = engine.ValidateSpec(spec); !valid.ok()) {
    done(EncodeErrorReply(valid));
    return {};
  }
  BudgetTicket ticket;
  ticket.key = engine.KeyFor(spec);
  const ClientSession::ChargeOutcome outcome =
      session->Charge(ticket.key, spec.epsilon);
  if (!outcome.status.ok()) {
    done(EncodeErrorReply(outcome.status));
    return {};
  }
  ticket.ok = true;
  ticket.charged = outcome.charged;
  return ticket;
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

    case MessageType::kFit: {
      FitRequest request;
      if (Status s = DecodeFit(payload, &request); !s.ok()) {
        done(EncodeErrorReply(s));
        return;
      }
      AsyncEngine* engine =
          FindEngine(registry_, request.dataset_fingerprint, done);
      if (engine == nullptr) return;
      const BudgetTicket ticket =
          ChargeOrRefuse(*engine, request.spec, session, done);
      if (!ticket.ok) return;
      const double epsilon = request.spec.epsilon;
      engine
          ->SubmitFit(request.spec,
                      DeadlineFromMillis(request.deadline_millis), trace)
          .OnReady([done = std::move(done), session, ticket, epsilon,
                    trace](const FitResponse& response) {
            if (!response.status.ok()) {
              if (ticket.charged) session->Refund(ticket.key, epsilon);
              done(EncodeErrorReply(response.status));
              return;
            }
            done(EncodeWithSpan(trace, [&] {
              return EncodeFitReply({response.metadata, response.cache_hit});
            }));
          });
      return;
    }

    case MessageType::kQueryBatch: {
      QueryBatchRequest request;
      if (Status s = DecodeQueryBatch(payload, &request); !s.ok()) {
        done(EncodeErrorReply(s));
        return;
      }
      AsyncEngine* engine =
          FindEngine(registry_, request.dataset_fingerprint, done);
      if (engine == nullptr) return;
      const BudgetTicket ticket =
          ChargeOrRefuse(*engine, request.spec, session, done);
      if (!ticket.ok) return;
      const double epsilon = request.spec.epsilon;
      engine
          ->SubmitQueryBatch(request.spec, std::move(request.queries),
                             DeadlineFromMillis(request.deadline_millis),
                             trace)
          .OnReady([done = std::move(done), session, ticket, epsilon,
                    trace](const QueryBatchResponse& response) {
            if (!response.status.ok()) {
              if (ticket.charged) session->Refund(ticket.key, epsilon);
              done(EncodeErrorReply(response.status));
              return;
            }
            done(EncodeWithSpan(trace, [&] {
              return EncodeQueryBatchReply(
                  {response.answers, response.cache_hit});
            }));
          });
      return;
    }

    case MessageType::kSeqQueryBatch: {
      SeqQueryBatchRequest request;
      if (Status s = DecodeSeqQueryBatch(payload, &request); !s.ok()) {
        done(EncodeErrorReply(s));
        return;
      }
      AsyncEngine* engine =
          FindEngine(registry_, request.dataset_fingerprint, done);
      if (engine == nullptr) return;
      const BudgetTicket ticket =
          ChargeOrRefuse(*engine, request.spec, session, done);
      if (!ticket.ok) return;
      const double epsilon = request.spec.epsilon;
      engine
          ->SubmitSeqQueryBatch(request.spec, std::move(request.queries),
                                DeadlineFromMillis(request.deadline_millis),
                                trace)
          .OnReady([done = std::move(done), session, ticket, epsilon,
                    trace](const QueryBatchResponse& response) {
            if (!response.status.ok()) {
              if (ticket.charged) session->Refund(ticket.key, epsilon);
              done(EncodeErrorReply(response.status));
              return;
            }
            done(EncodeWithSpan(trace, [&] {
              return EncodeQueryBatchReply(
                  {response.answers, response.cache_hit});
            }));
          });
      return;
    }

    case MessageType::kWarm:
      done(HandleWarm(payload));
      return;

    case MessageType::kStats:
      done(HandleStats());
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

std::string Dispatcher::HandleStats() const {
  // Queue and admission tallies sum over every tenant's engine; the cache
  // is shared, so its counters are taken once (from any engine).
  StatsReply reply;
  bool have_cache = false;
  for (const DatasetInfo& info : registry_.List()) {
    AsyncEngine* engine = registry_.Find(info.fingerprint);
    if (engine == nullptr) continue;
    const AsyncEngine::StatsSnapshot snapshot = engine->Stats();
    reply.queue_depth += snapshot.queue_depth;
    reply.queue_max_depth =
        std::max<std::uint64_t>(reply.queue_max_depth,
                                snapshot.queue_max_depth);
    reply.admitted += snapshot.admission.admitted;
    reply.shed_queue_full += snapshot.admission.shed_queue_full;
    reply.shed_cache_saturated += snapshot.admission.shed_cache_saturated;
    reply.expired += snapshot.admission.expired;
    reply.coalesced_fits += snapshot.admission.coalesced_fits;
    if (!have_cache) {
      have_cache = true;
      reply.cache_hits = snapshot.cache.hits;
      reply.cache_misses = snapshot.cache.misses;
      reply.cache_evictions = snapshot.cache.evictions;
      reply.spill_writes = snapshot.cache.spill_writes;
      reply.spill_pending = snapshot.cache.spill_pending;
      reply.writeback_hits = snapshot.cache.writeback_hits;
    }
  }
  return EncodeStatsReply(reply);
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
