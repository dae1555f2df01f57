#include "server/protocol.h"

#include <cmath>
#include <utility>

#include "core/byteio.h"
#include "release/options.h"
#include "seq/sequence.h"

namespace privtree::server {

namespace {

void PutTag(ByteWriter& w, MessageType type) {
  w.U32(static_cast<std::uint32_t>(type));
}

/// Consumes and checks the tag; false on underflow or a different tag.
bool TakeTag(ByteReader& r, MessageType want) {
  std::uint32_t tag = 0;
  return r.U32(&tag) && tag == static_cast<std::uint32_t>(want);
}

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed " + std::string(what) +
                                 " message");
}

/// The decoder epilogue: every body must be consumed exactly.
Status Finish(const ByteReader& r, std::string_view what) {
  if (r.failed() || !r.AtEnd()) return Malformed(what);
  return Status::OK();
}

void PutSpec(ByteWriter& w, const FitSpec& spec) {
  w.Str(spec.method);
  w.Str(spec.options.ToString());
  w.F64(spec.epsilon);
  w.U64(spec.seed);
}

/// Consumes one FitSpec.  A non-finite ε is malformed, as a non-finite
/// coordinate is: it is refused here, so a frame of specs (Warm) that
/// carries one is refused whole rather than skipped over.
bool TakeSpec(ByteReader& r, FitSpec* spec) {
  std::string options_text;
  if (!r.Str(&spec->method) || !r.Str(&options_text) ||
      !r.F64(&spec->epsilon) || !std::isfinite(spec->epsilon) ||
      !r.U64(&spec->seed)) {
    return false;
  }
  std::string error;
  return release::MethodOptions::TryParse(options_text, &spec->options,
                                          &error);
}

}  // namespace

Result<MessageType> PeekType(std::string_view payload) {
  ByteReader r(payload);
  std::uint32_t tag = 0;
  if (!r.U32(&tag)) return Malformed("frame");
  switch (static_cast<MessageType>(tag)) {
    case MessageType::kHello:
    case MessageType::kFit:
    case MessageType::kQueryBatch:
    case MessageType::kSeqQueryBatch:
    case MessageType::kWarm:
    case MessageType::kShutdown:
    case MessageType::kRegisterDataset:
    case MessageType::kTraced:
    case MessageType::kGetStats:
    case MessageType::kHelloReply:
    case MessageType::kFitReply:
    case MessageType::kQueryBatchReply:
    case MessageType::kWarmReply:
    case MessageType::kShutdownReply:
    case MessageType::kRegisterDatasetReply:
    case MessageType::kGetStatsReply:
    case MessageType::kErrorReply:
      return static_cast<MessageType>(tag);
  }
  return Status::InvalidArgument("unknown message type " +
                                 std::to_string(tag));
}

std::string EncodeHello(const HelloRequest& request) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kHello);
  w.U32(request.version);
  return out;
}

Status DecodeHello(std::string_view payload, HelloRequest* out) {
  ByteReader r(payload);
  if (!TakeTag(r, MessageType::kHello) || !r.U32(&out->version)) {
    return Malformed("Hello");
  }
  return Finish(r, "Hello");
}

std::string EncodeHelloReply(const HelloReply& reply) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kHelloReply);
  w.U32(reply.version);
  w.U32(static_cast<std::uint32_t>(reply.kind));
  w.U64(reply.dim);
  w.U64(reply.point_count);
  w.U64(reply.dataset_fingerprint);
  w.U64(reply.methods.size());
  for (const std::string& method : reply.methods) w.Str(method);
  w.F64(reply.budget_total);
  w.F64(reply.budget_spent);
  w.U64(reply.datasets.size());
  for (const DatasetInfo& dataset : reply.datasets) {
    w.Str(dataset.name);
    w.U32(static_cast<std::uint32_t>(dataset.kind));
    w.U64(dataset.dim);
    w.U64(dataset.point_count);
    w.U64(dataset.fingerprint);
  }
  return out;
}

Status DecodeHelloReply(std::string_view payload, HelloReply* out) {
  ByteReader r(payload);
  std::uint64_t count = 0;
  std::uint32_t kind = 0;
  if (!TakeTag(r, MessageType::kHelloReply) || !r.U32(&out->version) ||
      !r.U32(&kind) || kind > 1 || !r.U64(&out->dim) ||
      !r.U64(&out->point_count) || !r.U64(&out->dataset_fingerprint) ||
      !r.U64(&count) ||
      count > r.remaining()) {  // ≥1 byte per entry: bounds the alloc.
    return Malformed("HelloReply");
  }
  out->kind = static_cast<release::DatasetKind>(kind);
  out->methods.clear();
  out->methods.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string method;
    if (!r.Str(&method)) return Malformed("HelloReply");
    out->methods.push_back(std::move(method));
  }
  std::uint64_t dataset_count = 0;
  if (!r.F64(&out->budget_total) || !r.F64(&out->budget_spent) ||
      !r.U64(&dataset_count) ||
      // ≥32 bytes per dataset entry: bounds the allocation.
      dataset_count > r.remaining() / 32) {
    return Malformed("HelloReply");
  }
  out->datasets.clear();
  out->datasets.reserve(dataset_count);
  for (std::uint64_t i = 0; i < dataset_count; ++i) {
    DatasetInfo dataset;
    std::uint32_t dataset_kind = 0;
    if (!r.Str(&dataset.name) || !r.U32(&dataset_kind) || dataset_kind > 1 ||
        !r.U64(&dataset.dim) || !r.U64(&dataset.point_count) ||
        !r.U64(&dataset.fingerprint)) {
      return Malformed("HelloReply");
    }
    dataset.kind = static_cast<release::DatasetKind>(dataset_kind);
    out->datasets.push_back(std::move(dataset));
  }
  return Finish(r, "HelloReply");
}

std::string EncodeFit(const FitRequest& request) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kFit);
  PutSpec(w, request.spec);
  w.I64(request.deadline_millis);
  w.U64(request.dataset_fingerprint);
  return out;
}

Status DecodeFit(std::string_view payload, FitRequest* out) {
  ByteReader r(payload);
  if (!TakeTag(r, MessageType::kFit) || !TakeSpec(r, &out->spec) ||
      !r.I64(&out->deadline_millis) || !r.U64(&out->dataset_fingerprint)) {
    return Malformed("Fit");
  }
  return Finish(r, "Fit");
}

std::string EncodeFitReply(const FitReply& reply) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kFitReply);
  w.Str(reply.metadata.method);
  w.U64(reply.metadata.dim);
  w.F64(reply.metadata.epsilon_spent);
  w.U64(reply.metadata.synopsis_size);
  w.I32(reply.metadata.height);
  w.U32(reply.cache_hit ? 1 : 0);
  return out;
}

Status DecodeFitReply(std::string_view payload, FitReply* out) {
  ByteReader r(payload);
  std::uint64_t dim = 0, size = 0;
  std::uint32_t hit = 0;
  if (!TakeTag(r, MessageType::kFitReply) || !r.Str(&out->metadata.method) ||
      !r.U64(&dim) || !r.F64(&out->metadata.epsilon_spent) || !r.U64(&size) ||
      !r.I32(&out->metadata.height) || !r.U32(&hit) || hit > 1) {
    return Malformed("FitReply");
  }
  out->metadata.dim = static_cast<std::size_t>(dim);
  out->metadata.synopsis_size = static_cast<std::size_t>(size);
  out->cache_hit = hit == 1;
  return Finish(r, "FitReply");
}

std::string EncodeQueryBatch(const QueryBatchRequest& request) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kQueryBatch);
  PutSpec(w, request.spec);
  w.I64(request.deadline_millis);
  w.U64(request.dataset_fingerprint);
  const std::uint64_t dim =
      request.queries.empty() ? 0 : request.queries.front().dim();
  w.U64(dim);
  w.U64(request.queries.size());
  for (const Box& q : request.queries) {
    for (std::size_t j = 0; j < q.dim(); ++j) {
      w.F64(q.lo(j));
      w.F64(q.hi(j));
    }
  }
  return out;
}

Status DecodeQueryBatch(std::string_view payload, QueryBatchRequest* out) {
  ByteReader r(payload);
  std::uint64_t dim = 0, count = 0;
  if (!TakeTag(r, MessageType::kQueryBatch) || !TakeSpec(r, &out->spec) ||
      !r.I64(&out->deadline_millis) || !r.U64(&out->dataset_fingerprint) ||
      !r.U64(&dim) || !r.U64(&count)) {
    return Malformed("QueryBatch");
  }
  // Bounds the allocations before reading: each box is 16·dim bytes, and
  // `dim` is screened first so 16·dim can neither wrap u64 nor be zero in
  // the divisor below.
  if (count > 0 && (dim == 0 || dim > r.remaining() / 16 ||
                    count > r.remaining() / (16 * dim))) {
    return Malformed("QueryBatch");
  }
  out->queries.clear();
  out->queries.reserve(count);
  std::vector<double> lo(dim), hi(dim);
  for (std::uint64_t i = 0; i < count; ++i) {
    for (std::uint64_t j = 0; j < dim; ++j) {
      if (!r.F64(&lo[j]) || !r.F64(&hi[j])) return Malformed("QueryBatch");
      if (!(lo[j] <= hi[j])) {  // Also rejects NaN bounds.
        return Status::InvalidArgument("query box with lo > hi");
      }
    }
    out->queries.emplace_back(lo, hi);
  }
  return Finish(r, "QueryBatch");
}

std::string EncodeSeqQueryBatch(const SeqQueryBatchRequest& request) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kSeqQueryBatch);
  PutSpec(w, request.spec);
  w.I64(request.deadline_millis);
  w.U64(request.dataset_fingerprint);
  w.U64(request.queries.size());
  for (const release::SequenceQuery& q : request.queries) {
    w.U32(static_cast<std::uint32_t>(q.kind));
    w.U32(q.k);
    w.U32(q.max_len);
    w.U32(static_cast<std::uint32_t>(q.symbols.size()));
    for (const Symbol s : q.symbols) w.U32(s);
  }
  return out;
}

Status DecodeSeqQueryBatch(std::string_view payload,
                           SeqQueryBatchRequest* out) {
  ByteReader r(payload);
  std::uint64_t count = 0;
  if (!TakeTag(r, MessageType::kSeqQueryBatch) || !TakeSpec(r, &out->spec) ||
      !r.I64(&out->deadline_millis) || !r.U64(&out->dataset_fingerprint) ||
      !r.U64(&count) ||
      count > r.remaining() / 16) {  // 16 bytes per symbol-less query.
    return Malformed("SeqQueryBatch");
  }
  out->queries.clear();
  out->queries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    release::SequenceQuery q;
    std::uint32_t kind = 0, symbol_count = 0;
    if (!r.U32(&kind) || !r.U32(&q.k) || !r.U32(&q.max_len) ||
        !r.U32(&symbol_count) || symbol_count > r.remaining() / 4) {
      return Malformed("SeqQueryBatch");
    }
    switch (static_cast<release::SequenceQueryKind>(kind)) {
      case release::SequenceQueryKind::kFrequency:
      case release::SequenceQueryKind::kPrefixCount:
      case release::SequenceQueryKind::kTopK:
        q.kind = static_cast<release::SequenceQueryKind>(kind);
        break;
      default:
        return Status::InvalidArgument("unknown sequence query kind " +
                                       std::to_string(kind));
    }
    q.symbols.reserve(symbol_count);
    for (std::uint32_t j = 0; j < symbol_count; ++j) {
      std::uint32_t symbol = 0;
      // Symbols are 16-bit; a larger wire value is a malformed frame (the
      // alphabet-range screen against the *served* alphabet happens in the
      // engine, with a clean per-request error).
      if (!r.U32(&symbol) || symbol > 0xFFFF) {
        return Malformed("SeqQueryBatch");
      }
      q.symbols.push_back(static_cast<Symbol>(symbol));
    }
    out->queries.push_back(std::move(q));
  }
  return Finish(r, "SeqQueryBatch");
}

std::string EncodeQueryBatchReply(const QueryBatchReply& reply) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kQueryBatchReply);
  w.U32(reply.cache_hit ? 1 : 0);
  w.U64(reply.answers.size());
  w.F64Span(reply.answers);
  return out;
}

Status DecodeQueryBatchReply(std::string_view payload, QueryBatchReply* out) {
  ByteReader r(payload);
  std::uint32_t hit = 0;
  std::uint64_t count = 0;
  if (!TakeTag(r, MessageType::kQueryBatchReply) || !r.U32(&hit) || hit > 1 ||
      !r.U64(&count) || !r.F64Vec(count, &out->answers)) {
    return Malformed("QueryBatchReply");
  }
  out->cache_hit = hit == 1;
  return Finish(r, "QueryBatchReply");
}

std::string EncodeWarm(const WarmRequest& request) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kWarm);
  w.U64(request.dataset_fingerprint);
  w.U64(request.specs.size());
  for (const FitSpec& spec : request.specs) PutSpec(w, spec);
  return out;
}

Status DecodeWarm(std::string_view payload, WarmRequest* out) {
  ByteReader r(payload);
  std::uint64_t count = 0;
  // A spec is at least 24 wire bytes (two length prefixes + f64 + u64);
  // growing the vector as specs actually parse (instead of a count-sized
  // resize) keeps a lying count from forcing a huge allocation.
  if (!TakeTag(r, MessageType::kWarm) || !r.U64(&out->dataset_fingerprint) ||
      !r.U64(&count) || count > r.remaining() / 24) {
    return Malformed("Warm");
  }
  out->specs.clear();
  out->specs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FitSpec spec;
    if (!TakeSpec(r, &spec)) return Malformed("Warm");
    out->specs.push_back(std::move(spec));
  }
  return Finish(r, "Warm");
}

std::string EncodeWarmReply(const WarmReply& reply) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kWarmReply);
  w.U64(reply.accepted);
  return out;
}

Status DecodeWarmReply(std::string_view payload, WarmReply* out) {
  ByteReader r(payload);
  if (!TakeTag(r, MessageType::kWarmReply) || !r.U64(&out->accepted)) {
    return Malformed("WarmReply");
  }
  return Finish(r, "WarmReply");
}

std::string EncodeTraced(std::uint64_t trace_id, std::string_view inner) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kTraced);
  w.U64(trace_id);
  out.append(inner.data(), inner.size());
  return out;
}

Status DecodeTraced(std::string_view payload, std::uint64_t* trace_id,
                    std::string_view* inner) {
  ByteReader r(payload);
  if (!TakeTag(r, MessageType::kTraced) || !r.U64(trace_id)) {
    return Malformed("Traced");
  }
  *inner = payload.substr(payload.size() - r.remaining());
  if (inner->empty()) return Malformed("Traced");
  // One level only: the inner payload must itself be a plain frame.
  Result<MessageType> inner_type = PeekType(*inner);
  if (!inner_type.ok()) return inner_type.status();
  if (inner_type.value() == MessageType::kTraced) return Malformed("Traced");
  return Status::OK();
}

std::string EncodeGetStats() {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kGetStats);
  return out;
}

std::string EncodeGetStatsReply(std::string_view json) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kGetStatsReply);
  w.Str(json);
  return out;
}

Status DecodeGetStatsReply(std::string_view payload, std::string* json) {
  ByteReader r(payload);
  if (!TakeTag(r, MessageType::kGetStatsReply) || !r.Str(json)) {
    return Malformed("GetStatsReply");
  }
  return Finish(r, "GetStatsReply");
}

std::string EncodeShutdown() {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kShutdown);
  return out;
}

std::string EncodeShutdownReply() {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kShutdownReply);
  return out;
}

std::string EncodeRegisterDataset(const RegisterDatasetRequest& request) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kRegisterDataset);
  w.Str(request.name);
  w.U32(static_cast<std::uint32_t>(request.kind));
  w.U64(request.dim);
  if (request.kind == release::DatasetKind::kSpatial) {
    for (std::uint64_t j = 0; j < request.dim; ++j) {
      w.F64(j < request.domain_lo.size() ? request.domain_lo[j] : 0.0);
      w.F64(j < request.domain_hi.size() ? request.domain_hi[j] : 1.0);
    }
    const std::uint64_t count =
        request.dim == 0 ? 0 : request.coords.size() / request.dim;
    w.U64(count);
    for (std::uint64_t i = 0; i < count * request.dim; ++i) {
      w.F64(request.coords[i]);
    }
  } else {
    w.U64(request.sequences.size());
    for (const std::vector<Symbol>& sequence : request.sequences) {
      w.U32(static_cast<std::uint32_t>(sequence.size()));
      for (const Symbol s : sequence) w.U32(s);
    }
  }
  return out;
}

Status DecodeRegisterDataset(std::string_view payload,
                             RegisterDatasetRequest* out) {
  ByteReader r(payload);
  std::uint32_t kind = 0;
  if (!TakeTag(r, MessageType::kRegisterDataset) || !r.Str(&out->name) ||
      !r.U32(&kind) || kind > 1 || !r.U64(&out->dim)) {
    return Malformed("RegisterDataset");
  }
  out->kind = static_cast<release::DatasetKind>(kind);
  out->domain_lo.clear();
  out->domain_hi.clear();
  out->coords.clear();
  out->sequences.clear();
  if (out->kind == release::DatasetKind::kSpatial) {
    // Screen dim before it sizes anything: the spatial pipeline caps out
    // far below 64 axes, and 16·dim must not wrap the divisor below.
    if (out->dim == 0 || out->dim > 64 || out->dim > r.remaining() / 16) {
      return Malformed("RegisterDataset");
    }
    out->domain_lo.resize(out->dim);
    out->domain_hi.resize(out->dim);
    for (std::uint64_t j = 0; j < out->dim; ++j) {
      if (!r.F64(&out->domain_lo[j]) || !r.F64(&out->domain_hi[j])) {
        return Malformed("RegisterDataset");
      }
      // A Box needs finite bounds, and the Morton-indexed trees a positive,
      // finite side.
      const double lo = out->domain_lo[j];
      const double hi = out->domain_hi[j];
      if (!(std::isfinite(lo) && std::isfinite(hi) && lo < hi &&
            std::isfinite(hi - lo))) {
        return Status::InvalidArgument(
            "dataset domain needs finite bounds with lo < hi");
      }
    }
    std::uint64_t count = 0;
    if (!r.U64(&count) || count > r.remaining() / (8 * out->dim)) {
      return Malformed("RegisterDataset");
    }
    out->coords.resize(count * out->dim);
    for (double& coord : out->coords) {
      if (!r.F64(&coord)) return Malformed("RegisterDataset");
      if (!std::isfinite(coord)) {
        return Status::InvalidArgument("non-finite coordinate in dataset");
      }
    }
  } else {
    if (out->dim == 0 || out->dim > kMaxAlphabetSize) {
      return Status::InvalidArgument(
          "alphabet size " + std::to_string(out->dim) +
          " outside [1, " + std::to_string(kMaxAlphabetSize) + "]");
    }
    std::uint64_t count = 0;
    // ≥4 bytes per row (its length prefix) bounds the row allocation.
    if (!r.U64(&count) || count > r.remaining() / 4) {
      return Malformed("RegisterDataset");
    }
    out->sequences.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint32_t length = 0;
      if (!r.U32(&length) || length > r.remaining() / 4) {
        return Malformed("RegisterDataset");
      }
      std::vector<Symbol> sequence;
      sequence.reserve(length);
      for (std::uint32_t j = 0; j < length; ++j) {
        std::uint32_t symbol = 0;
        if (!r.U32(&symbol) || symbol > 0xFFFF) {
          return Malformed("RegisterDataset");
        }
        if (symbol >= out->dim) {
          return Status::InvalidArgument(
              "sequence symbol " + std::to_string(symbol) +
              " outside the declared alphabet of " +
              std::to_string(out->dim));
        }
        sequence.push_back(static_cast<Symbol>(symbol));
      }
      out->sequences.push_back(std::move(sequence));
    }
  }
  return Finish(r, "RegisterDataset");
}

std::string EncodeRegisterDatasetReply(const RegisterDatasetReply& reply) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kRegisterDatasetReply);
  w.U64(reply.fingerprint);
  w.U64(reply.point_count);
  return out;
}

Status DecodeRegisterDatasetReply(std::string_view payload,
                                  RegisterDatasetReply* out) {
  ByteReader r(payload);
  if (!TakeTag(r, MessageType::kRegisterDatasetReply) ||
      !r.U64(&out->fingerprint) || !r.U64(&out->point_count)) {
    return Malformed("RegisterDatasetReply");
  }
  return Finish(r, "RegisterDatasetReply");
}

std::string EncodeErrorReply(const Status& status) {
  std::string out;
  ByteWriter w(&out);
  PutTag(w, MessageType::kErrorReply);
  w.U32(static_cast<std::uint32_t>(status.code()));
  w.Str(status.message());
  w.U64(status.retry_after_millis());
  return out;
}

Status DecodeErrorReply(std::string_view payload, Status* out) {
  ByteReader r(payload);
  std::uint32_t code = 0;
  std::string message;
  std::uint64_t retry_after_millis = 0;
  if (!TakeTag(r, MessageType::kErrorReply) || !r.U32(&code) ||
      !r.Str(&message) || !r.U64(&retry_after_millis)) {
    return Malformed("ErrorReply");
  }
  if (Status finished = Finish(r, "ErrorReply"); !finished.ok()) {
    return finished;
  }
  // Reattach the hint after the code switch rebuilds the Status.
  const auto with_hint = [&](Status carried) {
    *out = std::move(carried).WithRetryAfter(retry_after_millis);
  };
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      // An ErrorReply can never legitimately carry OK; treating it as such
      // would let a misbehaving peer feed an OK Status into Result (which
      // aborts on OK-as-error).
      with_hint(Status::Internal("ErrorReply carried an OK status code: " +
                                 message));
      return Status::OK();
    case StatusCode::kInvalidArgument:
      with_hint(Status::InvalidArgument(std::move(message)));
      return Status::OK();
    case StatusCode::kNotFound:
      with_hint(Status::NotFound(std::move(message)));
      return Status::OK();
    case StatusCode::kIOError:
      with_hint(Status::IOError(std::move(message)));
      return Status::OK();
    case StatusCode::kOutOfRange:
      with_hint(Status::OutOfRange(std::move(message)));
      return Status::OK();
    case StatusCode::kInternal:
      with_hint(Status::Internal(std::move(message)));
      return Status::OK();
    case StatusCode::kUnavailable:
      with_hint(Status::Unavailable(std::move(message)));
      return Status::OK();
    case StatusCode::kDeadlineExceeded:
      with_hint(Status::DeadlineExceeded(std::move(message)));
      return Status::OK();
  }
  with_hint(Status::Internal("unknown wire status code " +
                             std::to_string(code) + ": " + message));
  return Status::OK();
}

}  // namespace privtree::server
