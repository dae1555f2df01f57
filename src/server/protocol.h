// The length-prefixed binary wire protocol of the serving front end.
//
// Transport framing (see server/socket.h): every message travels as one
// frame — a u32 little-endian payload length followed by the payload.  The
// payload itself is a u32 message-type tag followed by a type-specific body
// in the core/byteio encoding (little-endian scalars, u32-length-prefixed
// strings, IEEE-754 binary64 doubles — so query answers cross the wire bit
// for bit).
//
//   payload:
//     u32  message type (MessageType)
//     ...  body
//
// Bodies (requests):
//   Hello            u32 protocol version
//   Fit              FitSpec, i64 deadline millis (0 = none),
//                    u64 dataset fingerprint (0 = server default)
//   QueryBatch       FitSpec, i64 deadline millis, u64 dataset fingerprint,
//                    u64 dim, u64 count, then per box
//                    lo_1 hi_1 ... lo_d hi_d as f64
//   SeqQueryBatch    FitSpec, i64 deadline millis, u64 dataset fingerprint,
//                    u64 count, then per query u32 query kind
//                    (SequenceQueryKind), u32 k, u32 max_len,
//                    u32 symbol count, u32 × count symbols (each < 65536)
//   Warm             u64 dataset fingerprint, u64 count, then count FitSpecs
//   GetStats         (empty; reply is the JSON observability snapshot)
//   Traced           u64 trace id, then one complete inner request payload
//                    (tag + body; nesting Traced inside Traced is rejected)
//   Shutdown         (empty)
//   RegisterDataset  str name, u32 dataset kind, u64 dim (spatial dim or
//                    alphabet size), then
//                      spatial:  dim × (f64 lo, f64 hi) domain bounds,
//                                u64 point count, count·dim × f64 coords
//                      sequence: u64 sequence count, then per sequence
//                                u32 length, length × u32 symbols
//
//   FitSpec :=  str method, str options ("k1=v1,k2=v2"), f64 epsilon,
//               u64 seed
//
// Bodies (replies):
//   HelloReply       u32 version, u32 dataset kind (DatasetKind: 0 spatial,
//                    1 sequence), u64 dim (spatial dim, or the alphabet
//                    size for sequence data), u64 record count (points or
//                    sequences), u64 dataset fingerprint (the *default*
//                    dataset; the table below lists every tenant), u64
//                    method count, str × count, f64 session budget total
//                    (0 = unlimited), f64 session budget spent, u64 dataset
//                    count, then per dataset str name, u32 kind, u64 dim,
//                    u64 record count, u64 fingerprint
//   FitReply         str method, u64 dim, f64 epsilon spent,
//                    u64 synopsis size, i32 height, u32 cache hit (0/1)
//   QueryBatchReply  u32 cache hit, u64 count, f64 × count (also answers
//                    SeqQueryBatch — a sequence batch is one double per
//                    spec, exactly like a box batch)
//   WarmReply        u64 accepted
//   GetStatsReply    str JSON (obs::ProcessStatsJson)
//   RegisterDatasetReply  u64 fingerprint, u64 record count
//   ErrorReply       u32 status code (StatusCode), str message,
//                    u64 retry-after hint in milliseconds (0 = none; set on
//                    Unavailable shed replies so clients pace their backoff)
//
// Every decoder is total: truncation, trailing bytes, a wrong tag, an
// unparsable options string or an inverted box yields a Status error, never
// a crash — the server treats a malformed frame as a client bug and answers
// with ErrorReply.
#ifndef PRIVTREE_SERVER_PROTOCOL_H_
#define PRIVTREE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dp/status.h"
#include "release/dataset.h"
#include "release/method.h"
#include "release/sequence_query.h"
#include "server/request.h"
#include "spatial/box.h"

namespace privtree::server {

/// v2 added the HelloReply dataset-kind field and the SeqQueryBatch frame.
/// v3 added multi-tenant serving: a dataset fingerprint on every
/// fit-carrying request (0 = the server's default dataset), the
/// RegisterDataset upload frame, and per-connection session budget
/// accounting surfaced in HelloReply.
/// v4 added the ErrorReply retry-after hint (u64 milliseconds, 0 = none).
/// v5 added observability: the optional Traced envelope (a u64 trace id
/// wrapped around any request frame) and the GetStats JSON snapshot frame.
/// v6 removed Stats (tags 5 and 105): GetStats is the one stats frame.
/// The server speaks exactly this version: a Hello carrying any other one
/// is refused with InvalidArgument.
inline constexpr std::uint32_t kProtocolVersion = 6;

/// Upper bound on one frame payload (a sanity cap against a garbage length
/// prefix, not a protocol limit).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class MessageType : std::uint32_t {
  kHello = 1,
  kFit = 2,
  kQueryBatch = 3,
  kWarm = 4,
  kShutdown = 6,
  kSeqQueryBatch = 7,
  kRegisterDataset = 8,
  kTraced = 9,
  kGetStats = 10,
  kHelloReply = 101,
  kFitReply = 102,
  kQueryBatchReply = 103,
  kWarmReply = 104,
  kShutdownReply = 106,
  kRegisterDatasetReply = 107,
  kGetStatsReply = 108,
  kErrorReply = 255,
};

struct HelloRequest {
  std::uint32_t version = kProtocolVersion;
};

/// One served tenant, as listed in HelloReply and the datasets CLI verb.
struct DatasetInfo {
  std::string name;
  release::DatasetKind kind = release::DatasetKind::kSpatial;
  std::uint64_t dim = 0;          ///< Spatial dim or alphabet size.
  std::uint64_t point_count = 0;  ///< Points or sequences.
  std::uint64_t fingerprint = 0;
};

struct HelloReply {
  std::uint32_t version = kProtocolVersion;
  /// What the *default* dataset serves; decides which query frame to send
  /// when the client never selects a tenant.
  release::DatasetKind kind = release::DatasetKind::kSpatial;
  /// Spatial dim, or the alphabet size for sequence data.
  std::uint64_t dim = 0;
  /// Served records: points or sequences.
  std::uint64_t point_count = 0;
  std::uint64_t dataset_fingerprint = 0;
  std::vector<std::string> methods;  ///< Registered method names, sorted.
  /// This connection's privacy-budget ceiling (Σε over its fits); 0 means
  /// the server enforces no per-session budget.
  double budget_total = 0.0;
  /// ε already spent by this connection (0 right after Hello).
  double budget_spent = 0.0;
  /// Every tenant this server hosts, registration order (front = default).
  std::vector<DatasetInfo> datasets;
};

struct FitRequest {
  FitSpec spec;
  std::int64_t deadline_millis = 0;  ///< Relative; 0 = no deadline.
  /// Which tenant to fit against; 0 selects the server default.
  std::uint64_t dataset_fingerprint = 0;
};

struct FitReply {
  release::MethodMetadata metadata;
  bool cache_hit = false;
};

struct QueryBatchRequest {
  FitSpec spec;
  std::int64_t deadline_millis = 0;
  std::uint64_t dataset_fingerprint = 0;  ///< 0 = server default.
  std::vector<Box> queries;
};

struct QueryBatchReply {
  std::vector<double> answers;
  bool cache_hit = false;
};

struct SeqQueryBatchRequest {
  FitSpec spec;
  std::int64_t deadline_millis = 0;
  std::uint64_t dataset_fingerprint = 0;  ///< 0 = server default.
  std::vector<release::SequenceQuery> queries;
};

struct WarmRequest {
  std::uint64_t dataset_fingerprint = 0;  ///< 0 = server default.
  std::vector<FitSpec> specs;
};

/// A whole tenant dataset crossing the wire (protocol v3).  Spatial uploads
/// carry their declared domain (deriving it from the data would leak);
/// sequence uploads are raw rows, every sequence end-terminated — the
/// server applies no truncation, that is a per-method option.
struct RegisterDatasetRequest {
  std::string name;
  release::DatasetKind kind = release::DatasetKind::kSpatial;
  std::uint64_t dim = 0;  ///< Spatial dim, or the alphabet size.
  std::vector<double> domain_lo;  ///< Spatial only; dim entries.
  std::vector<double> domain_hi;  ///< Spatial only; dim entries.
  std::vector<double> coords;     ///< Spatial only; count·dim, row-major.
  std::vector<std::vector<Symbol>> sequences;  ///< Sequence only.
};

struct RegisterDatasetReply {
  std::uint64_t fingerprint = 0;  ///< Key for subsequent requests.
  std::uint64_t point_count = 0;  ///< Points or sequences registered.
};

struct WarmReply {
  std::uint64_t accepted = 0;
};

/// Reads the message-type tag without consuming the payload.
Result<MessageType> PeekType(std::string_view payload);

// Encoders return a complete frame payload (tag + body).
std::string EncodeHello(const HelloRequest& request);
std::string EncodeHelloReply(const HelloReply& reply);
std::string EncodeFit(const FitRequest& request);
std::string EncodeFitReply(const FitReply& reply);
/// Every box must share one dimensionality (the wire format declares one
/// dim for the whole batch); Client::QueryBatch screens this.
std::string EncodeQueryBatch(const QueryBatchRequest& request);
/// Sequence query frames; semantic ranges (symbols vs. the served
/// alphabet, top-k rank bounds) are screened server-side by the engine.
std::string EncodeSeqQueryBatch(const SeqQueryBatchRequest& request);
std::string EncodeQueryBatchReply(const QueryBatchReply& reply);
std::string EncodeWarm(const WarmRequest& request);
std::string EncodeWarmReply(const WarmReply& reply);
/// Wraps a complete inner request payload with a u64 trace id (protocol
/// v5); servers unwrap it transparently, so wrapping never changes the
/// reply bytes.
std::string EncodeTraced(std::uint64_t trace_id, std::string_view inner);
std::string EncodeGetStats();
std::string EncodeGetStatsReply(std::string_view json);
std::string EncodeShutdown();
std::string EncodeShutdownReply();
/// Tenant upload; the decoder screens structural bounds (dim/alphabet caps,
/// symbol range, allocation-bounding counts) so a hostile frame fails
/// cleanly before any dataset is built.
std::string EncodeRegisterDataset(const RegisterDatasetRequest& request);
std::string EncodeRegisterDatasetReply(const RegisterDatasetReply& reply);
/// Any non-OK Status crosses the wire as an ErrorReply.
std::string EncodeErrorReply(const Status& status);

// Decoders fail with InvalidArgument on any malformation (wrong tag,
// truncation, trailing bytes, unparsable options, inverted boxes).
Status DecodeHello(std::string_view payload, HelloRequest* out);
Status DecodeHelloReply(std::string_view payload, HelloReply* out);
Status DecodeFit(std::string_view payload, FitRequest* out);
Status DecodeFitReply(std::string_view payload, FitReply* out);
Status DecodeQueryBatch(std::string_view payload, QueryBatchRequest* out);
Status DecodeSeqQueryBatch(std::string_view payload,
                           SeqQueryBatchRequest* out);
Status DecodeQueryBatchReply(std::string_view payload, QueryBatchReply* out);
Status DecodeWarm(std::string_view payload, WarmRequest* out);
Status DecodeWarmReply(std::string_view payload, WarmReply* out);
/// The inner view aliases `payload`; it stays valid while payload does.
/// Rejects an empty inner payload and a nested Traced envelope.
Status DecodeTraced(std::string_view payload, std::uint64_t* trace_id,
                    std::string_view* inner);
Status DecodeGetStatsReply(std::string_view payload, std::string* json);
Status DecodeRegisterDataset(std::string_view payload,
                             RegisterDatasetRequest* out);
Status DecodeRegisterDatasetReply(std::string_view payload,
                                  RegisterDatasetReply* out);
/// Reconstructs the Status an ErrorReply carries (an unknown wire code maps
/// to Internal); fails with InvalidArgument on a malformed payload.
Status DecodeErrorReply(std::string_view payload, Status* out);

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_PROTOCOL_H_
