#include "release/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <streambuf>
#include <utility>

#include "core/byteio.h"
#include "core/fault.h"
#include "release/options.h"
#include "seq/sequence.h"

namespace privtree::release {

namespace {

/// Header: magic (8) + version (4) + body size (8) + body checksum (8),
/// then a u64 checksum over those first 28 bytes.
constexpr std::size_t kHeaderChecksummedBytes = 28;
constexpr std::size_t kHeaderBytes = 36;

struct Header {
  std::uint64_t body_size = 0;
  std::uint64_t body_checksum = 0;
};

/// Validates the fixed header at the front of `data` (which may hold more
/// than the header): magic, version, header checksum.
Status ParseHeader(std::string_view data, Header* out) {
  if (data.size() < kSynopsisMagic.size() + 4 ||
      data.substr(0, kSynopsisMagic.size()) != kSynopsisMagic) {
    return Status::InvalidArgument("synopsis: bad magic");
  }
  ByteReader r(data.substr(kSynopsisMagic.size()));
  std::uint32_t version = 0;
  r.U32(&version);
  if (version != kSynopsisFormatVersion) {
    return Status::InvalidArgument("synopsis: unsupported format version " +
                                   std::to_string(version));
  }
  std::uint64_t header_checksum = 0;
  if (!r.U64(&out->body_size) || !r.U64(&out->body_checksum) ||
      !r.U64(&header_checksum)) {
    return Status::InvalidArgument("synopsis: truncated header");
  }
  if (ByteChecksum(data.substr(0, kHeaderChecksummedBytes)) !=
      header_checksum) {
    return Status::InvalidArgument("synopsis: header checksum mismatch");
  }
  return Status::OK();
}

/// The body must be exactly the size the header declares.
Status CheckBodySize(std::uint64_t declared, std::uint64_t actual) {
  if (declared == actual) return Status::OK();
  return Status::InvalidArgument(declared > actual
                                     ? "synopsis: truncated body"
                                     : "synopsis: trailing bytes after body");
}

/// An envelope's options text must parse and name only `entry`'s keys, with
/// values of their types.  Ranges are not checked: every saved envelope
/// loads, whatever values its method was created with.
Status ValidateOptionsText(const MethodRegistry::Entry& entry,
                           const std::string& method,
                           const std::string& options_text) {
  MethodOptions options;
  std::string error;
  if (!MethodOptions::TryParse(options_text, &options, &error)) {
    return Status::InvalidArgument("synopsis options: " + error);
  }
  for (const auto& [key, value] : options.entries()) {
    const OptionKey* advertised = entry.FindKey(key);
    if (advertised == nullptr) {
      return Status::InvalidArgument("synopsis options: method \"" + method +
                                     "\" has no option \"" + key + "\"");
    }
    if (!ValueParsesAs(advertised->type, value)) {
      return Status::InvalidArgument("synopsis options: bad value for \"" +
                                     key + "\"");
    }
  }
  return Status::OK();
}

/// An output stream buffer straight onto a file descriptor, with no buffer
/// of its own: a sealed envelope (one write call) reaches the file in one
/// write(2) and is never copied.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {}

  std::uint64_t written() const { return written_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    std::streamsize done = 0;
    while (done < n) {
      const ssize_t w =
          ::write(fd_, data + done, static_cast<std::size_t>(n - done));
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) break;
      done += w;
    }
    written_ += static_cast<std::uint64_t>(done);
    return done;
  }

  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    const char ch = traits_type::to_char_type(c);
    return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
  }

 private:
  const int fd_;
  std::uint64_t written_ = 0;
};

}  // namespace

std::string SealSynopsis(const MethodMetadata& metadata,
                         std::string_view options_text,
                         std::string_view payload) {
  std::string envelope(kHeaderBytes, '\0');  // The header goes in last.
  ByteWriter w(&envelope);
  w.Str(metadata.method);
  w.Str(options_text);
  w.U64(metadata.dim);
  w.F64(metadata.epsilon_spent);
  w.U64(metadata.synopsis_size);
  w.I32(metadata.height);
  envelope.append(payload.data(), payload.size());
  const std::string_view body = std::string_view(envelope).substr(kHeaderBytes);

  std::string header;
  ByteWriter h(&header);
  header.append(kSynopsisMagic.data(), kSynopsisMagic.size());
  h.U32(kSynopsisFormatVersion);
  h.U64(body.size());
  h.U64(ByteChecksum(body));
  h.U64(ByteChecksum(header));  // Header checksum over bytes [0, 28).
  envelope.replace(0, kHeaderBytes, header);
  return envelope;
}

Status WriteSynopsis(std::ostream& out, const MethodMetadata& metadata,
                     std::string_view options_text, std::string_view payload) {
  return WriteSealedSynopsis(out,
                             SealSynopsis(metadata, options_text, payload));
}

Status WriteSealedSynopsis(std::ostream& out, std::string_view envelope) {
  out.write(envelope.data(), static_cast<std::streamsize>(envelope.size()));
  if (!out) return Status::IOError("synopsis write failure");
  return Status::OK();
}

Result<std::unique_ptr<Method>> LoadMethod(std::istream& in,
                                           const MethodRegistry& registry) {
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("synopsis read failure");

  Header header;
  if (Status s = ParseHeader(data, &header); !s.ok()) return s;
  const std::string_view body = std::string_view(data).substr(kHeaderBytes);
  if (Status s = CheckBodySize(header.body_size, body.size()); !s.ok()) {
    return s;
  }
  if (ByteChecksum(body) != header.body_checksum) {
    return Status::InvalidArgument("synopsis: checksum mismatch");
  }

  ByteReader r(body);
  SynopsisEnvelope envelope;
  std::uint64_t dim = 0, synopsis_size = 0;
  if (!r.Str(&envelope.metadata.method) || !r.Str(&envelope.options_text) ||
      !r.U64(&dim) || !r.F64(&envelope.metadata.epsilon_spent) ||
      !r.U64(&synopsis_size) || !r.I32(&envelope.metadata.height)) {
    return Status::InvalidArgument("synopsis: truncated envelope");
  }
  if (!(envelope.metadata.epsilon_spent >= 0.0) ||
      !std::isfinite(envelope.metadata.epsilon_spent)) {
    return Status::InvalidArgument("synopsis: bad epsilon");
  }
  envelope.metadata.dim = dim;
  envelope.metadata.synopsis_size = synopsis_size;

  const std::string& name = envelope.metadata.method;
  if (!registry.Contains(name)) {
    return Status::NotFound("synopsis: unknown method \"" + name + "\"");
  }
  const MethodRegistry::Entry& entry = registry.Get(name);
  if (!entry.loader) {
    return Status::InvalidArgument("synopsis: method \"" + name +
                                   "\" has no registered loader");
  }
  // `dim` is kind-relative: spatial methods fit domains of up to their
  // entry's max_dim axes, or 8 when it declares none (the grid family's
  // cap); sequence methods report the alphabet size.  The bound is checked
  // only after the registry lookup names the kind.
  const std::uint64_t max_dim =
      entry.kind == DatasetKind::kSequence ? kMaxAlphabetSize
      : entry.max_dim != 0                 ? entry.max_dim
                                           : 8;
  if (dim == 0 || dim > max_dim) {
    return Status::InvalidArgument("synopsis: bad dimensionality " +
                                   std::to_string(dim));
  }
  if (entry.required_dim != 0 && dim != entry.required_dim) {
    return Status::InvalidArgument(
        "synopsis: method \"" + name + "\" requires dim " +
        std::to_string(entry.required_dim) + ", file has " +
        std::to_string(dim));
  }
  if (Status s = ValidateOptionsText(entry, name, envelope.options_text);
      !s.ok()) {
    return s;
  }

  auto loaded = entry.loader(envelope, r);
  if (!loaded.ok()) return loaded.status();
  if (!r.AtEnd()) {
    return Status::InvalidArgument("synopsis: trailing payload bytes");
  }

  // Cross-check the loader's reconstruction against the envelope: a
  // mismatch means a codec bug or a crafted file, and either way the
  // synopsis must not be served.
  const MethodMetadata metadata = loaded.value()->Metadata();
  if (metadata.method != name || metadata.dim != envelope.metadata.dim ||
      metadata.epsilon_spent != envelope.metadata.epsilon_spent ||
      metadata.synopsis_size != envelope.metadata.synopsis_size ||
      metadata.height != envelope.metadata.height) {
    return Status::InvalidArgument(
        "synopsis: loaded metadata does not match envelope");
  }
  return loaded;
}

Result<std::unique_ptr<Method>> LoadMethod(std::istream& in) {
  return LoadMethod(in, GlobalMethodRegistry());
}

Status SaveMethodToFile(const Method& method, const std::string& path,
                        bool durable) {
  // A `partial` fault tears the file to half its bytes after the write: a
  // torn write *appears* to succeed — exactly what a crash between write
  // and rename leaves behind.  Recovery (quarantine scan, checksum-verified
  // loads) is what the chaos tests pin down.  Any other fault fails before
  // the file is opened.
  bool torn = false;
  if (auto f = PRIVTREE_FAULT("envelope.save"); f && f.MaybeSleep()) {
    if (f.kind != fault::Kind::kPartialWrite) {
      return f.ToStatus("envelope.save");
    }
    torn = true;
  }
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return Status::IOError("cannot open " + path + " for writing");
  // Save writes straight into the file, and a durable save syncs through
  // the descriptor that wrote it.
  FdStreamBuf file(fd);
  std::ostream out(&file);
  Status saved = method.Save(out);
  if (saved.ok() && torn &&
      ::ftruncate(fd, static_cast<off_t>(file.written() / 2)) != 0) {
    saved = Status::IOError("cannot truncate " + path);
  }
  if (saved.ok() && durable && ::fsync(fd) != 0) {
    saved = Status::IOError("fsync failure on " + path);
  }
  if (::close(fd) != 0 && saved.ok()) {
    saved = Status::IOError("write failure on " + path);
  }
  if (!saved.ok()) ::unlink(path.c_str());  // A failed save leaves no file.
  return saved;
}

Result<std::unique_ptr<Method>> LoadMethodFromFile(const std::string& path) {
  if (auto f = PRIVTREE_FAULT("envelope.load"); f && f.MaybeSleep()) {
    return f.ToStatus("envelope.load");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadMethod(in);
}

Status ProbeSynopsisFile(const std::string& path,
                         std::uint64_t* bytes_scanned) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char head[kHeaderBytes];
  in.read(head, sizeof(head));
  const auto head_size = static_cast<std::size_t>(in.gcount());
  if (in.bad()) return Status::IOError("read failure on " + path);
  if (bytes_scanned != nullptr) *bytes_scanned += head_size;

  // The header carries its own checksum and declares the body size, so
  // structural integrity (a damaged header, truncation, a torn tail) is
  // decidable without touching the body.  Silent body bit rot is caught by
  // the body checksum on first LoadMethod.
  Header header;
  if (Status s = ParseHeader(std::string_view(head, head_size), &header);
      !s.ok()) {
    return s;
  }
  in.clear();
  in.seekg(0, std::ios::end);
  const auto file_size = in.tellg();
  if (file_size < 0) return Status::IOError("cannot stat " + path);
  return CheckBodySize(header.body_size,
                       static_cast<std::uint64_t>(file_size) - kHeaderBytes);
}

}  // namespace privtree::release
