#include "serve/synopsis_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <streambuf>
#include <system_error>
#include <vector>

#include "core/fault.h"
#include "dp/check.h"
#include "obs/metrics.h"
#include "release/registry.h"
#include "release/serialization.h"

namespace privtree::serve {

namespace {

// The shared fingerprint mixer (core/byteio.h), used here for
// SynopsisKeyFingerprint (spill-file names).
constexpr auto MixWord = MixFingerprintWord;
constexpr auto MixDouble = MixFingerprintDouble;

}  // namespace

std::uint64_t DatasetFingerprint(const PointSet& points, const Box& domain) {
  return release::Dataset(points, domain).Fingerprint();
}

std::uint64_t DatasetFingerprint(const SequenceDataset& sequences) {
  return release::Dataset(sequences).Fingerprint();
}

std::string CanonicalOptionsText(std::string_view method,
                                 const release::MethodOptions& options) {
  const auto& allowed = release::GlobalMethodRegistry().AllowedKeys(method);
  std::string out;
  for (const std::string& key : options.Keys()) {  // Keys() is sorted.
    const auto it = std::find_if(
        allowed.begin(), allowed.end(),
        [&](const release::OptionKey& k) { return k.name == key; });
    std::string value;
    if (it == allowed.end()) {
      value = options.GetString(key, "");
    } else {
      char buffer[64];
      switch (it->type) {
        case release::OptionType::kDouble:
          std::snprintf(buffer, sizeof(buffer), "%.17g",
                        options.GetDouble(key, 0.0));
          value = buffer;
          break;
        case release::OptionType::kInt:
          std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                        options.GetInt(key, 0));
          value = buffer;
          break;
        case release::OptionType::kBool:
          value = options.GetBool(key, false) ? "true" : "false";
          break;
      }
    }
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string SynopsisKeyFingerprint(const SynopsisKey& key) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = MixWord(hash, key.dataset_fingerprint);
  for (const char c : key.method) {
    hash = MixWord(hash, static_cast<unsigned char>(c));
  }
  hash = MixWord(hash, key.method.size());
  for (const char c : key.options) {
    hash = MixWord(hash, static_cast<unsigned char>(c));
  }
  hash = MixWord(hash, key.options.size());
  hash = MixDouble(hash, key.epsilon);
  hash = MixWord(hash, key.rng_fingerprint);
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

namespace {

constexpr std::string_view kSpillExtension = ".synopsis";
constexpr std::string_view kQuarantineExtension = ".quarantined";

/// Flushes a directory's entry table (the rename) to disk; best-effort —
/// a failure here only weakens crash durability, never correctness.
void SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// A stream buffer that counts the bytes written to it and stores none.
class ByteCounter : public std::streambuf {
 public:
  std::size_t count() const { return count_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count_ += static_cast<std::size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++count_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t count_ = 0;
};

/// The envelope size `method` would occupy on disk (what the resident byte
/// cap budgets); 0 for non-serializable methods (test stubs).  A method
/// that keeps its sealed envelope writes it in one call, so this copies
/// nothing.
std::size_t SerializedSizeOf(const release::Method& method) {
  ByteCounter counter;
  std::ostream out(&counter);
  if (!method.Save(out).ok()) return 0;
  return counter.count();
}

/// Moves a corrupt spill file aside under `.quarantined` (evidence for
/// operators, invisible to the scan); deletes it when even that fails.
void QuarantineFile(const std::filesystem::path& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path aside = path;
  aside += kQuarantineExtension;
  fs::rename(path, aside, ec);
  if (ec) fs::remove(path, ec);
}

// Registry mirrors of the Stats fields, bumped at the same mutation sites
// (under mu_, so registry and struct stay in lockstep).  Counters are the
// cumulative tallies; the two level values (resident bytes, write-behind
// backlog) are gauges Set to the post-mutation value.
struct CacheMetrics {
  obs::Counter& hits = obs::Registry::Global().GetCounter("cache.hits");
  obs::Counter& misses = obs::Registry::Global().GetCounter("cache.misses");
  obs::Counter& evictions =
      obs::Registry::Global().GetCounter("cache.evictions");
  obs::Counter& spill_writes =
      obs::Registry::Global().GetCounter("cache.spill_writes");
  obs::Counter& spill_hits =
      obs::Registry::Global().GetCounter("cache.spill_hits");
  obs::Counter& spill_evictions =
      obs::Registry::Global().GetCounter("cache.spill_evictions");
  obs::Counter& spill_failures =
      obs::Registry::Global().GetCounter("cache.spill_failures");
  obs::Counter& spill_write_failures =
      obs::Registry::Global().GetCounter("cache.spill_write_failures");
  obs::Counter& spill_quarantined =
      obs::Registry::Global().GetCounter("cache.spill_quarantined");
  obs::Counter& writeback_hits =
      obs::Registry::Global().GetCounter("cache.writeback_hits");
  obs::Counter& spill_write_batches =
      obs::Registry::Global().GetCounter("cache.spill_write_batches");
  obs::Counter& spill_bytes_written =
      obs::Registry::Global().GetCounter("cache.spill_bytes_written");
  obs::Counter& spill_bytes_read =
      obs::Registry::Global().GetCounter("cache.spill_bytes_read");
  obs::Counter& spill_scan_bytes =
      obs::Registry::Global().GetCounter("cache.spill_scan_bytes");
  obs::Gauge& resident_bytes =
      obs::Registry::Global().GetGauge("cache.resident_bytes");
  obs::Gauge& spill_pending =
      obs::Registry::Global().GetGauge("cache.spill_pending");
};

CacheMetrics& Metrics() {
  static CacheMetrics* metrics = new CacheMetrics();
  return *metrics;
}

}  // namespace

SynopsisCache::SynopsisCache(std::size_t capacity)
    : SynopsisCache(capacity, SpillOptions{}) {}

SynopsisCache::SynopsisCache(std::size_t capacity, SpillOptions spill,
                             std::size_t max_resident_bytes)
    : capacity_(capacity),
      spill_(std::move(spill)),
      max_resident_bytes_(max_resident_bytes) {
  if (!spill_enabled()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(spill_.directory, ec);
  // Adopt files left by an earlier run (warm restart), oldest last so they
  // are the first trimmed.  The scan validates before it adopts: a stale
  // `.tmp` is a write the previous run never finished (deleted), and a
  // file the envelope probe rejects — truncated, bit-flipped, zero-length
  // — is quarantined, so a crash mid-spill can never poison serving; the
  // key simply re-fits on its next miss.
  std::vector<std::pair<fs::file_time_type, std::string>> found;
  for (const auto& entry : fs::directory_iterator(spill_.directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".tmp") {
      std::error_code remove_ec;
      fs::remove(p, remove_ec);
      continue;
    }
    if (p.extension() != kSpillExtension) continue;
    std::uint64_t scanned = 0;
    const Status probed = release::ProbeSynopsisFile(p.string(), &scanned);
    stats_.spill_scan_bytes += static_cast<std::size_t>(scanned);
    Metrics().spill_scan_bytes.Inc(scanned);
    if (!probed.ok()) {
      std::fprintf(stderr,
                   "privtree: quarantining corrupt spill file %s (%s)\n",
                   p.string().c_str(), probed.ToString().c_str());
      QuarantineFile(p);
      ++stats_.spill_quarantined;
      Metrics().spill_quarantined.Inc();
      continue;
    }
    found.emplace_back(fs::last_write_time(p, ec), p.filename().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [time, name] : found) {
    spill_lru_.push_back(name);
    spill_index_.insert(std::move(name));
  }
  spill_writer_ = std::thread(&SynopsisCache::RunSpillWriter, this);
}

SynopsisCache::~SynopsisCache() {
  if (!spill_writer_.joinable()) return;
  {
    MutexLock lk(mu_);
    stop_writer_ = true;
  }
  spill_cv_.NotifyAll();
  spill_writer_.join();  // Drains the remaining backlog first.
}

std::string SynopsisCache::SpillPathFor(const std::string& file) const {
  return (std::filesystem::path(spill_.directory) / file).string();
}

void SynopsisCache::TouchSpillLocked(const std::string& file) {
  spill_lru_.remove(file);
  spill_lru_.push_front(file);
}

void SynopsisCache::InsertLocked(
    const SynopsisKey& key, std::shared_ptr<const release::Method> value,
    std::vector<Evicted>* evicted) {
  const std::size_t bytes = SerializedSizeOf(*value);
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  resident_size_[key] = bytes;
  stats_.resident_bytes += bytes;
  // Evict past the entry cap, then past the byte cap — but never the entry
  // just inserted, so one oversized synopsis still serves.
  while (lru_.size() > capacity_ ||
         (max_resident_bytes_ > 0 && lru_.size() > 1 &&
          stats_.resident_bytes > max_resident_bytes_)) {
    const SynopsisKey& victim = lru_.back().first;
    if (const auto it = resident_size_.find(victim);
        it != resident_size_.end()) {
      stats_.resident_bytes -= it->second;
      resident_size_.erase(it);
    }
    index_.erase(victim);
    if (spill_enabled()) evicted->push_back(std::move(lru_.back()));
    lru_.pop_back();
    ++stats_.evictions;
    Metrics().evictions.Inc();
  }
  Metrics().resident_bytes.Set(stats_.resident_bytes);
}

void SynopsisCache::SpillEvicted(const std::vector<Evicted>& evicted) {
  namespace fs = std::filesystem;
  for (const auto& [key, method] : evicted) {
    const std::string file =
        SynopsisKeyFingerprint(key) + std::string(kSpillExtension);
    {
      MutexLock lk(mu_);
      // A synopsis is immutable, so a file written for an earlier eviction
      // of the same key is still valid — skip the rewrite, but refresh its
      // LRU position: this key was hot enough to re-enter memory.
      if (spill_index_.contains(file)) {
        TouchSpillLocked(file);
        continue;
      }
    }
    // Write to a temp name, fsync, and rename so a crash mid-write never
    // leaves a torn file *under the final name* for a warm restart (or a
    // shared spill dir) to adopt: an unsynced write can be reordered past
    // the rename by the filesystem, so durability of the bytes must come
    // before visibility of the name.
    const std::string path = SpillPathFor(file);
    const std::string tmp_path = path + ".tmp";
    Status saved;
    if (auto f = PRIVTREE_FAULT("spill.write"); f && f.MaybeSleep()) {
      saved = f.ToStatus("spill.write");
    } else {
      saved = release::SaveMethodToFile(*method, tmp_path, /*durable=*/true);
    }
    std::error_code ec;
    std::uintmax_t written = 0;
    if (saved.ok()) {
      fs::rename(tmp_path, path, ec);
      if (!ec) {
        SyncDirectory(spill_.directory);
        std::error_code size_ec;
        written = fs::file_size(path, size_ec);
        if (size_ec) written = 0;
      }
    }

    MutexLock lk(mu_);
    if (!saved.ok() || ec) {
      ++stats_.spill_failures;  // E.g. a non-serializable test stub.
      ++stats_.spill_write_failures;
      Metrics().spill_failures.Inc();
      Metrics().spill_write_failures.Inc();
      if (logged_write_failures_.insert(file).second) {
        std::fprintf(stderr,
                     "privtree: spill write failed for %s (%s)\n",
                     path.c_str(),
                     saved.ok() ? ec.message().c_str()
                                : saved.ToString().c_str());
      }
      std::error_code cleanup_ec;
      fs::remove(tmp_path, cleanup_ec);
      continue;
    }
    ++stats_.spill_writes;
    stats_.spill_bytes_written += static_cast<std::size_t>(written);
    Metrics().spill_writes.Inc();
    Metrics().spill_bytes_written.Inc(written);
    if (spill_index_.insert(file).second) spill_lru_.push_front(file);
    while (spill_.max_entries > 0 && spill_lru_.size() > spill_.max_entries) {
      std::error_code remove_ec;
      fs::remove(SpillPathFor(spill_lru_.back()), remove_ec);
      spill_index_.erase(spill_lru_.back());
      spill_lru_.pop_back();
      ++stats_.spill_evictions;
      Metrics().spill_evictions.Inc();
    }
  }
}

bool SynopsisCache::EnqueueSpillLocked(std::vector<Evicted>* evicted) {
  if (evicted->empty()) return false;
  bool queued = false;
  for (Evicted& entry : *evicted) {
    // A key already awaiting its write keeps the one queue slot it has;
    // the synopsis is immutable, so one write covers every eviction.
    if (spill_pending_index_.contains(entry.first)) continue;
    spill_pending_index_.emplace(entry.first, entry.second);
    spill_queue_.push_back(std::move(entry));
    queued = true;
  }
  evicted->clear();
  Metrics().spill_pending.Set(spill_pending_index_.size());
  return queued;
}

void SynopsisCache::RunSpillWriter() {
  MutexLock lk(mu_);
  for (;;) {
    while (!stop_writer_ && spill_queue_.empty()) spill_cv_.Wait(lk);
    if (spill_queue_.empty()) {
      if (stop_writer_) return;
      continue;
    }
    // Write-behind batching: take the whole backlog in one swap, so a burst
    // of evictions costs one wakeup and one pass over the directory state.
    std::vector<Evicted> batch(std::make_move_iterator(spill_queue_.begin()),
                               std::make_move_iterator(spill_queue_.end()));
    spill_queue_.clear();
    ++stats_.spill_write_batches;
    Metrics().spill_write_batches.Inc();
    lk.Unlock();
    SpillEvicted(batch);
    lk.Lock();
    // Only now do the keys leave the write-behind buffer: a miss during the
    // write was still served from memory (writeback hit).
    for (const auto& [key, method] : batch) spill_pending_index_.erase(key);
    Metrics().spill_pending.Set(spill_pending_index_.size());
    if (spill_queue_.empty()) flush_cv_.NotifyAll();
  }
}

void SynopsisCache::FlushSpill() {
  MutexLock lk(mu_);
  if (!spill_enabled()) return;
  while (!spill_queue_.empty() || !spill_pending_index_.empty()) {
    flush_cv_.Wait(lk);
  }
}

std::shared_ptr<const release::Method> SynopsisCache::GetOrFit(
    const SynopsisKey& key, const FitFn& fit) {
  MutexLock lk(mu_);
  std::string spill_file;
  for (;;) {
    if (const auto it = index_.find(key); it != index_.end()) {
      ++stats_.hits;
      Metrics().hits.Inc();
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    // An eviction still waiting on (or undergoing) its background write is
    // served straight from the write-behind buffer and promoted back into
    // the memory tier — never re-fitted, never read back from disk.
    if (const auto it = spill_pending_index_.find(key);
        it != spill_pending_index_.end()) {
      ++stats_.writeback_hits;
      Metrics().writeback_hits.Inc();
      const std::shared_ptr<const release::Method> value = it->second;
      std::vector<Evicted> evicted;
      if (capacity_ > 0) InsertLocked(key, value, &evicted);
      const bool notify_writer = EnqueueSpillLocked(&evicted);
      lk.Unlock();
      if (notify_writer) spill_cv_.NotifyAll();
      return value;
    }
    if (!inflight_.contains(key)) break;
    // Another thread is fitting (or rehydrating) this key; wait for it
    // rather than duplicating the work.
    inflight_cv_.Wait(lk);
  }
  ++stats_.misses;
  Metrics().misses.Inc();
  inflight_.insert(key);
  if (spill_enabled()) {
    const std::string file =
        SynopsisKeyFingerprint(key) + std::string(kSpillExtension);
    if (spill_index_.contains(file)) spill_file = file;
  }
  lk.Unlock();

  // Rehydrate from the spill tier if this key was evicted to disk; fall
  // back to a fresh fit when the file is missing or corrupt.
  std::shared_ptr<const release::Method> value;
  bool from_spill = false;
  bool spill_broken = false;
  std::uintmax_t read_bytes = 0;
  if (!spill_file.empty()) {
    const std::string path = SpillPathFor(spill_file);
    auto loaded = release::LoadMethodFromFile(path);
    if (loaded.ok()) {
      value = std::move(loaded).value();
      from_spill = true;
      std::error_code size_ec;
      read_bytes = std::filesystem::file_size(path, size_ec);
      if (size_ec) read_bytes = 0;
    } else {
      spill_broken = true;
    }
  }
  if (value == nullptr) {
    value = fit();
    PRIVTREE_CHECK(value != nullptr);
  }

  std::vector<Evicted> evicted;
  lk.Lock();
  inflight_.erase(key);
  if (from_spill) {
    ++stats_.spill_hits;
    stats_.spill_bytes_read += static_cast<std::size_t>(read_bytes);
    Metrics().spill_hits.Inc();
    Metrics().spill_bytes_read.Inc(read_bytes);
    TouchSpillLocked(spill_file);
  } else if (spill_broken) {
    ++stats_.spill_failures;
    Metrics().spill_failures.Inc();
    if (spill_index_.erase(spill_file) > 0) {
      spill_lru_.remove(spill_file);
      // Keep the corrupt bytes aside for diagnosis instead of destroying
      // them; the fresh fit above replaces the entry either way.
      QuarantineFile(SpillPathFor(spill_file));
      ++stats_.spill_quarantined;
      Metrics().spill_quarantined.Inc();
    }
  }
  if (capacity_ > 0) InsertLocked(key, value, &evicted);
  const bool notify_writer = EnqueueSpillLocked(&evicted);
  inflight_cv_.NotifyAll();
  lk.Unlock();

  if (notify_writer) spill_cv_.NotifyAll();
  return value;
}

std::shared_ptr<const release::Method> SynopsisCache::Lookup(
    const SynopsisKey& key) {
  MutexLock lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void SynopsisCache::NoteHit() {
  MutexLock lk(mu_);
  ++stats_.hits;
  Metrics().hits.Inc();
}

std::size_t SynopsisCache::size() const {
  MutexLock lk(mu_);
  return lru_.size();
}

std::size_t SynopsisCache::SpillFileCount() const {
  MutexLock lk(mu_);
  return spill_index_.size();
}

SynopsisCache::Stats SynopsisCache::stats() const {
  MutexLock lk(mu_);
  Stats out = stats_;
  out.spill_pending = spill_pending_index_.size();
  return out;
}

void SynopsisCache::Clear() {
  // Let in-flight background writes land first, so no writer re-registers a
  // file after we have deleted it.
  FlushSpill();
  MutexLock lk(mu_);
  lru_.clear();
  index_.clear();
  resident_size_.clear();
  stats_.resident_bytes = 0;
  Metrics().resident_bytes.Set(0);
  for (const std::string& file : spill_lru_) {
    std::error_code ec;
    std::filesystem::remove(SpillPathFor(file), ec);
  }
  spill_lru_.clear();
  spill_index_.clear();
}

}  // namespace privtree::serve
