// Memoization of fitted release::Method synopses.
//
// A fitted synopsis is a pure function of (dataset, method, options, ε,
// randomness): re-fitting with the same inputs reproduces it bit for bit,
// so a serving layer that answers many workloads over the same releases can
// cache the fit — the expensive, data-touching step — and share one
// immutable synopsis across threads via shared_ptr.  Keys canonicalize the
// options text through the registry's type metadata ("cell_scale=3" and
// "cell_scale=3.0" are the same fit) and identify the dataset and the RNG
// stream by fingerprint, so the cache never conflates two releases that
// could differ.
//
// Concurrency: one mutex guards the LRU structures; a fit for a missing key
// runs *outside* the lock, with an in-flight set making concurrent callers
// of the same key wait for the single fit instead of duplicating it (the
// same memoization discipline I/O-co-designed systems use to keep one
// read-ahead per block).
//
// Disk spill: with SpillOptions, entries evicted from the in-memory LRU are
// serialized to `<directory>/<key fingerprint>.synopsis` through the
// universal release::Method envelope (release/serialization.h), and a later
// miss on the same key rehydrates from that file instead of re-fitting —
// the load shares the single-flight discipline with fits, so concurrent
// callers trigger one disk read.  The spill tier is itself capacity-bounded
// (oldest file evicted first) and survives process restarts: a fresh cache
// pointed at the same directory serves previous spills as warm hits.  A
// file that fails to load (corruption, version drift) is deleted and the
// synopsis silently re-fitted.
//
// Spill writes are write-behind: the evicting caller only enqueues the
// (key, synopsis) pair — a dedicated background writer thread drains the
// whole pending queue per wakeup (batching bursts of evictions into one
// pass) and does the serialize + rename off the serving path.  Until its
// file lands, a pending entry still serves misses directly from the
// write-behind buffer (a `writeback_hit`), so eviction never makes a hot
// synopsis transiently unfetchable.  `stats().spill_pending` exposes the
// writer's backlog — the admission controller sheds fit load when it grows
// (see server/admission.h) — and FlushSpill() blocks until the backlog is
// on disk (tests, clean shutdown).
#ifndef PRIVTREE_SERVE_SYNOPSIS_CACHE_H_
#define PRIVTREE_SERVE_SYNOPSIS_CACHE_H_

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "release/dataset.h"
#include "release/method.h"
#include "release/options.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::serve {

/// Identity of one fitted synopsis.
struct SynopsisKey {
  std::uint64_t dataset_fingerprint = 0;  ///< release::Dataset::Fingerprint.
  std::string method;                     ///< Registry name.
  std::string options;                    ///< CanonicalOptionsText().
  double epsilon = 0.0;                   ///< Total ε of the fit.
  std::uint64_t rng_fingerprint = 0;      ///< Rng::Fingerprint() at fit time.

  friend auto operator<=>(const SynopsisKey&, const SynopsisKey&) = default;
};

/// Spatial convenience for release::Dataset::Fingerprint — an
/// order-sensitive 64-bit digest of (content, kind).  The kind tag makes
/// fingerprints domain-separate: a sequence dataset can never collide with
/// a spatial one on a cache or spill key even when their raw content words
/// coincide.  Within a kind, collisions are astronomically unlikely but
/// not impossible; the cache trades that risk for never storing the data
/// itself.
std::uint64_t DatasetFingerprint(const PointSet& points, const Box& domain);

/// Sequence counterpart.
std::uint64_t DatasetFingerprint(const SequenceDataset& sequences);

/// Renders `options` with every key the registered `method` accepts
/// normalized through its declared type (so "3", "3.0" and "3.00" collapse
/// to one double spelling, "1"/"true" to one boolean).  Keys the method
/// does not declare are passed through verbatim — the factory will reject
/// them at Create.  Aborts on unregistered method names.
std::string CanonicalOptionsText(std::string_view method,
                                 const release::MethodOptions& options);

/// Filesystem-safe 16-hex-digit digest of a key, naming its spill file.
std::string SynopsisKeyFingerprint(const SynopsisKey& key);

/// Configuration of the disk-spill tier.
struct SpillOptions {
  /// Spill directory; created on construction.  Empty disables spilling.
  std::string directory;
  /// Max synopsis files kept on disk (oldest evicted first); 0 = unbounded.
  std::size_t max_entries = 256;
};

/// A thread-safe LRU cache of fitted methods with an optional disk tier.
class SynopsisCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t spill_writes = 0;     ///< Evictions serialized to disk.
    std::size_t spill_hits = 0;       ///< Misses served by rehydration.
    std::size_t spill_evictions = 0;  ///< Spill files deleted for capacity.
    std::size_t spill_failures = 0;   ///< Unserializable or corrupt spills.
    /// Write-path failures specifically (serialize/rename errors on the
    /// background writer or the evicting caller); also counted in
    /// spill_failures.  Each failing key logs one stderr line, once.
    std::size_t spill_write_failures = 0;
    /// Corrupt envelopes quarantined (renamed to `.quarantined`) instead
    /// of served: warm-restart scan rejects + runtime load failures.
    std::size_t spill_quarantined = 0;
    /// Evictions enqueued for the background writer but not yet on disk
    /// (snapshot of the current backlog, not a cumulative count).
    std::size_t spill_pending = 0;
    /// Misses served straight from the pending write-behind buffer.
    std::size_t writeback_hits = 0;
    /// Background-writer wakeups that flushed at least one write.
    std::size_t spill_write_batches = 0;
    /// Serialized size of every resident synopsis (envelope bytes, the
    /// size its spill file would have), maintained incrementally.
    std::size_t resident_bytes = 0;
    /// Cumulative bytes of spill files written to disk.
    std::size_t spill_bytes_written = 0;
    /// Cumulative bytes of spill files read back on rehydration.
    std::size_t spill_bytes_read = 0;
    /// Bytes read by the warm-restart scan (header probes only).
    std::size_t spill_scan_bytes = 0;
  };

  /// Builds the fitted method for a missing key; must not return null.
  using FitFn = std::function<std::shared_ptr<const release::Method>()>;

  /// Keeps at most `capacity` synopses (0 disables retention: every call
  /// fits, nothing is stored).
  explicit SynopsisCache(std::size_t capacity);

  /// As above, with evictions spilling to `spill.directory`.  Spill files
  /// already in the directory (from an earlier run or cache) are adopted,
  /// oldest-first.  `max_resident_bytes` additionally caps the summed
  /// serialized size of resident synopses (0 = unbounded): when the byte
  /// budget is exceeded the LRU evicts past `capacity`, always keeping at
  /// least the most recent entry.
  SynopsisCache(std::size_t capacity, SpillOptions spill,
                std::size_t max_resident_bytes = 0);

  /// Flushes the write-behind backlog to disk, then stops the writer.
  ~SynopsisCache();

  /// Returns the cached synopsis for `key`, fitting (and caching) it via
  /// `fit` on a miss.  Concurrent calls for the same key fit once.
  std::shared_ptr<const release::Method> GetOrFit(const SynopsisKey& key,
                                                  const FitFn& fit)
      EXCLUDES(mu_);

  /// The cached synopsis, or null without side effects beyond LRU touch.
  std::shared_ptr<const release::Method> Lookup(const SynopsisKey& key)
      EXCLUDES(mu_);

  /// Counts one hit, as GetOrFit does when it serves a cached entry: for a
  /// caller that serves a synopsis Lookup returned in place of GetOrFit.
  void NoteHit() EXCLUDES(mu_);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool spill_enabled() const { return !spill_.directory.empty(); }
  /// Number of synopsis files currently tracked in the spill directory.
  std::size_t SpillFileCount() const;
  Stats stats() const;
  /// Blocks until every pending write-behind eviction is on disk (no-op
  /// when spilling is disabled or nothing is pending).
  void FlushSpill() EXCLUDES(mu_);
  /// Drops every cached synopsis, including the spill files on disk and
  /// the pending write-behind backlog.
  void Clear() EXCLUDES(mu_);

 private:
  using LruList =
      std::list<std::pair<SynopsisKey, std::shared_ptr<const release::Method>>>;
  using Evicted =
      std::pair<SynopsisKey, std::shared_ptr<const release::Method>>;

  /// Inserts (key, value) at the front, evicting from the back into
  /// `*evicted` for the caller to spill after unlocking; caller holds mu_.
  void InsertLocked(const SynopsisKey& key,
                    std::shared_ptr<const release::Method> value,
                    std::vector<Evicted>* evicted) REQUIRES(mu_);

  /// Serializes evicted entries to the spill directory (temp-file + rename,
  /// no lock held during the write), then registers the files and trims the
  /// spill tier to capacity, oldest-or-coldest file first.  Runs on the
  /// background writer only.
  void SpillEvicted(const std::vector<Evicted>& evicted) EXCLUDES(mu_);

  /// Queues evicted entries for the background writer; caller holds mu_
  /// and must call spill_cv_.NotifyAll() after unlocking when this returns
  /// true (entries were queued).
  bool EnqueueSpillLocked(std::vector<Evicted>* evicted) REQUIRES(mu_);

  /// Background writer main loop: drain the whole pending queue per wakeup.
  void RunSpillWriter() EXCLUDES(mu_);

  /// Full path of a spill file name (fingerprint + extension).
  std::string SpillPathFor(const std::string& file) const;

  /// Moves `file` to the front of the spill LRU; caller holds mu_.
  void TouchSpillLocked(const std::string& file) REQUIRES(mu_);

  const std::size_t capacity_;
  const SpillOptions spill_;
  const std::size_t max_resident_bytes_;
  mutable Mutex mu_;
  CondVar inflight_cv_;
  LruList lru_ GUARDED_BY(mu_);  // Front = most recently used.
  std::map<SynopsisKey, LruList::iterator> index_ GUARDED_BY(mu_);
  /// Serialized size per resident key, mirrored into
  /// stats_.resident_bytes; measured once at insert (Save to a string).
  std::map<SynopsisKey, std::size_t> resident_size_ GUARDED_BY(mu_);
  std::set<SynopsisKey> inflight_ GUARDED_BY(mu_);
  /// Spill-file names (fingerprint + extension), front = most recent; the
  /// set mirrors the list for O(log n) membership.
  std::list<std::string> spill_lru_ GUARDED_BY(mu_);
  std::set<std::string> spill_index_ GUARDED_BY(mu_);
  /// Spill-file names whose write failure was already logged (satellite
  /// contract: one stderr line per key, not one per retry).
  std::set<std::string> logged_write_failures_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
  /// Write-behind state: evictions queued for the writer, plus a key index
  /// over everything enqueued-or-being-written so a miss can be served from
  /// the buffer until its file lands.
  std::deque<Evicted> spill_queue_ GUARDED_BY(mu_);
  std::map<SynopsisKey, std::shared_ptr<const release::Method>>
      spill_pending_index_ GUARDED_BY(mu_);
  bool stop_writer_ GUARDED_BY(mu_) = false;
  CondVar spill_cv_;  // Wakes the writer.
  CondVar flush_cv_;  // Signalled when the backlog drains.
  std::thread spill_writer_;  // Joined by the destructor.
};

}  // namespace privtree::serve

#endif  // PRIVTREE_SERVE_SYNOPSIS_CACHE_H_
