//===----------------------------------------------------------------------===//
///
/// \file
/// The stage cache: named entries holding one stage's serialized artifacts
/// for one (workload, upstream-chain) point. Pipeline::run consults one
/// when a context has it attached (PipelineContext::setStageCache): a hit
/// replaces the stage execution — for the profiling stages that means a
/// repeated bench invocation (or a repeated serve request) skips every
/// training run.
///
/// Two implementations share the StageCache interface:
///
///   - DiskStageCache: a directory of entry files, surviving the process.
///   - MemoryStageCache: a bounded, thread-safe in-process map with
///     hit/miss/eviction counters — the warm front of the resident serve
///     daemon, optionally layered over a disk cache (loads fall through
///     and promote, stores write through).
///
/// Entry naming and invalidation:
///
///   <workload>-<stage>-<hash>.stagecache
///
/// where <hash> is a 64-bit FNV-1a over (format version, workload key,
/// a fingerprint of the original module's printed IR, and the
/// concatenated cache keys of the stage and every stage upstream of it in
/// the standard chain). Any change to the workload generator, to an
/// upstream knob, or to a stage's own configuration slice therefore lands
/// on a different name; stale entries are never read, only orphaned.
/// Semantic changes to a stage's *implementation* are covered by the
/// code-version token each persisted stage embeds in its cacheKey
/// ("v2"/"c1"/"p2" in Stages.cpp) — bump it when the stage's behaviour
/// changes without any knob changing.
///
/// Disk file format: "HLXC" magic, format version, payload length, FNV-1a
/// checksum of the payload, payload bytes. A truncated, corrupted or
/// version-mismatched file is treated as a miss (and removed) — the
/// pipeline falls back to executing the stage, so a damaged cache can
/// never produce wrong results, only cold ones.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_PIPELINE_STAGECACHE_H
#define HELIX_PIPELINE_STAGECACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace helix {

class Module;

/// Monotonic counters of one cache instance. Hits/Misses count load()
/// calls; Stores counts accepted store() calls; Evictions counts entries
/// dropped to stay under a capacity bound (memory cache only).
struct StageCacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Stores = 0;
  uint64_t Evictions = 0;
};

/// The interface Pipeline::run talks to. Implementations must be safe for
/// concurrent load/store from multiple threads — the serve daemon runs
/// many requests against one instance.
class StageCache {
public:
  virtual ~StageCache() = default;

  /// False when the cache could not initialize; every load then misses and
  /// every store is dropped.
  virtual bool ok() const = 0;

  /// Reads the payload stored under \p EntryName. \returns false on miss.
  virtual bool load(const std::string &EntryName,
                    std::string &PayloadOut) const = 0;

  /// Stores \p Payload under \p EntryName. \returns true on success.
  virtual bool store(const std::string &EntryName,
                     const std::string &Payload) const = 0;

  virtual StageCacheCounters counters() const = 0;

  /// Entry name for one stage result: workload key + stage name + hash of
  /// everything that must invalidate it (see file comment).
  static std::string entryName(const std::string &WorkloadKey,
                               const std::string &StageName,
                               const std::string &ChainKey,
                               const std::string &ModuleFingerprint);

  /// Fingerprint of a module: FNV-1a over its printed IR, hex-encoded.
  /// Exact — any textual change to the program invalidates every entry
  /// derived from it.
  static std::string moduleFingerprint(const Module &M);
};

/// Directory-backed persistent cache. Concurrent processes may share one
/// directory: writers stage to a unique temporary and rename atomically,
/// and the reader validates size and checksum against the inode it opened
/// (not the path), so a same-key store racing a load can never make the
/// load observe a torn entry or mis-reject a fresh one.
class DiskStageCache : public StageCache {
public:
  /// Binds the cache to \p Directory, creating it (and parents) if absent.
  /// When creation fails the cache is inert: every load misses, every
  /// store is dropped, and ok() reports false.
  explicit DiskStageCache(std::string Directory);

  const std::string &directory() const { return Dir; }
  bool ok() const override { return Usable; }

  bool load(const std::string &EntryName,
            std::string &PayloadOut) const override;
  bool store(const std::string &EntryName,
             const std::string &Payload) const override;
  StageCacheCounters counters() const override;

private:
  std::string entryPath(const std::string &EntryName) const;

  std::string Dir;
  bool Usable = false;
  mutable std::atomic<uint64_t> Hits{0}, Misses{0}, Stores{0};
};

/// Process-lifetime warm cache: a mutex-guarded map bounded by total
/// payload bytes with LRU eviction. With a backing cache attached, a
/// memory miss falls through to it (promoting hits into memory) and every
/// store writes through — the layering the serve daemon uses to combine
/// warm in-process entries with an optional persistent directory.
class MemoryStageCache : public StageCache {
public:
  explicit MemoryStageCache(size_t MaxBytes = size_t(256) << 20,
                            StageCache *Backing = nullptr)
      : MaxBytes(MaxBytes), Backing(Backing) {}

  bool ok() const override { return true; }
  bool load(const std::string &EntryName,
            std::string &PayloadOut) const override;
  bool store(const std::string &EntryName,
             const std::string &Payload) const override;
  StageCacheCounters counters() const override;

  size_t entryCount() const;
  size_t byteSize() const;

private:
  void insertLocked(const std::string &EntryName,
                    const std::string &Payload) const;

  size_t MaxBytes;
  StageCache *Backing;
  mutable std::mutex Mutex;
  /// LRU order, most recent front. Entries own their payload bytes.
  mutable std::list<std::pair<std::string, std::string>> Order;
  mutable std::unordered_map<
      std::string, std::list<std::pair<std::string, std::string>>::iterator>
      Map;
  mutable size_t Bytes = 0;
  mutable StageCacheCounters Stats;
};

} // namespace helix

#endif // HELIX_PIPELINE_STAGECACHE_H
