#include "pipeline/StageCache.h"

#include "ir/Module.h"
#include "support/Hash.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <unistd.h>

using namespace helix;

namespace {

constexpr char Magic[4] = {'H', 'L', 'X', 'C'};
constexpr uint32_t FormatVersion = 1;

struct EntryHeader {
  char M[4];
  uint32_t Version;
  uint64_t PayloadSize;
  uint64_t PayloadHash;
};

/// Only [a-zA-Z0-9._-] may reach a file name; everything else becomes '_'.
std::string sanitize(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    bool Safe = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    Out += Safe ? C : '_';
  }
  return Out.empty() ? "_" : Out;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

} // namespace

std::string StageCache::moduleFingerprint(const Module &M) {
  std::ostringstream OS;
  M.print(OS);
  return hex64(fnv1a(OS.str()));
}

std::string StageCache::entryName(const std::string &WorkloadKey,
                                  const std::string &StageName,
                                  const std::string &ChainKey,
                                  const std::string &ModuleFingerprint) {
  std::string Invalidators = std::to_string(FormatVersion) + '\0' +
                             WorkloadKey + '\0' + ModuleFingerprint + '\0' +
                             ChainKey;
  return sanitize(WorkloadKey) + "-" + sanitize(StageName) + "-" +
         hex64(fnv1a(Invalidators)) + ".stagecache";
}

//===----------------------------------------------------------------------===//
// DiskStageCache
//===----------------------------------------------------------------------===//

DiskStageCache::DiskStageCache(std::string Directory)
    : Dir(std::move(Directory)) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  Usable = !EC && std::filesystem::is_directory(Dir, EC);
}

std::string DiskStageCache::entryPath(const std::string &EntryName) const {
  return Dir + "/" + EntryName;
}

StageCacheCounters DiskStageCache::counters() const {
  StageCacheCounters C;
  C.Hits = Hits.load(std::memory_order_relaxed);
  C.Misses = Misses.load(std::memory_order_relaxed);
  C.Stores = Stores.load(std::memory_order_relaxed);
  return C;
}

bool DiskStageCache::load(const std::string &EntryName,
                          std::string &PayloadOut) const {
  if (!Usable)
    return false;
  std::string Path = entryPath(EntryName);
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  auto Reject = [&] {
    In.close();
    std::error_code EC;
    std::filesystem::remove(Path, EC); // corrupt: drop so it is rebuilt
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  };

  EntryHeader H;
  if (!In.read(reinterpret_cast<char *>(&H), sizeof(H)))
    return Reject();
  if (std::memcmp(H.M, Magic, sizeof(Magic)) != 0 ||
      H.Version != FormatVersion)
    return Reject();
  // An absurd size field (corruption) must not trigger a huge allocation:
  // compare against the actual size first. Sized through the open stream,
  // NOT through the path — a concurrent same-key writer renaming a new
  // entry over this one would make a path stat describe a *different*
  // inode than the one being read, and the spurious mismatch would delete
  // the writer's fresh, valid entry.
  In.seekg(0, std::ios::end);
  std::streamoff FileSize = In.tellg();
  if (FileSize < 0 ||
      uint64_t(FileSize) != sizeof(H) + H.PayloadSize)
    return Reject();
  In.seekg(std::streamoff(sizeof(H)), std::ios::beg);
  std::string Payload(size_t(H.PayloadSize), '\0');
  if (!In.read(Payload.data(), std::streamsize(Payload.size())))
    return Reject();
  if (fnv1a(Payload) != H.PayloadHash)
    return Reject();
  PayloadOut = std::move(Payload);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DiskStageCache::store(const std::string &EntryName,
                           const std::string &Payload) const {
  if (!Usable)
    return false;
  EntryHeader H;
  std::memcpy(H.M, Magic, sizeof(Magic));
  H.Version = FormatVersion;
  H.PayloadSize = Payload.size();
  H.PayloadHash = fnv1a(Payload);

  // Unique temporary per writer (pid + thread disambiguate concurrent
  // writers sharing one cache directory), then an atomic rename: racing
  // same-key writers produce identical payloads, so last-rename-wins is
  // correct, and no reader can ever open a partially written entry.
  std::string Path = entryPath(EntryName);
  std::string Tmp = Path + ".tmp." + std::to_string(uint64_t(::getpid())) +
                    "." +
                    std::to_string(std::hash<std::thread::id>()(
                        std::this_thread::get_id()));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(&H), sizeof(H));
    Out.write(Payload.data(), std::streamsize(Payload.size()));
    if (!Out)
      return false;
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  Stores.fetch_add(1, std::memory_order_relaxed);
  return true;
}

//===----------------------------------------------------------------------===//
// MemoryStageCache
//===----------------------------------------------------------------------===//

bool MemoryStageCache::load(const std::string &EntryName,
                            std::string &PayloadOut) const {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(EntryName);
    if (It != Map.end()) {
      Order.splice(Order.begin(), Order, It->second); // touch: LRU front
      PayloadOut = It->second->second;
      ++Stats.Hits;
      return true;
    }
    ++Stats.Misses;
  }
  // Fall through to the backing store outside the lock (disk I/O must not
  // serialize every concurrent request), then promote the hit.
  if (Backing && Backing->load(EntryName, PayloadOut)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Map.count(EntryName))
      insertLocked(EntryName, PayloadOut);
    return true;
  }
  return false;
}

bool MemoryStageCache::store(const std::string &EntryName,
                             const std::string &Payload) const {
  if (Payload.size() > MaxBytes)
    return false; // larger than the whole cache: refuse rather than thrash
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(EntryName);
    if (It != Map.end()) {
      // Same key means same payload (the entry name hashes every
      // invalidator) — just refresh recency.
      Order.splice(Order.begin(), Order, It->second);
    } else {
      insertLocked(EntryName, Payload);
    }
    ++Stats.Stores;
  }
  if (Backing)
    Backing->store(EntryName, Payload);
  return true;
}

void MemoryStageCache::insertLocked(const std::string &EntryName,
                                    const std::string &Payload) const {
  Order.emplace_front(EntryName, Payload);
  Map[EntryName] = Order.begin();
  Bytes += Payload.size();
  while (Bytes > MaxBytes && Order.size() > 1) {
    auto &Victim = Order.back();
    Bytes -= Victim.second.size();
    Map.erase(Victim.first);
    Order.pop_back();
    ++Stats.Evictions;
  }
}

StageCacheCounters MemoryStageCache::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

size_t MemoryStageCache::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

size_t MemoryStageCache::byteSize() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Bytes;
}
