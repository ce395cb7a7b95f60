//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the disk-persistent stage cache: entry round trips, a fresh
/// context (modelling a fresh bench process) restoring the training stages
/// with zero interpreter work and bit-identical results, invalidation via
/// entry naming, and tolerance of corrupted/truncated entries.
///
//===----------------------------------------------------------------------===//

#include "pipeline/PipelineBuilder.h"
#include "pipeline/StageCache.h"
#include "workloads/WorkloadBuilder.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>

using namespace helix;
namespace fs = std::filesystem;

namespace {

/// A unique cache directory per test, removed on scope exit.
struct TempCacheDir {
  TempCacheDir() {
    Dir = fs::temp_directory_path() /
          ("helix-stagecache-test-" +
           std::to_string(
               std::chrono::steady_clock::now().time_since_epoch().count()));
  }
  ~TempCacheDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string str() const { return Dir.string(); }
  fs::path Dir;
};

std::vector<fs::path> entriesIn(const fs::path &Dir) {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".stagecache")
      Out.push_back(E.path());
  return Out;
}

//===----------------------------------------------------------------------===//
// Raw entry store/load.
//===----------------------------------------------------------------------===//

TEST(DiskStageCacheRaw, StoreLoadRoundTrip) {
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());
  ASSERT_TRUE(Cache.ok());

  static const char Raw[] = "some\0binary\x7f payload";
  std::string Payload(Raw, sizeof(Raw)); // embedded and trailing NULs kept
  ASSERT_TRUE(Cache.store("a-b-c.stagecache", Payload));
  std::string Back;
  ASSERT_TRUE(Cache.load("a-b-c.stagecache", Back));
  EXPECT_EQ(Back, Payload);

  // Missing entries miss cleanly.
  EXPECT_FALSE(Cache.load("nope.stagecache", Back));
}

TEST(DiskStageCacheRaw, CorruptedEntriesAreMissesAndRemoved) {
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());
  ASSERT_TRUE(Cache.ok());
  std::string Payload(1024, 'x');

  struct Case {
    const char *Name;
    void (*Damage)(const fs::path &);
  };
  const Case Cases[] = {
      {"truncated",
       [](const fs::path &P) { fs::resize_file(P, fs::file_size(P) / 2); }},
      {"flipped-payload-byte",
       [](const fs::path &P) {
         std::fstream F(P, std::ios::in | std::ios::out | std::ios::binary);
         F.seekp(-1, std::ios::end);
         F.put('y');
       }},
      {"bad-magic",
       [](const fs::path &P) {
         std::fstream F(P, std::ios::in | std::ios::out | std::ios::binary);
         F.seekp(0);
         F.put('Z');
       }},
      {"empty-file",
       [](const fs::path &P) { std::ofstream(P, std::ios::trunc); }},
      {"grown-size-field",
       [](const fs::path &P) {
         // Corrupt the payload-size field with a huge value: load must
         // reject it from the file size alone, not allocate.
         std::fstream F(P, std::ios::in | std::ios::out | std::ios::binary);
         F.seekp(8);
         uint64_t Huge = ~uint64_t(0) >> 8;
         F.write(reinterpret_cast<const char *>(&Huge), sizeof(Huge));
       }},
  };
  for (const Case &C : Cases) {
    std::string Entry = std::string("w-s-") + C.Name + ".stagecache";
    ASSERT_TRUE(Cache.store(Entry, Payload)) << C.Name;
    C.Damage(fs::path(Tmp.str()) / Entry);
    std::string Back;
    EXPECT_FALSE(Cache.load(Entry, Back)) << C.Name;
    // The damaged entry was dropped so the next run rebuilds it.
    EXPECT_FALSE(fs::exists(fs::path(Tmp.str()) / Entry)) << C.Name;
  }
}

TEST(DiskStageCacheRaw, UnusableDirectoryDegradesGracefully) {
  // A path that cannot be a directory: the cache is inert, not fatal.
  TempCacheDir Tmp;
  fs::create_directories(Tmp.Dir);
  std::ofstream(Tmp.Dir / "file").put('x');
  DiskStageCache Cache((Tmp.Dir / "file").string());
  EXPECT_FALSE(Cache.ok());
  std::string Out;
  EXPECT_FALSE(Cache.load("e.stagecache", Out));
  EXPECT_FALSE(Cache.store("e.stagecache", "p"));
}

TEST(DiskStageCacheRaw, EntryNamesSeparateEveryInvalidator) {
  std::string Base = DiskStageCache::entryName("gzip", "profile", "k1", "f1");
  EXPECT_NE(Base, DiskStageCache::entryName("art", "profile", "k1", "f1"));
  EXPECT_NE(Base, DiskStageCache::entryName("gzip", "candidates", "k1", "f1"));
  EXPECT_NE(Base, DiskStageCache::entryName("gzip", "profile", "k2", "f1"));
  EXPECT_NE(Base, DiskStageCache::entryName("gzip", "profile", "k1", "f2"));
  EXPECT_EQ(Base, DiskStageCache::entryName("gzip", "profile", "k1", "f1"));
  // Hostile workload keys cannot escape the cache directory.
  std::string Evil =
      DiskStageCache::entryName("../../etc/passwd", "profile", "k", "f");
  EXPECT_EQ(Evil.find('/'), std::string::npos) << Evil;
}

//===----------------------------------------------------------------------===//
// Whole-pipeline persistence.
//===----------------------------------------------------------------------===//

TEST(StageCachePipeline, SecondContextRestoresTrainingStagesFromDisk) {
  auto M = buildSpecWorkload("gzip");
  ASSERT_NE(M, nullptr);
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());
  ASSERT_TRUE(Cache.ok());

  // First "process": cold run, populates the cache.
  PipelineContext Cold(*M);
  Cold.setStageCache(&Cache, "gzip");
  PipelineReport R1 = PipelineBuilder::standard().run(Cold);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_EQ(Cold.timesExecuted("profile"), 1u);
  EXPECT_GE(entriesIn(Tmp.Dir).size(), 3u); // profile, candidates, model

  // Second "process": a fresh context over the same module and cache.
  PipelineContext Warm(*M);
  Warm.setStageCache(&Cache, "gzip");
  PipelineReport R2 = PipelineBuilder::standard().run(Warm);
  ASSERT_TRUE(R2.Ok) << R2.Error;

  // The training stages never executed — they were restored from disk
  // with zero training-run interpreter instructions.
  EXPECT_EQ(Warm.timesExecuted("profile"), 0u);
  EXPECT_EQ(Warm.timesExecuted("candidates"), 0u);
  EXPECT_EQ(Warm.timesExecuted("model-profile"), 0u);
  EXPECT_EQ(Warm.timesLoadedFromDisk("profile"), 1u);
  EXPECT_EQ(Warm.timesLoadedFromDisk("candidates"), 1u);
  EXPECT_EQ(Warm.timesLoadedFromDisk("model-profile"), 1u);
  for (const PipelineContext::StageRun &R : Warm.history()) {
    if (R.FromDisk) {
      EXPECT_EQ(R.InterpretedInstructions, 0u) << R.Name;
    }
  }

  // And the end-to-end results are bit-identical to the cold run.
  EXPECT_EQ(R1.SeqCycles, R2.SeqCycles);
  EXPECT_EQ(R1.ParCycles, R2.ParCycles);
  EXPECT_DOUBLE_EQ(R1.Speedup, R2.Speedup);
  EXPECT_DOUBLE_EQ(R1.ModelSpeedup, R2.ModelSpeedup);
  EXPECT_EQ(R1.OutputsMatch, R2.OutputsMatch);
  EXPECT_EQ(R1.NumCandidates, R2.NumCandidates);
  ASSERT_EQ(R1.Loops.size(), R2.Loops.size());
  for (size_t I = 0; I != R1.Loops.size(); ++I) {
    EXPECT_EQ(R1.Loops[I].Name, R2.Loops[I].Name);
    EXPECT_EQ(R1.Loops[I].Inputs.SeqCycles, R2.Loops[I].Inputs.SeqCycles);
  }
}

TEST(StageCachePipeline, ModelProfileAnalysisCountersSurviveDiskRestore) {
  // ROADMAP PR 4 follow-up: the analysis-cache counters of the
  // model-profile stage's per-candidate transforms ride in the disk
  // payload, so a sweep served entirely from the cache still reports the
  // analysis behaviour of the run that produced the entry.
  auto M = buildSpecWorkload("gzip");
  ASSERT_NE(M, nullptr);
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());
  ASSERT_TRUE(Cache.ok());

  PipelineContext Cold(*M);
  Cold.setStageCache(&Cache, "gzip");
  PipelineReport R1 = PipelineBuilder::standard().run(Cold);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_FALSE(R1.ModelProfileAnalysisCounters.empty());

  PipelineContext Warm(*M);
  Warm.setStageCache(&Cache, "gzip");
  PipelineReport R2 = PipelineBuilder::standard().run(Warm);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(Warm.timesExecuted("model-profile"), 0u);
  EXPECT_EQ(Warm.timesLoadedFromDisk("model-profile"), 1u);

  ASSERT_EQ(R1.ModelProfileAnalysisCounters.size(),
            R2.ModelProfileAnalysisCounters.size());
  for (size_t K = 0; K != R1.ModelProfileAnalysisCounters.size(); ++K) {
    const AnalysisCounterReport &A = R1.ModelProfileAnalysisCounters[K];
    const AnalysisCounterReport &B = R2.ModelProfileAnalysisCounters[K];
    EXPECT_EQ(A.Analysis, B.Analysis);
    EXPECT_EQ(A.Built, B.Built);
    EXPECT_EQ(A.Hits, B.Hits);
    EXPECT_EQ(A.Invalidated, B.Invalidated);
  }
}

TEST(StageCachePipeline, ConfigChangeMissesTheDiskCache) {
  auto M = buildSpecWorkload("gzip");
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());

  PipelineContext A(*M);
  A.setStageCache(&Cache, "gzip");
  ASSERT_TRUE(PipelineBuilder::standard().run(A).Ok);

  // A different NumCores changes model-profile's slice but not profile's:
  // the fresh context restores profile from disk and re-trains the model.
  PipelineConfig C;
  C.NumCores = 2;
  PipelineContext B(*M, C);
  B.setStageCache(&Cache, "gzip");
  ASSERT_TRUE(PipelineBuilder::standard().run(B).Ok);
  EXPECT_EQ(B.timesLoadedFromDisk("profile"), 1u);
  EXPECT_EQ(B.timesLoadedFromDisk("candidates"), 1u);
  EXPECT_EQ(B.timesExecuted("model-profile"), 1u);
  EXPECT_EQ(B.timesLoadedFromDisk("model-profile"), 0u);
}

TEST(StageCachePipeline, DifferentWorkloadKeyOrModuleMisses) {
  auto M = buildSpecWorkload("gzip");
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());

  PipelineContext A(*M);
  A.setStageCache(&Cache, "gzip");
  ASSERT_TRUE(PipelineBuilder::standard().run(A).Ok);

  // Same key, different program: the module fingerprint must miss — a
  // collision here would silently profile the wrong program.
  auto Other = buildSpecWorkload("art");
  PipelineContext B(*Other);
  B.setStageCache(&Cache, "gzip");
  ASSERT_TRUE(PipelineBuilder::standard().run(B).Ok);
  EXPECT_EQ(B.timesLoadedFromDisk("profile"), 0u);
  EXPECT_EQ(B.timesExecuted("profile"), 1u);
}

TEST(StageCachePipeline, CorruptedEntriesFallBackToExecution) {
  auto M = buildSpecWorkload("gzip");
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());

  PipelineContext A(*M);
  A.setStageCache(&Cache, "gzip");
  PipelineReport R1 = PipelineBuilder::standard().run(A);
  ASSERT_TRUE(R1.Ok);

  // Flip one payload byte in every entry.
  for (const fs::path &P : entriesIn(Tmp.Dir)) {
    std::fstream F(P, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-1, std::ios::end);
    char C = 0;
    F.seekg(-1, std::ios::end);
    F.get(C);
    F.seekp(-1, std::ios::end);
    F.put(char(C ^ 0x5a));
  }

  PipelineContext B(*M);
  B.setStageCache(&Cache, "gzip");
  PipelineReport R2 = PipelineBuilder::standard().run(B);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  // Every stage re-executed (no disk hits), results are still correct.
  EXPECT_EQ(B.timesLoadedFromDisk("profile"), 0u);
  EXPECT_EQ(B.timesExecuted("profile"), 1u);
  EXPECT_EQ(R1.SeqCycles, R2.SeqCycles);
  EXPECT_DOUBLE_EQ(R1.Speedup, R2.Speedup);
}

TEST(StageCachePipeline, TruncatedPayloadInsideValidEnvelopeIsRejected) {
  // Damage *inside* the serialized stage payload while keeping the file
  // checksum consistent is impossible (the checksum covers the payload),
  // but a payload that parses yet disagrees with the context must still
  // be rejected: store a candidates entry claiming out-of-range nodes.
  auto M = buildSpecWorkload("gzip");
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());

  PipelineContext A(*M);
  A.setStageCache(&Cache, "gzip");
  ASSERT_TRUE(PipelineBuilder::standard().run(A).Ok);

  // Overwrite every candidates entry with a payload naming node 10^6.
  std::string Bogus;
  uint32_t N = 1;
  uint32_t Node = 1000000;
  Bogus.append(reinterpret_cast<const char *>(&N), 4);
  Bogus.append(reinterpret_cast<const char *>(&Node), 4);
  unsigned Overwritten = 0;
  for (const fs::path &P : entriesIn(Tmp.Dir))
    if (P.filename().string().find("-candidates-") != std::string::npos) {
      ASSERT_TRUE(Cache.store(P.filename().string(), Bogus));
      ++Overwritten;
    }
  ASSERT_GT(Overwritten, 0u);

  PipelineContext B(*M);
  B.setStageCache(&Cache, "gzip");
  PipelineReport R = PipelineBuilder::standard().run(B);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(B.timesLoadedFromDisk("candidates"), 0u);
  EXPECT_EQ(B.timesExecuted("candidates"), 1u);
  EXPECT_GT(R.NumCandidates, 0u);
}

TEST(StageCachePipeline, SweepSharesDiskAndMemoryCaches) {
  // The bench shape: several configuration points on one context, then a
  // fresh process sweeping again. Points after the first hit in memory;
  // the fresh process hits disk once per training stage key.
  auto M = buildSpecWorkload("art");
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());

  const double Latencies[3] = {0.0, 4.0, 110.0};
  auto Sweep = [&](PipelineContext &Ctx) {
    for (double S : Latencies) {
      PipelineConfig C;
      C.Selection.SignalCycles = S;
      Ctx.setConfig(C);
      ASSERT_TRUE(PipelineBuilder::standard().run(Ctx).Ok);
    }
  };

  PipelineContext A(*M);
  A.setStageCache(&Cache, "art");
  Sweep(A);
  EXPECT_EQ(A.timesExecuted("profile"), 1u);
  EXPECT_EQ(A.timesReused("profile"), 2u);

  PipelineContext B(*M);
  B.setStageCache(&Cache, "art");
  Sweep(B);
  EXPECT_EQ(B.timesExecuted("profile"), 0u);
  EXPECT_EQ(B.timesLoadedFromDisk("profile"), 1u);
  EXPECT_EQ(B.timesReused("profile"), 2u);
  EXPECT_EQ(B.timesExecuted("model-profile"), 0u);
  EXPECT_EQ(B.timesLoadedFromDisk("model-profile"), 1u);
}


//===----------------------------------------------------------------------===//
// Concurrency: same-key writers and readers.
//===----------------------------------------------------------------------===//

TEST(DiskStageCacheConcurrent, TwoWritersOneKeyNeverTearAnEntry) {
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());
  ASSERT_TRUE(Cache.ok());

  // Two threads repeatedly store *different-length* payloads under one
  // key while two more load it. The reader validates the size of the
  // inode it opened (not of whatever the path points at by then), so the
  // only legal outcomes are a clean miss or one of the two exact
  // payloads — never a mix, never a spurious rejection that deletes the
  // writer's fresh entry.
  const std::string Key = "race-key.stagecache";
  const std::string PayloadA(4096, 'a');
  const std::string PayloadB(9000, 'b');
  constexpr int Rounds = 300;

  std::atomic<bool> Stop{false};
  std::atomic<int> TornReads{0};

  auto Writer = [&](const std::string &Payload) {
    for (int I = 0; I != Rounds; ++I)
      Cache.store(Key, Payload);
  };
  auto Reader = [&] {
    std::string Back;
    while (!Stop.load()) {
      if (!Cache.load(Key, Back))
        continue; // clean miss: acceptable before the first store lands
      if (Back != PayloadA && Back != PayloadB)
        TornReads.fetch_add(1);
    }
  };

  std::thread R1(Reader), R2(Reader);
  std::thread W1(Writer, PayloadA), W2(Writer, PayloadB);
  W1.join();
  W2.join();
  Stop.store(true);
  R1.join();
  R2.join();

  EXPECT_EQ(TornReads.load(), 0);
  // The last rename won: the entry is intact and loadable afterwards.
  std::string Back;
  ASSERT_TRUE(Cache.load(Key, Back));
  EXPECT_TRUE(Back == PayloadA || Back == PayloadB);
}

TEST(DiskStageCacheConcurrent, LoadOfFreshEntryNeverSpuriouslyRejects) {
  TempCacheDir Tmp;
  DiskStageCache Cache(Tmp.str());
  ASSERT_TRUE(Cache.ok());

  // Regression shape for the torn-read window: the loader used to size
  // the *path* while reading the *originally opened* file, so a store
  // renaming a different-length payload over the key mid-load made the
  // sizes disagree — the load failed AND deleted the brand-new valid
  // entry. With per-inode sizing every load of an existing entry must
  // succeed once stores have quiesced, and no store may be lost.
  const std::string Key = "fresh-key.stagecache";
  for (int Round = 0; Round != 50; ++Round) {
    const std::string Small(128, char('a' + Round % 26));
    const std::string Large(8192, char('A' + Round % 26));
    std::thread W([&] { Cache.store(Key, Large); });
    std::string Back;
    Cache.store(Key, Small);
    Cache.load(Key, Back); // racing load; outcome content-checked above
    W.join();
    // Quiesced: the entry must exist and hold one writer's exact bytes.
    ASSERT_TRUE(Cache.load(Key, Back)) << "fresh entry lost in round "
                                       << Round;
    EXPECT_TRUE(Back == Small || Back == Large);
  }
}

//===----------------------------------------------------------------------===//
// MemoryStageCache.
//===----------------------------------------------------------------------===//

TEST(MemoryStageCache, HitMissStoreCounters) {
  MemoryStageCache Cache;
  std::string Back;
  EXPECT_FALSE(Cache.load("a", Back));
  ASSERT_TRUE(Cache.store("a", "payload"));
  ASSERT_TRUE(Cache.load("a", Back));
  EXPECT_EQ(Back, "payload");
  StageCacheCounters C = Cache.counters();
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Stores, 1u);
  EXPECT_EQ(Cache.entryCount(), 1u);
}

TEST(MemoryStageCache, EvictsLeastRecentlyUsedUnderByteBound) {
  // Bound fits two 100-byte payloads (plus names), not three.
  MemoryStageCache Cache(/*MaxBytes=*/260);
  ASSERT_TRUE(Cache.store("k1", std::string(100, '1')));
  ASSERT_TRUE(Cache.store("k2", std::string(100, '2')));
  std::string Back;
  ASSERT_TRUE(Cache.load("k1", Back)); // k1 is now most recent
  ASSERT_TRUE(Cache.store("k3", std::string(100, '3')));
  EXPECT_FALSE(Cache.load("k2", Back)) << "LRU victim was not k2";
  EXPECT_TRUE(Cache.load("k1", Back));
  EXPECT_TRUE(Cache.load("k3", Back));
  EXPECT_GT(Cache.counters().Evictions, 0u);
}

TEST(MemoryStageCache, WritesThroughAndPromotesFromBacking) {
  TempCacheDir Tmp;
  DiskStageCache Disk(Tmp.str());
  ASSERT_TRUE(Disk.ok());
  MemoryStageCache Front(size_t(1) << 20, &Disk);

  // Store through the front: the disk sees it too.
  ASSERT_TRUE(Front.store("wt.stagecache", "hello"));
  std::string Back;
  ASSERT_TRUE(Disk.load("wt.stagecache", Back));
  EXPECT_EQ(Back, "hello");

  // An entry only on disk is promoted into the front on first load.
  ASSERT_TRUE(Disk.store("cold.stagecache", "promoted"));
  ASSERT_TRUE(Front.load("cold.stagecache", Back));
  EXPECT_EQ(Back, "promoted");
  uint64_t DiskHitsBefore = Disk.counters().Hits;
  ASSERT_TRUE(Front.load("cold.stagecache", Back)); // now served warm
  EXPECT_EQ(Disk.counters().Hits, DiskHitsBefore)
      << "second load should not reach the disk";
}

TEST(MemoryStageCache, ConcurrentSameKeyStoreLoad) {
  MemoryStageCache Cache;
  const std::string Key = "shared";
  const std::string PayloadA(512, 'a');
  const std::string PayloadB(2048, 'b');
  std::atomic<int> Bad{0};
  constexpr int Rounds = 2000;

  std::thread T1([&] {
    std::string Back;
    for (int I = 0; I != Rounds; ++I) {
      Cache.store(Key, PayloadA);
      if (Cache.load(Key, Back) && Back != PayloadA && Back != PayloadB)
        Bad.fetch_add(1);
    }
  });
  std::thread T2([&] {
    std::string Back;
    for (int I = 0; I != Rounds; ++I) {
      Cache.store(Key, PayloadB);
      if (Cache.load(Key, Back) && Back != PayloadA && Back != PayloadB)
        Bad.fetch_add(1);
    }
  });
  T1.join();
  T2.join();
  EXPECT_EQ(Bad.load(), 0);
  std::string Back;
  ASSERT_TRUE(Cache.load(Key, Back));
  EXPECT_TRUE(Back == PayloadA || Back == PayloadB);
}

} // namespace
