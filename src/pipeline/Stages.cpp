#include "pipeline/Stages.h"

#include "check/DepAudit.h"
#include "check/SyncChecker.h"
#include "helix/HelixTransform.h"
#include "helix/LoopSelection.h"
#include "ir/Clone.h"
#include "obs/Metrics.h"
#include "pipeline/PipelineContext.h"
#include "support/Compiler.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

using namespace helix;

//===----------------------------------------------------------------------===//
// Cache-key helpers: serialize exactly the configuration slice a stage
// reads, nothing more, so unrelated knob changes never invalidate it.
//===----------------------------------------------------------------------===//

namespace {

std::string machineKey(const MachineModel &M) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "u%.17g,p%.17g,w%.17g,c%.17g",
                M.UnprefetchedSignalCycles, M.PrefetchedSignalCycles,
                M.WordTransferCycles, M.LoopConfigCycles);
  return Buf;
}

std::string transformKey(const HelixOptions &O) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "i%d,s%d,o%d,h%d,b%d;",
                int(O.EnableInlining), int(O.EnableScheduling),
                int(O.EnableSignalOpt), int(O.EnableHelperThreads),
                int(O.EnableBalancing));
  return Buf + machineKey(O.Machine);
}

//===----------------------------------------------------------------------===//
// Payload (de)serialization for the disk-persistent stage cache. Fixed
// little-endian-agnostic byte copies of POD scalars; strings and vectors
// are length-prefixed. The reader is fail-sticky: after the first
// malformed field every subsequent read reports failure, so stages can
// parse a whole payload and check once at the end.
//===----------------------------------------------------------------------===//

class PayloadWriter {
public:
  explicit PayloadWriter(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(char(V)); }
  void u32(uint32_t V) { raw(&V, sizeof(V)); }
  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void f64(double V) { raw(&V, sizeof(V)); }
  void str(const std::string &S) {
    u32(uint32_t(S.size()));
    raw(S.data(), S.size());
  }

private:
  void raw(const void *P, size_t N) {
    Out.append(reinterpret_cast<const char *>(P), N);
  }
  std::string &Out;
};

class PayloadReader {
public:
  explicit PayloadReader(const std::string &In) : In(In) {}

  uint8_t u8() {
    uint8_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  double f64() {
    double V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (Failed || In.size() - Pos < N) {
      Failed = true;
      return std::string();
    }
    std::string S(In.data() + Pos, N);
    Pos += N;
    return S;
  }

  /// True when every read so far succeeded and the payload was consumed
  /// exactly (trailing garbage counts as corruption).
  bool done() const { return !Failed && Pos == In.size(); }
  bool ok() const { return !Failed; }

private:
  void raw(void *P, size_t N) {
    if (Failed || In.size() - Pos < N) {
      Failed = true;
      return;
    }
    std::memcpy(P, In.data() + Pos, N);
    Pos += N;
  }
  const std::string &In;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Shared stage helpers (formerly private to the monolithic driver).
//===----------------------------------------------------------------------===//

/// Model inputs extracted from the traces of one loop, with data-forwarding
/// words counted under round-robin placement on \p NumCores cores.
LoopModelInputs inputsFromTraces(const LoopTraces &T, unsigned NumCores,
                                 const MachineModel &Machine,
                                 bool HelperThreads) {
  // PipelineConfig::validate() rejects NumCores == 0 before any stage
  // runs, but this helper is also reachable with caller-supplied counts:
  // clamp like simulateInvocation does rather than divide by zero below.
  NumCores = std::max(1u, NumCores);
  LoopModelInputs In;
  In.SelfStarting = T.PLI && T.PLI->SelfStartingPrologue;
  In.Invocations = T.Invocations.size();
  for (const InvocationTrace &Inv : T.Invocations) {
    std::map<uint32_t, uint64_t> SlotWriter;
    for (uint64_t I = 0; I != Inv.Iterations.size(); ++I) {
      const IterationTrace &It = Inv.Iterations[I];
      ++In.Iterations;
      In.SeqCycles += It.TotalCycles;
      In.PrologueCycles += It.PrologueCycles;
      In.SegmentCycles += It.SegmentCycles;
      In.ParallelCycles +=
          It.TotalCycles - It.PrologueCycles - It.SegmentCycles;
      uint64_t SignalMask = 0;
      for (const IterEvent &E : It.Events) {
        if (E.K == IterEvent::Kind::Signal) {
          if (E.A < 64 && !(SignalMask & (uint64_t(1) << E.A))) {
            SignalMask |= uint64_t(1) << E.A;
            ++In.DataSignals;
          }
        } else if (E.K == IterEvent::Kind::SlotWrite) {
          SlotWriter[E.A] = I;
        } else if (E.K == IterEvent::Kind::SlotRead) {
          auto W = SlotWriter.find(E.A);
          if (W != SlotWriter.end() && W->second != I &&
              (I - W->second) % NumCores != 0)
            ++In.WordsForwarded;
        }
      }
    }
  }
  // Section 3.3: per-loop effective signal latency. The helper thread can
  // hide (gap) cycles of the unprefetched latency, where gap is the average
  // run of non-segment code between consecutive sequential segments.
  if (!HelperThreads) {
    In.EffSignalCycles = Machine.UnprefetchedSignalCycles;
  } else if (In.Iterations > 0) {
    // Signals the helper must hide per iteration: the data signals, plus
    // the control signal unless the prologue is self-starting (Step 3's
    // counted-loop case needs no control signals at all).
    uint64_t SignalsPerRun =
        In.DataSignals + (In.SelfStarting ? 0 : In.Iterations);
    if (SignalsPerRun == 0) {
      In.EffSignalCycles = Machine.PrefetchedSignalCycles;
    } else {
      double Gap =
          double(In.SeqCycles - In.SegmentCycles) / double(SignalsPerRun);
      In.EffSignalCycles = std::max(Machine.PrefetchedSignalCycles,
                                    Machine.UnprefetchedSignalCycles - Gap);
    }
  }
  return In;
}

ModelParams makeModelParams(const PipelineConfig &Config,
                            double SignalCycles) {
  ModelParams P;
  P.NumCores = Config.NumCores;
  P.SignalCycles = SignalCycles;
  P.StartStopSignalCycles = Config.Helix.Machine.UnprefetchedSignalCycles;
  P.WordTransferCycles = Config.Helix.Machine.WordTransferCycles;
  P.ConfCycles = Config.Helix.Machine.LoopConfigCycles;
  return P;
}

/// Dynamic nesting level of every node (1 = outermost), from the profiled
/// edges (shortest distance from a dynamic root).
std::vector<unsigned> dynamicLevels(const LoopNestGraph &LNG,
                                    const ProgramProfile &Profile) {
  unsigned N = LNG.numNodes();
  std::vector<std::vector<unsigned>> Children(N);
  std::vector<unsigned> Parents(N, 0);
  for (auto &[From, To] : Profile.DynamicEdges) {
    Children[From].push_back(To);
    ++Parents[To];
  }
  std::vector<unsigned> Level(N, 0);
  std::vector<unsigned> Queue;
  for (unsigned I = 0; I != N; ++I)
    if (Profile.executed(I) && Parents[I] == 0) {
      Level[I] = 1;
      Queue.push_back(I);
    }
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    unsigned Node = Queue[Head];
    for (unsigned C : Children[Node])
      if (Level[C] == 0) {
        Level[C] = Level[Node] + 1;
        Queue.push_back(C);
      }
  }
  return Level;
}

/// Clones \p Source and parallelizes the loops named by \p Nodes there.
/// Nodes whose transformation failed are dropped. The analyses of the
/// clone are returned too (invalidated by the transformation; the caller
/// may keep them for lazy recomputation).
struct TransformedProgram {
  std::unique_ptr<Module> M;
  std::unique_ptr<AnalysisManager> AM;
  std::vector<std::pair<unsigned, ParallelLoopInfo>> Loops;
};

TransformedProgram transformChosen(const Module &Source,
                                   const LoopNestGraph &LNG,
                                   const std::vector<unsigned> &Nodes,
                                   const HelixOptions &Opts,
                                   std::vector<LoopPassTiming> *Timings =
                                       nullptr,
                                   bool ConservativeInvalidation = false) {
  TransformedProgram Out;
  CloneMap Map;
  Out.M = cloneModule(Source, &Map);
  Out.AM = std::make_unique<AnalysisManager>(*Out.M);
  Out.AM->setConservativeInvalidation(ConservativeInvalidation);
  for (unsigned Node : Nodes) {
    const LoopNestNode &N = LNG.node(Node);
    Function *F = Map.Functions.at(N.F);
    BasicBlock *Header = Map.Blocks.at(N.L->header());
    std::optional<ParallelLoopInfo> PLI =
        parallelizeLoop(*Out.AM, F, Header, Opts, Timings);
    if (PLI)
      Out.Loops.push_back({Node, std::move(*PLI)});
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// profile
//===----------------------------------------------------------------------===//

std::string ProfileStage::cacheKey(const PipelineConfig &Config) const {
  // The training run depends on the module the context is bound to and on
  // the interpreter run-length cap: a capped run that failed must not be
  // served as the profile of a configuration with a higher cap (or vice
  // versa) across a MaxInterpInstructions sweep. "v2" is a code-version
  // token (results persist to disk): bump it when the profiler or the
  // interpreter cost model changes semantically.
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "v2;m%llu",
                (unsigned long long)Config.MaxInterpInstructions);
  return Buf;
}

void ProfileStage::resetReport(PipelineReport &Report) const {
  Report.SeqCycles = 0;
  Report.NumLoopsInProgram = 0;
}

bool ProfileStage::run(PipelineContext &Ctx) {
  Ctx.Pristine = cloneModule(Ctx.original());
  Ctx.AM = std::make_unique<AnalysisManager>(*Ctx.Pristine);
  Ctx.LNG = std::make_unique<LoopNestGraph>(*Ctx.Pristine, *Ctx.AM);
  Ctx.Report.NumLoopsInProgram = Ctx.LNG->numNodes();

  Ctx.Profile = profileProgram(*Ctx.Pristine, *Ctx.LNG, *Ctx.AM, &Ctx.SeqRun,
                               Ctx.config().MaxInterpInstructions);
  Ctx.noteInterpreted(Ctx.SeqRun.Instructions);
  if (!Ctx.SeqRun.Ok) {
    Ctx.Report.Error = "sequential profiling run failed: " + Ctx.SeqRun.Error;
    return false;
  }
  Ctx.Report.SeqCycles = Ctx.SeqRun.Cycles;
  Ctx.Levels = dynamicLevels(*Ctx.LNG, Ctx.Profile);
  return true;
}

bool ProfileStage::serializeResult(const PipelineContext &Ctx,
                                   std::string &Out) const {
  // Only what the training run *executed* is persisted. The pristine
  // clone, its analyses and the loop nesting graph are deterministic
  // functions of the original module and are rebuilt on load.
  PayloadWriter W(Out);
  W.u8(Ctx.SeqRun.ReturnValue.IsFloat ? 1 : 0);
  // The value union's 8 payload bytes, without reading a (possibly
  // inactive) member.
  uint64_t ValueBits = 0;
  std::memcpy(&ValueBits, &Ctx.SeqRun.ReturnValue.I, sizeof(ValueBits));
  W.u64(ValueBits);
  W.u64(Ctx.SeqRun.Cycles);
  W.u64(Ctx.SeqRun.Instructions);

  W.u64(Ctx.Profile.TotalCycles);
  W.u32(uint32_t(Ctx.Profile.Loops.size()));
  for (const LoopProfile &LP : Ctx.Profile.Loops) {
    W.u64(LP.Invocations);
    W.u64(LP.Iterations);
    W.u64(LP.Cycles);
  }
  W.u32(uint32_t(Ctx.Profile.DynamicEdges.size()));
  for (const auto &[From, To] : Ctx.Profile.DynamicEdges) {
    W.u32(From);
    W.u32(To);
  }
  W.u32(uint32_t(Ctx.Levels.size()));
  for (unsigned L : Ctx.Levels)
    W.u32(L);
  return true;
}

bool ProfileStage::deserializeResult(PipelineContext &Ctx,
                                     const std::string &In) const {
  // Parse and validate everything before committing any artifact, so a
  // rejected payload leaves the context exactly as it was.
  PayloadReader R(In);
  ExecResult Seq;
  Seq.Ok = true; // only successful stage executions are ever stored
  Seq.ReturnValue.IsFloat = R.u8() != 0;
  uint64_t ValueBits = R.u64();
  std::memcpy(&Seq.ReturnValue.I, &ValueBits, sizeof(ValueBits));
  Seq.Cycles = R.u64();
  Seq.Instructions = R.u64();

  ProgramProfile Profile;
  Profile.TotalCycles = R.u64();
  uint32_t NumLoops = R.u32();
  if (!R.ok() || NumLoops > In.size()) // cheap sanity bound
    return false;
  Profile.Loops.resize(NumLoops);
  for (LoopProfile &LP : Profile.Loops) {
    LP.Invocations = R.u64();
    LP.Iterations = R.u64();
    LP.Cycles = R.u64();
  }
  uint32_t NumEdges = R.u32();
  if (!R.ok() || NumEdges > In.size())
    return false;
  for (uint32_t I = 0; I != NumEdges; ++I) {
    unsigned From = R.u32(), To = R.u32();
    if (From >= NumLoops || To >= NumLoops)
      return false;
    Profile.DynamicEdges.insert({From, To});
  }
  uint32_t NumLevels = R.u32();
  if (!R.ok() || NumLevels != NumLoops)
    return false;
  std::vector<unsigned> Levels(NumLevels);
  for (unsigned &L : Levels)
    L = R.u32();
  if (!R.done())
    return false;

  // Rebuild the deterministic artifacts; the payload must describe this
  // exact program (one more guard against a key collision).
  auto Pristine = cloneModule(Ctx.original());
  auto AM = std::make_unique<AnalysisManager>(*Pristine);
  auto LNG = std::make_unique<LoopNestGraph>(*Pristine, *AM);
  if (LNG->numNodes() != NumLoops)
    return false;

  Ctx.Pristine = std::move(Pristine);
  Ctx.AM = std::move(AM);
  Ctx.LNG = std::move(LNG);
  Ctx.SeqRun = Seq;
  Ctx.Profile = std::move(Profile);
  Ctx.Levels = std::move(Levels);
  Ctx.Report.NumLoopsInProgram = Ctx.LNG->numNodes();
  Ctx.Report.SeqCycles = Seq.Cycles;
  return true;
}

//===----------------------------------------------------------------------===//
// candidates
//===----------------------------------------------------------------------===//

std::string CandidateStage::cacheKey(const PipelineConfig &Config) const {
  // The leading "c1" is a code-version token: results of this stage are
  // persisted to disk, so bump it whenever the candidate filter's
  // *implementation* changes — config knobs alone cannot invalidate
  // entries produced by older code.
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "c1;f%.17g",
                Config.Selection.MinLoopCycleFraction);
  return Buf;
}

void CandidateStage::resetReport(PipelineReport &Report) const {
  Report.NumCandidates = 0;
}

bool CandidateStage::run(PipelineContext &Ctx) {
  Ctx.Candidates.clear();
  for (unsigned Node = 0; Node != Ctx.LNG->numNodes(); ++Node) {
    const LoopProfile &LP = Ctx.Profile.Loops[Node];
    if (LP.Invocations == 0 || LP.Iterations <= LP.Invocations)
      continue;
    if (double(LP.Cycles) < Ctx.config().Selection.MinLoopCycleFraction *
                               double(Ctx.Profile.TotalCycles))
      continue;
    Ctx.Candidates.push_back(Node);
  }
  Ctx.Report.NumCandidates = unsigned(Ctx.Candidates.size());
  return true;
}

bool CandidateStage::serializeResult(const PipelineContext &Ctx,
                                     std::string &Out) const {
  PayloadWriter W(Out);
  W.u32(uint32_t(Ctx.Candidates.size()));
  for (unsigned Node : Ctx.Candidates)
    W.u32(Node);
  return true;
}

bool CandidateStage::deserializeResult(PipelineContext &Ctx,
                                       const std::string &In) const {
  if (!Ctx.LNG)
    return false; // upstream artifacts absent: cannot validate node ids
  PayloadReader R(In);
  uint32_t N = R.u32();
  if (!R.ok() || N > Ctx.LNG->numNodes())
    return false;
  std::vector<unsigned> Candidates(N);
  for (unsigned &Node : Candidates) {
    Node = R.u32();
    if (Node >= Ctx.LNG->numNodes())
      return false;
  }
  if (!R.done())
    return false;
  Ctx.Candidates = std::move(Candidates);
  Ctx.Report.NumCandidates = N;
  return true;
}

//===----------------------------------------------------------------------===//
// model-profile
//===----------------------------------------------------------------------===//

std::string ModelProfilingStage::cacheKey(const PipelineConfig &Config) const {
  // A forced nesting level skips model profiling entirely, so all forced
  // configurations share one key. The leading "p3" is a code-version
  // token (results persist to disk): bump it when the model-input
  // extraction, the transform, the interpreter cost model, or the payload
  // layout changes (p1 -> p2: analysis counters joined the payload;
  // p2 -> p3: value-range dependence refinement changed the transform).
  if (Config.Selection.ForceNestingLevel >= 1)
    return "p3;forced";
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "p3;n%u,m%llu;", Config.NumCores,
                (unsigned long long)Config.MaxInterpInstructions);
  return Buf + transformKey(Config.Helix);
}

void ModelProfilingStage::resetReport(PipelineReport &Report) const {
  Report.ModelProfileAnalysisCounters.clear();
}

bool ModelProfilingStage::run(PipelineContext &Ctx) {
  const PipelineConfig &Config = Ctx.config();
  Ctx.ModelInputs.assign(Ctx.LNG->numNodes(), std::nullopt);
  Ctx.Report.ModelProfileAnalysisCounters.clear();
  if (Config.Selection.ForceNestingLevel >= 1)
    return true; // selection will not consult the model

  // Fan out over the candidates: each evaluation clones the pristine
  // module, transforms one loop there and re-interprets the program — all
  // state a worker touches is thread-private (the clone, its analyses, the
  // trace collector, the interpreter), and the shared inputs (Pristine,
  // LNG, Config) are only read. parallelizeLoop's pass manager is a const
  // singleton of stateless passes, so it is shared safely too. Every
  // worker writes only its own pre-sized slot; the merge below walks the
  // slots in candidate order, which makes ModelInputs and the interpreted-
  // instruction accounting bit-identical to a single-thread run no matter
  // how the schedule interleaved.
  struct CandidateEval {
    std::optional<LoopModelInputs> In;
    uint64_t Instructions = 0;
    std::vector<AnalysisCounterReport> Counters;
  };
  std::vector<CandidateEval> Evals(Ctx.Candidates.size());
  parallelForEach(
      Config.ModelProfileThreads, Ctx.Candidates.size(), [&](size_t K) {
        unsigned Node = Ctx.Candidates[K];
        TransformedProgram TP =
            transformChosen(*Ctx.Pristine, *Ctx.LNG, {Node}, Config.Helix,
                            nullptr,
                            Config.ConservativeAnalysisInvalidation);
        Evals[K].Counters = TP.AM->counterReport();
        if (TP.Loops.empty())
          return;
        std::vector<const ParallelLoopInfo *> PLIs = {&TP.Loops[0].second};
        TraceCollector TC(PLIs);
        Interpreter Interp(*TP.M);
        Interp.setMaxInstructions(Config.MaxInterpInstructions);
        Interp.setObserver(&TC);
        ExecResult R = Interp.run("main");
        Evals[K].Instructions = R.Instructions;
        if (!R.Ok)
          return; // candidate profiling failed: leave it unmodeled
        Evals[K].In = inputsFromTraces(TC.traces()[0], Config.NumCores,
                                       Config.Helix.Machine,
                                       Config.Helix.EnableHelperThreads);
      });

  for (size_t K = 0; K != Evals.size(); ++K) {
    Ctx.noteInterpreted(Evals[K].Instructions);
    mergeAnalysisCounters(Ctx.Report.ModelProfileAnalysisCounters,
                          Evals[K].Counters);
    if (Evals[K].In)
      Ctx.ModelInputs[Ctx.Candidates[K]] = *Evals[K].In;
  }
  return true;
}

bool ModelProfilingStage::serializeResult(const PipelineContext &Ctx,
                                          std::string &Out) const {
  PayloadWriter W(Out);
  W.u32(uint32_t(Ctx.ModelInputs.size()));
  for (const std::optional<LoopModelInputs> &In : Ctx.ModelInputs) {
    W.u8(In ? 1 : 0);
    if (!In)
      continue;
    W.u64(In->SeqCycles);
    W.u64(In->ParallelCycles);
    W.u64(In->PrologueCycles);
    W.u64(In->SegmentCycles);
    W.u64(In->Invocations);
    W.u64(In->Iterations);
    W.u64(In->DataSignals);
    W.u64(In->WordsForwarded);
    W.f64(In->EffSignalCycles);
    W.u8(In->SelfStarting ? 1 : 0);
  }
  // The analysis behaviour of the per-candidate transforms rides along, so
  // a sweep served from this entry still reports the original run's
  // counters instead of silently dropping them.
  const std::vector<AnalysisCounterReport> &Counters =
      Ctx.Report.ModelProfileAnalysisCounters;
  W.u32(uint32_t(Counters.size()));
  for (const AnalysisCounterReport &C : Counters) {
    W.str(C.Analysis);
    W.u64(C.Built);
    W.u64(C.Hits);
    W.u64(C.Invalidated);
  }
  return true;
}

bool ModelProfilingStage::deserializeResult(PipelineContext &Ctx,
                                            const std::string &In) const {
  if (!Ctx.LNG)
    return false;
  PayloadReader R(In);
  uint32_t N = R.u32();
  if (!R.ok() || N != Ctx.LNG->numNodes())
    return false;
  std::vector<std::optional<LoopModelInputs>> Inputs(N);
  for (std::optional<LoopModelInputs> &Slot : Inputs) {
    if (R.u8() == 0)
      continue;
    LoopModelInputs LMI;
    LMI.SeqCycles = R.u64();
    LMI.ParallelCycles = R.u64();
    LMI.PrologueCycles = R.u64();
    LMI.SegmentCycles = R.u64();
    LMI.Invocations = R.u64();
    LMI.Iterations = R.u64();
    LMI.DataSignals = R.u64();
    LMI.WordsForwarded = R.u64();
    LMI.EffSignalCycles = R.f64();
    LMI.SelfStarting = R.u8() != 0;
    Slot = LMI;
  }
  uint32_t NumCounters = R.u32();
  if (!R.ok() || NumCounters > In.size())
    return false;
  std::vector<AnalysisCounterReport> Counters(NumCounters);
  for (AnalysisCounterReport &C : Counters) {
    C.Analysis = R.str();
    C.Built = R.u64();
    C.Hits = R.u64();
    C.Invalidated = R.u64();
  }
  if (!R.done())
    return false;
  Ctx.ModelInputs = std::move(Inputs);
  Ctx.Report.ModelProfileAnalysisCounters = std::move(Counters);
  return true;
}

//===----------------------------------------------------------------------===//
// select
//===----------------------------------------------------------------------===//

std::string SelectionStage::cacheKey(const PipelineConfig &Config) const {
  // "s1" is the persisted-payload version token (the chosen node-id list):
  // bump it when the selection model's behaviour or the layout changes.
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "s1,fl%d,s%.17g,n%u;",
                Config.Selection.ForceNestingLevel,
                Config.Selection.SignalCycles, Config.NumCores);
  return Buf + machineKey(Config.Helix.Machine);
}

bool SelectionStage::run(PipelineContext &Ctx) {
  const PipelineConfig &Config = Ctx.config();
  Ctx.Chosen.clear();
  if (Config.Selection.ForceNestingLevel >= 1) {
    for (unsigned Node : Ctx.Candidates)
      if (int(Ctx.Levels[Node]) == Config.Selection.ForceNestingLevel)
        Ctx.Chosen.push_back(Node);
    return true;
  }

  double S = Config.Selection.SignalCycles;
  bool Explicit = S >= 0;
  // Copied only when the explicit-S override must mutate it:
  // Ctx.ModelInputs may be a cached stage result shared by several
  // selection configurations of a sweep.
  std::vector<std::optional<LoopModelInputs>> Overridden;
  const std::vector<std::optional<LoopModelInputs>> *Inputs =
      &Ctx.ModelInputs;
  if (Explicit) {
    // Explicit S (Figure 12/13 experiments) overrides the per-loop
    // gap-based estimates.
    Overridden = Ctx.ModelInputs;
    for (auto &In : Overridden)
      if (In)
        In->EffSignalCycles = -1.0;
    Inputs = &Overridden;
  } else {
    S = Config.Helix.Machine.PrefetchedSignalCycles; // unused fallback
  }
  ModelParams Params = makeModelParams(Config, S);
  if (Explicit) {
    // The experiment models a compiler that *believes* every signal costs
    // S, including on the segment chain.
    Params.ChainSignalCycles = S;
  }
  SelectionResult Sel = selectLoops(*Ctx.LNG, Ctx.Profile, *Inputs, Params);
  Ctx.Chosen = Sel.Chosen;
  return true;
}

bool SelectionStage::serializeResult(const PipelineContext &Ctx,
                                     std::string &Out) const {
  PayloadWriter W(Out);
  W.u32(uint32_t(Ctx.Chosen.size()));
  for (unsigned Node : Ctx.Chosen)
    W.u32(Node);
  return true;
}

bool SelectionStage::deserializeResult(PipelineContext &Ctx,
                                       const std::string &In) const {
  if (!Ctx.LNG)
    return false; // upstream artifacts absent: cannot validate node ids
  PayloadReader R(In);
  uint32_t N = R.u32();
  if (!R.ok() || N > Ctx.LNG->numNodes())
    return false;
  std::vector<unsigned> Chosen(N);
  for (unsigned &Node : Chosen) {
    Node = R.u32();
    if (Node >= Ctx.LNG->numNodes())
      return false;
  }
  if (!R.done())
    return false;
  Ctx.Chosen = std::move(Chosen);
  return true;
}

//===----------------------------------------------------------------------===//
// transform
//===----------------------------------------------------------------------===//

std::string TransformStage::cacheKey(const PipelineConfig &Config) const {
  // The invalidation-baseline knob changes no artifact, but it does
  // change the reported TransformAnalysisCounters; an A/B sweep over it
  // on one context must re-execute the stage, not serve the other
  // mode's counters from cache.
  return transformKey(Config.Helix) +
         (Config.ConservativeAnalysisInvalidation ? ";ca1" : ";ca0");
}

void TransformStage::resetReport(PipelineReport &Report) const {
  Report.TransformPassTimings.clear();
  Report.TransformAnalysisCounters.clear();
}

bool TransformStage::run(PipelineContext &Ctx) {
  // The validate-stage artifacts point into TransformedLoops (LoopTraces
  // keeps ParallelLoopInfo pointers); drop them before destroying the old
  // transform result so a transform-terminal pipeline never leaves the
  // context holding dangling traces.
  Ctx.Traces.reset();
  Ctx.ParRun = ExecResult();
  Ctx.Report.TransformPassTimings.clear();
  TransformedProgram Final =
      transformChosen(*Ctx.Pristine, *Ctx.LNG, Ctx.Chosen, Ctx.config().Helix,
                      &Ctx.Report.TransformPassTimings,
                      Ctx.config().ConservativeAnalysisInvalidation);
  Ctx.Transformed = std::move(Final.M);
  Ctx.TransformedAM = std::move(Final.AM);
  Ctx.TransformedLoops = std::move(Final.Loops);
  Ctx.Report.TransformAnalysisCounters = Ctx.TransformedAM->counterReport();
  return true;
}

//===----------------------------------------------------------------------===//
// check
//===----------------------------------------------------------------------===//

std::string CheckStage::cacheKey(const PipelineConfig &Config) const {
  // The checker verifies the transform's output, so its key covers the
  // same configuration slice. "k2" is the checker code-version token:
  // bump it when the diagnostics or the dataflows change semantically
  // (k1 -> k2: the checker's re-derived dependence set gained value-range
  // refinement to stay equivalent to the transform's).
  return transformKey(Config.Helix) + ";k2";
}

void CheckStage::resetReport(PipelineReport &Report) const {
  Report.SyncCheck = {};
}

bool CheckStage::run(PipelineContext &Ctx) {
  std::vector<const ParallelLoopInfo *> PLIs;
  for (auto &[Node, PLI] : Ctx.TransformedLoops) {
    (void)Node;
    PLIs.push_back(&PLI);
  }
  SyncCheckResult SC = checkModuleSync(*Ctx.TransformedAM, PLIs);

  PipelineReport::SyncCheckStats &St = Ctx.Report.SyncCheck;
  St = {};
  St.LoopsChecked = SC.LoopsChecked;
  St.DepsChecked = SC.DepsChecked;
  St.EndpointsChecked = SC.EndpointsChecked;
  St.SegmentsChecked = SC.SegmentsChecked;
  St.Findings = unsigned(SC.Diags.size());
  for (const SyncDiag &D : SC.Diags) {
    switch (D.Kind) {
    case SyncDiagKind::CoverageNoWait:
    case SyncDiagKind::CoverageNoSignal:
    case SyncDiagKind::SharedAccessOutsideSegment:
      ++St.Coverage;
      break;
    case SyncDiagKind::DeadlockSignalSkipped:
      ++St.Deadlock;
      break;
    case SyncDiagKind::DuplicateSignal:
    case SyncDiagKind::WaitWithoutSignal:
    case SyncDiagKind::SignalWithoutWait:
    case SyncDiagKind::UnknownSegmentId:
      ++St.Hygiene;
      break;
    case SyncDiagKind::BodyMutated:
    case SyncDiagKind::IVStrideMismatch:
      ++St.Integrity;
      break;
    }
  }
  obs::MetricsRegistry &MR = obs::MetricsRegistry::global();
  MR.counter("check.loops").add(St.LoopsChecked);
  MR.counter("check.findings").add(St.Findings);
  if (!SC.clean()) {
    Ctx.Report.Error = "sync check: " + SC.Diags.front().str();
    if (SC.Diags.size() > 1) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), " (+%u more)",
                    unsigned(SC.Diags.size() - 1));
      Ctx.Report.Error += Buf;
    }
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// validate
//===----------------------------------------------------------------------===//

std::string ValidateStage::cacheKey(const PipelineConfig &Config) const {
  // "a1" is the stage code-version token (a0 -> a1: the dependence-
  // soundness audit joined the validation run and can now fail it).
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "a1;m%llu",
                (unsigned long long)Config.MaxInterpInstructions);
  return Buf;
}

void ValidateStage::resetReport(PipelineReport &Report) const {
  Report.OutputsMatch = false;
  Report.DepAudit = {};
}

bool ValidateStage::run(PipelineContext &Ctx) {
  std::vector<const ParallelLoopInfo *> PLIs;
  for (auto &[Node, PLI] : Ctx.TransformedLoops) {
    (void)Node;
    PLIs.push_back(&PLI);
  }
  Ctx.Traces = std::make_unique<TraceCollector>(PLIs);
  DepWitnessObserver DW(PLIs);
  FanoutObserver Both(*Ctx.Traces, DW);
  Interpreter Interp(*Ctx.Transformed);
  Interp.setMaxInstructions(Ctx.config().MaxInterpInstructions);
  Interp.setObserver(&Both);
  Ctx.ParRun = Interp.run("main");
  Ctx.noteInterpreted(Ctx.ParRun.Instructions);
  if (!Ctx.ParRun.Ok) {
    Ctx.Report.Error = "transformed program failed: " + Ctx.ParRun.Error;
    return false;
  }
  Ctx.Report.OutputsMatch =
      Ctx.ParRun.ReturnValue == Ctx.SeqRun.ReturnValue;

  // Dependence-soundness audit over the validation run's witnesses: a
  // loop-carried memory dependence the transform never synchronized must
  // stop the pipeline here, before the simulator scores a schedule that
  // would race on it.
  DepAuditResult AR = auditDependences(DW);
  PipelineReport::DepAuditStats &DA = Ctx.Report.DepAudit;
  DA.LoopsAudited = AR.LoopsAudited;
  DA.Witnessed = AR.WitnessedDeps;
  DA.Covered = AR.CoveredDeps;
  DA.Uncovered = AR.UncoveredDeps;
  DA.StaticMemDeps = AR.StaticMemDeps;
  DA.StaticUnwitnessed = AR.StaticUnwitnessed;
  obs::MetricsRegistry &MR = obs::MetricsRegistry::global();
  MR.counter("depaudit.loops").add(DA.LoopsAudited);
  MR.counter("depaudit.witnessed").add(DA.Witnessed);
  MR.counter("depaudit.uncovered").add(DA.Uncovered);
  if (DA.Uncovered) {
    Ctx.Report.Error = "dep audit: " + AR.Diags.front();
    if (AR.Diags.size() > 1) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), " (+%u more)",
                    unsigned(AR.Diags.size() - 1));
      Ctx.Report.Error += Buf;
    }
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// simulate
//===----------------------------------------------------------------------===//

std::string SimulateStage::cacheKey(const PipelineConfig &Config) const {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "n%u,pf%d,da%d,h%d;", Config.NumCores,
                int(Config.Prefetch), int(Config.DoAcross),
                int(Config.Helix.EnableHelperThreads));
  return Buf + machineKey(Config.Helix.Machine);
}

void SimulateStage::resetReport(PipelineReport &Report) const {
  Report.ParCycles = 0;
  Report.Speedup = 1.0;
  Report.ModelSpeedup = 1.0;
  Report.Loops.clear();
  Report.PctParallel = Report.PctSeqData = Report.PctSeqControl = 0;
  Report.PctOutside = 100;
  Report.LoopCarriedPct = Report.SignalsRemovedPct = Report.DataTransferPct = 0;
  Report.MaxCodeInstrs = 0;
}

bool SimulateStage::run(PipelineContext &Ctx) {
  const PipelineConfig &Config = Ctx.config();
  PipelineReport &Report = Ctx.Report;
  const TraceCollector &TC = *Ctx.Traces;

  SimConfig SC;
  SC.NumCores = Config.NumCores;
  SC.Machine = Config.Helix.Machine;
  SC.Prefetch =
      Config.Helix.EnableHelperThreads ? Config.Prefetch : PrefetchMode::None;
  SC.DoAcross = Config.DoAcross;
  std::vector<SimStats> PerLoop;
  Report.ParCycles = simulateProgram(TC, SC, &PerLoop);
  Report.Speedup =
      Report.ParCycles ? double(Report.SeqCycles) / double(Report.ParCycles)
                       : 1.0;

  // ----- Figure 11 breakdown, Table 1 aggregates, per-loop reports. ------
  Report.Loops.clear();
  Report.MaxCodeInstrs = 0;
  uint64_t TransformedTotal = TC.totalCycles();
  double TPar = 0, TSeqData = 0, TSeqControl = 0;
  double ModelParTime = double(TransformedTotal);
  ModelParams ModelP = makeModelParams(
      Config, Config.Helix.EnableHelperThreads
                  ? Config.Helix.Machine.PrefetchedSignalCycles
                  : Config.Helix.Machine.UnprefetchedSignalCycles);

  uint64_t SumTransfers = 0, SumLoads = 0;
  uint64_t SumDepsTotal = 0, SumDepsCarried = 0;
  uint64_t SumSignalsInserted = 0, SumSignalsKept = 0;

  for (unsigned K = 0; K != Ctx.TransformedLoops.size(); ++K) {
    const ParallelLoopInfo &PLI = Ctx.TransformedLoops[K].second;
    unsigned Node = Ctx.TransformedLoops[K].first;
    LoopReport LR;
    LR.Name = Ctx.LNG->node(Node).name();
    LR.Node = Node;
    LR.NestingLevel = std::max(1u, Ctx.Levels[Node]);
    LR.Inputs =
        inputsFromTraces(TC.traces()[K], Config.NumCores, Config.Helix.Machine,
                         Config.Helix.EnableHelperThreads);
    LR.Sim = PerLoop[K];
    LR.NumDepsTotal = PLI.NumDepsTotal;
    LR.NumDepsCarried = PLI.NumDepsCarried;
    LR.NumDepsPrunedByRange = PLI.NumDepsPrunedByRange;
    LR.SignalsInserted = PLI.NumSignalsInserted;
    LR.SignalsKept = PLI.NumSignalsKept;
    LR.WaitsInserted = PLI.NumWaitsInserted;
    LR.WaitsKept = PLI.NumWaitsKept;
    LR.CodeSizeInstrs = PLI.CodeSizeInstrs;
    LR.NumSegments = unsigned(PLI.Segments.size());

    TPar += double(LR.Inputs.ParallelCycles);
    TSeqData += double(LR.Inputs.SegmentCycles);
    TSeqControl += double(LR.Inputs.PrologueCycles);
    ModelParTime -= double(LR.Inputs.SeqCycles);
    ModelParTime += modelLoopParallelCycles(LR.Inputs, ModelP);

    SumTransfers += LR.Sim.DataTransfers;
    SumLoads += LR.Sim.ProgramLoads;
    SumDepsTotal += LR.NumDepsTotal;
    SumDepsCarried += LR.NumDepsCarried;
    SumSignalsInserted += LR.WaitsInserted + LR.SignalsInserted;
    SumSignalsKept += LR.WaitsKept + LR.SignalsKept;
    Report.MaxCodeInstrs = std::max(Report.MaxCodeInstrs, LR.CodeSizeInstrs);

    Report.Loops.push_back(std::move(LR));
  }

  double T = double(std::max<uint64_t>(1, TransformedTotal));
  Report.PctParallel = 100.0 * TPar / T;
  Report.PctSeqData = 100.0 * TSeqData / T;
  Report.PctSeqControl = 100.0 * TSeqControl / T;
  Report.PctOutside =
      100.0 - Report.PctParallel - Report.PctSeqData - Report.PctSeqControl;

  Report.ModelSpeedup = double(Report.SeqCycles) / std::max(1.0, ModelParTime);
  Report.LoopCarriedPct =
      SumDepsTotal ? 100.0 * double(SumDepsCarried) / double(SumDepsTotal)
                   : 0.0;
  Report.SignalsRemovedPct =
      SumSignalsInserted
          ? 100.0 * double(SumSignalsInserted - SumSignalsKept) /
                double(SumSignalsInserted)
          : 0.0;
  Report.DataTransferPct =
      SumLoads ? 100.0 * double(SumTransfers) / double(SumLoads) : 0.0;
  return true;
}
