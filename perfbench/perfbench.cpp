//===----------------------------------------------------------------------===//
///
/// \file
/// helix-perfbench: the repository benchmark.
///
///   helix-perfbench --workload spec|fuzz --seed N --seconds S --trace 0|1
///
/// Builds the workload's programs, then runs passes over them until the
/// time budget is spent (at least --min-reps passes). In every pass each
/// program runs, back to back, through the library's public entry points:
///
///   compile    cold PipelineBuilder::standard().run (fresh context, empty
///              MemoryStageCache, decode cache cleared)
///   recompile  a fresh context served by that now-filled memory cache
///   seq        Interpreter::run of the original program
///   par2/par4  runThreaded of the transformed program and its loops
///   oracle     runDifferential at ThreadCounts {2,4}, SimCores 4
///
/// Every output is checked against the sequential interpreter; each
/// pipeline run, sequential run, threaded run and oracle case is one
/// attempted operation. A timing metric is the sum over programs of each
/// program's median across passes. With --trace 1 every untraced pass is
/// followed by a traced one that records spans around each layer call, and
/// the per-layer metrics are printed instead of the end-to-end ones. The
/// last line of stdout is the result object; diagnostics go to stderr.
/// README.md describes the method.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecProgram.h"
#include "fuzz/DifferentialRunner.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/ProgramGenerator.h"
#include "obs/Trace.h"
#include "pipeline/PipelineBuilder.h"
#include "pipeline/StageCache.h"
#include "runtime/ThreadedRuntime.h"
#include "sim/Interpreter.h"
#include "support/Json.h"
#include "support/Random.h"
#include "workloads/WorkloadBuilder.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace helix;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Real-thread runs and the oracle use at most this many workers.
constexpr unsigned MaxWorkers = 4;

/// The ten loop passes of the HELIX transform, in LoopPassManager order.
const char *const LoopPassNames[] = {
    "normalize", "dependence", "inline",  "characterize", "wait-signal",
    "schedule",  "signal-opt", "lower",   "balance",      "finalize"};

/// Upper bound on the passes of one run, whatever its time budget.
constexpr unsigned MaxPasses = 40;

/// Timed builds of the program set at the start of every pass. Spreading
/// the set-up samples over the run exposes them to the same host drift as
/// the operations, instead of the first few milliseconds of the process.
constexpr unsigned SetupBuildsPerPass = 3;

/// Back-to-back sequential runs per seq_ms sample.
constexpr unsigned SeqRepeats = 5;

/// Back-to-back runThreaded calls per par2_ms and par4_ms sample of a
/// program with parallel loops. Every loop invocation waits on all its
/// workers, so on a shared host one call in a few stalls by half its length
/// or more while its neighbours do not; the median of three leaves that
/// call out (README.md, "Noise"). A program without parallel loops pays
/// only the fixed per-call cost, and runs once per sample.
constexpr unsigned ThreadedRepeats = 3;

/// The timed end-to-end operations, by sample key. The traced and untraced
/// passes are compared over exactly these.
const char *const EndToEndOps[] = {"compile_ms", "recompile_ms", "seq_ms",
                                   "par2_ms",    "par4_ms",      "oracle_ms"};

/// The fuzz draw: every case is compiled and run sequentially; the first
/// FuzzThreadedCases also run on real threads and through the oracle,
/// whose time is mostly a fixed per-call cost (README.md, "Workloads").
constexpr unsigned FuzzCases = 400;
constexpr unsigned FuzzThreadedCases = 16;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut = "perfbench-trace.json";
  /// Programs of the workload (a prefix of the seed-ordered spec suite, or
  /// the fuzz draw size) and how many of them run the real-thread
  /// operations and the oracle. 0 = the workload's default.
  unsigned Programs = 0;
  unsigned ThreadedPrograms = 0;
  unsigned MinReps = 3;
  /// Self-test hook: the first threaded run expects a wrong checksum.
  bool InjectMismatch = false;
};

/// Wall times (ms) of one program's operations in one pass, by name.
using Sample = std::map<std::string, double>;

struct Program {
  std::string Name;
  std::unique_ptr<Module> M;
  /// Runs par2/par4, the oracle and the traced runtime probes.
  bool Threaded = true;
  bool HaveRef = false;
  int64_t RefChecksum = 0; ///< the first sequential run's return value
  std::vector<Sample> Untraced, Traced;
  /// Work counts. They repeat exactly, so the first pass records them.
  std::map<std::string, double> Counts;
  double Speedup = 1.0; ///< simulated, from the cold compile
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Per sample key: the median across \p Samples.
std::map<std::string, double> medians(const std::vector<Sample> &Samples) {
  std::map<std::string, std::vector<double>> ByKey;
  for (const Sample &S : Samples)
    for (const auto &KV : S)
      ByKey[KV.first].push_back(KV.second);
  std::map<std::string, double> Out;
  for (const auto &KV : ByKey)
    Out[KV.first] = median(KV.second);
  return Out;
}

/// Per sample key: the sum over programs of each program's median across
/// its passes. \p ThreadedOnly restricts the sum to the programs that run
/// the real-thread operations.
std::map<std::string, double> sumOfMedians(const std::vector<Program> &Ps,
                                           bool Traced,
                                           bool ThreadedOnly = false) {
  std::map<std::string, double> Sum;
  for (const Program &P : Ps)
    if (P.Threaded || !ThreadedOnly)
      for (const auto &KV : medians(Traced ? P.Traced : P.Untraced))
        Sum[KV.first] += KV.second;
  return Sum;
}

double geoMean(const std::vector<double> &Values) {
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(std::max(1e-9, V));
  return Values.empty() ? 0.0 : std::exp(LogSum / double(Values.size()));
}

/// Cores this process may run on (what `nproc` prints).
unsigned availableCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return unsigned(CPU_COUNT(&Set));
}

/// Receives every event and does nothing: attaching it makes the
/// interpreter run the unfused, observed path that every training and
/// validate stage runs.
class NoopObserver : public ExecObserver {};

bool reportClean(const PipelineReport &R, std::string &Why) {
  if (!R.Ok)
    Why = "pipeline error: " + R.Error;
  else if (!R.OutputsMatch)
    Why = "transformed output differs";
  else if (R.SyncCheck.Findings)
    Why = std::to_string(R.SyncCheck.Findings) + " sync-check finding(s)";
  else if (R.DepAudit.Uncovered)
    Why = std::to_string(R.DepAudit.Uncovered) + " uncovered dependence(s)";
  return Why.empty();
}

bool isTrainingStage(const std::string &Name) {
  return Name == "profile" || Name == "candidates" || Name == "model-profile";
}

/// Self time of each span category: a span's duration minus the part its
/// direct children cover. \p Events are one thread's properly nested
/// spans.
std::map<std::string, double>
selfTimeByCategory(std::vector<obs::TraceEvent> Events) {
  std::stable_sort(Events.begin(), Events.end(),
                   [](const obs::TraceEvent &A, const obs::TraceEvent &B) {
                     if (A.StartMicros != B.StartMicros)
                       return A.StartMicros < B.StartMicros;
                     return A.DurMicros > B.DurMicros;
                   });
  std::map<std::string, double> Self;
  std::vector<const obs::TraceEvent *> Open;
  for (const obs::TraceEvent &E : Events) {
    while (!Open.empty() &&
           Open.back()->StartMicros + Open.back()->DurMicros <= E.StartMicros)
      Open.pop_back();
    Self[E.Cat] += double(E.DurMicros) / 1000.0;
    if (!Open.empty())
      Self[Open.back()->Cat] -= double(E.DurMicros) / 1000.0;
    Open.push_back(&E);
  }
  return Self;
}

/// Adds one metric of the result object.
void putMetric(Json &Metrics, const std::string &Name, double Value,
               const char *Unit) {
  Json M = Json::object();
  M.set("value", Json::number(Value));
  M.set("unit", Json::str(Unit));
  Metrics.set(Name, std::move(M));
}

/// Appends \p Events to a Chrome trace_event array as process \p Pid.
void appendChromeEvents(Json &Array, int Pid, const char *ProcessName,
                        const std::vector<obs::TraceEvent> &Events) {
  Json Args = Json::object();
  Args.set("name", Json::str(ProcessName));
  Json Meta = Json::object();
  Meta.set("name", Json::str("process_name"));
  Meta.set("ph", Json::str("M"));
  Meta.set("pid", Json::integer(Pid));
  Meta.set("args", std::move(Args));
  Array.push(std::move(Meta));
  for (const obs::TraceEvent &E : Events) {
    Json O = Json::object();
    O.set("name", Json::str(E.Name));
    O.set("cat", Json::str(E.Cat));
    O.set("ph", Json::str("X"));
    O.set("ts", Json::integer(int64_t(E.StartMicros)));
    O.set("dur", Json::integer(int64_t(E.DurMicros)));
    O.set("pid", Json::integer(Pid));
    O.set("tid", Json::integer(int64_t(E.Tid)));
    Array.push(std::move(O));
  }
}

class Bench {
public:
  explicit Bench(const Options &Opt) : Opt(Opt) {
    Cfg.NumCores = MaxWorkers;
    Diff.ThreadCounts = {2, MaxWorkers};
    Diff.SimCores = MaxWorkers;
    Pipe.setInstrumentation(
        [this](const PipelineContext::StageRun &R) { onStage(R); });
  }
  // The pipeline's instrumentation callback holds this object's address.
  Bench(const Bench &) = delete;
  Bench &operator=(const Bench &) = delete;

  /// Builds the workload's program set and records the wall time as a
  /// set-up sample. The first set built is the one the passes run; later
  /// builds are discarded.
  void buildPrograms();
  /// Times SetupBuildsPerPass builds, then runs every program's operations
  /// once.
  void runPass(bool Traced);
  /// Prints the per-program rows and the result object. \returns the exit
  /// code.
  int report(unsigned Passes);

private:
  void runProgram(Program &P, bool Traced);
  /// The real-thread runs and the oracle case of \p P, plus the traced
  /// passes' runtime and observed-interpreter probes.
  void runThreadedOps(Program &P, PipelineContext &Cold, bool Traced,
                      bool First, Sample &T);
  PipelineReport compile(PipelineContext &Ctx, const char *SpanName,
                         double &Millis);
  /// Counts one attempted operation; a false \p Ok counts a failure.
  void expect(bool Ok, const Program &P, const char *What,
              const std::string &Detail = std::string());
  void onStage(const PipelineContext::StageRun &R);
  void setTracing(bool On) {
    Spans.setEnabled(On);
    obs::TraceRecorder::global().setEnabled(On);
  }
  void putEndToEnd(Json &Metrics);
  bool putPerLayer(Json &Metrics, unsigned Passes);

  const Options &Opt;
  PipelineConfig Cfg;
  DiffConfig Diff;
  Pipeline Pipe = PipelineBuilder::standard();
  std::vector<Program> Programs;
  std::vector<double> SetupSeconds;
  std::vector<PipelineContext::StageRun> StageRuns; ///< of the current run

  /// The benchmark's own spans, one per layer call (main thread only).
  obs::TraceRecorder Spans{size_t(1) << 20};
  /// The library's built-in spans (decode, stage, pass), drained after
  /// every program so the global ring never wraps.
  std::vector<obs::TraceEvent> LibraryEvents;

  bool MismatchPending = false;
  uint64_t Attempted = 0, Failed = 0;
  unsigned FailuresLogged = 0;
};

void Bench::buildPrograms() {
  Clock::time_point Start = Clock::now();
  std::vector<Program> Built;
  auto Add = [&](std::string Name, auto Build) {
    obs::TraceSpan Span("build:" + Name, "build", Spans);
    Built.emplace_back();
    Built.back().Name = std::move(Name);
    Built.back().M = Build();
  };
  unsigned Threaded = Opt.ThreadedPrograms;
  if (Opt.Workload == "spec") {
    std::vector<const WorkloadSpec *> Order;
    for (const WorkloadSpec &S : spec2000Suite())
      Order.push_back(&S);
    // The seed fixes the order the programs run in within a pass.
    Rng R(Opt.Seed);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    if (Opt.Programs && Opt.Programs < Order.size())
      Order.resize(Opt.Programs);
    for (const WorkloadSpec *S : Order)
      Add(S->Name, [S] { return buildWorkload(*S); });
  } else {
    unsigned N = Opt.Programs ? Opt.Programs : FuzzCases;
    if (!Threaded)
      Threaded = std::min(N, FuzzThreadedCases);
    for (unsigned I = 0; I != N; ++I) {
      uint64_t CaseSeed = fuzzCaseSeed(Opt.Seed, I);
      char Name[32];
      std::snprintf(Name, sizeof(Name), "case-%016llx",
                    (unsigned long long)CaseSeed);
      Add(Name, [CaseSeed] { return generateProgram(CaseSeed); });
    }
  }
  SetupSeconds.push_back(msSince(Start) / 1000.0);
  if (!Programs.empty())
    return;
  for (size_t I = 0; I != Built.size(); ++I)
    Built[I].Threaded = !Threaded || I < Threaded;
  Programs = std::move(Built);
}

void Bench::expect(bool Ok, const Program &P, const char *What,
                   const std::string &Detail) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FailuresLogged++ < 20)
    std::fprintf(stderr, "perfbench: FAILED %s on %s%s%s\n", What,
                 P.Name.c_str(), Detail.empty() ? "" : ": ", Detail.c_str());
}

void Bench::onStage(const PipelineContext::StageRun &R) {
  StageRuns.push_back(R);
  if (!Spans.enabled())
    return;
  // The callback fires as the stage slot ends: the child span is the
  // slot's reported wall time, ending now.
  obs::TraceEvent E;
  E.Name = "stage:" + R.Name;
  E.Cat = "stage";
  E.Tid = obs::TraceRecorder::currentThreadId();
  uint64_t Now = obs::TraceRecorder::nowMicros();
  E.DurMicros = std::min<uint64_t>(Now, uint64_t(R.WallMillis * 1000.0));
  E.StartMicros = Now - E.DurMicros;
  Spans.record(std::move(E));
}

PipelineReport Bench::compile(PipelineContext &Ctx, const char *SpanName,
                              double &Millis) {
  StageRuns.clear();
  PipelineReport Report;
  Clock::time_point Start = Clock::now();
  {
    obs::TraceSpan Span(SpanName, "pipeline", Spans);
    Report = Pipe.run(Ctx);
  }
  Millis = msSince(Start);
  return Report;
}

void Bench::runProgram(Program &P, bool Traced) {
  Sample T;
  const bool First = P.Untraced.empty() && P.Traced.empty();
  std::map<std::string, double> &C = P.Counts;
  const size_t NumStages = PipelineBuilder::standardStageNames().size();

  // Cold compile: nothing cached anywhere. The memory cache starts empty
  // and this run fills it for the warm repeat below.
  DecodeCache::global().clear();
  MemoryStageCache Cache;
  PipelineContext Cold(*P.M, Cfg);
  Cold.setStageCache(&Cache, P.Name);
  PipelineReport ColdRep = compile(Cold, "pipeline.cold", T["compile_ms"]);
  std::string Why;
  if (reportClean(ColdRep, Why)) {
    bool AllRan = StageRuns.size() == NumStages;
    for (const auto &R : StageRuns)
      AllRan &= !R.Cached && !R.FromDisk;
    if (!AllRan)
      Why = "cold run did not execute all stages";
  }
  expect(Why.empty(), P, "cold compile", Why);
  for (const auto &R : StageRuns) {
    T["pipeline.cold." + R.Name + "_ms"] = R.WallMillis;
    if (First && (R.Name == "profile" || R.Name == "model-profile" ||
                  R.Name == "validate"))
      C["pipeline.cold." + R.Name + "_instrs"] =
          double(R.InterpretedInstructions);
  }

  // Warm repeat: a fresh context over the filled memory cache.
  {
    PipelineContext Warm(*P.M, Cfg);
    Warm.setStageCache(&Cache, P.Name);
    PipelineReport WarmRep = compile(Warm, "pipeline.warm", T["recompile_ms"]);
    Why.clear();
    unsigned Restored = 0;
    if (reportClean(WarmRep, Why)) {
      bool Warmed = StageRuns.size() == NumStages;
      for (const auto &R : StageRuns) {
        Restored += R.FromDisk;
        if (isTrainingStage(R.Name))
          Warmed &= R.FromDisk && R.InterpretedInstructions == 0;
      }
      if (!Warmed)
        Why = "warm run re-ran a training stage";
      else if (WarmRep.ParCycles != ColdRep.ParCycles)
        Why = "warm run simulated different cycles";
    }
    expect(Why.empty(), P, "warm compile", Why);
    for (const auto &R : StageRuns)
      T["pipeline.warm." + R.Name + "_ms"] = R.WallMillis;
    if (First)
      C["pipeline.warm.restored"] = Restored;
  }
  if (First)
    C["pipeline.cache_kb"] = double(Cache.byteSize()) / 1024.0;

  // Sequential baseline. Decoding is its own step, so the timed runs
  // measure execution. One run lasts milliseconds (spec) or tens of
  // microseconds (fuzz), so the sample is the median of a few back-to-back
  // runs.
  std::shared_ptr<const ExecProgram> Decoded;
  {
    obs::TraceSpan Span("decode", "exec", Spans);
    Decoded = DecodeCache::global().get(*P.M);
  }
  ExecResult Seq;
  std::vector<double> SeqMs;
  for (unsigned R = 0; R != SeqRepeats; ++R) {
    Clock::time_point Start = Clock::now();
    {
      obs::TraceSpan Span("Interpreter::run", "exec", Spans);
      Interpreter I(*P.M);
      Seq = I.run();
    }
    SeqMs.push_back(msSince(Start));
    if (Seq.Ok && !P.HaveRef) {
      P.HaveRef = true;
      P.RefChecksum = Seq.ReturnValue.asInt();
    }
    expect(Seq.Ok && Seq.ReturnValue.asInt() == P.RefChecksum, P,
           "sequential run", Seq.Error);
  }
  T["seq_ms"] = median(SeqMs);

  if (First) {
    P.Speedup = ColdRep.Speedup;
    C["pipeline.candidates"] = ColdRep.NumCandidates;
    C["exec.decodes"] = double(ColdRep.Decode.Decodes);
    C["exec.fused_pairs"] = double(Decoded->fusedPairs());
    C["exec.seq_instrs"] = double(Seq.Instructions);
    C["helix.loops_chosen"] = double(ColdRep.Loops.size());
    for (const LoopReport &L : ColdRep.Loops) {
      C["helix.segments"] += L.NumSegments;
      C["helix.signals_kept"] += L.SignalsKept;
      C["helix.waits_kept"] += L.WaitsKept;
      C["analysis.deps_carried"] += L.NumDepsCarried;
      C["analysis.deps_pruned_by_range"] += L.NumDepsPrunedByRange;
    }
    for (const auto *Set : {&ColdRep.TransformAnalysisCounters,
                            &ColdRep.ModelProfileAnalysisCounters})
      for (const AnalysisCounterReport &A : *Set) {
        C["analysis.built"] += double(A.Built);
        C["analysis.hits"] += double(A.Hits);
        C["analysis.invalidated"] += double(A.Invalidated);
      }
    C["sim.seq_cycles"] = double(ColdRep.SeqCycles);
    C["sim.par_cycles"] = double(ColdRep.ParCycles);
    C["check.sync_loops"] += ColdRep.SyncCheck.LoopsChecked;
    C["check.sync_findings"] += ColdRep.SyncCheck.Findings;
    C["check.dep_witnessed"] += ColdRep.DepAudit.Witnessed;
    C["check.dep_uncovered"] += ColdRep.DepAudit.Uncovered;
  }

  if (P.Threaded)
    runThreadedOps(P, Cold, Traced, First, T);

  if (Traced) {
    // The library's own spans of this program: keep them for the trace
    // file and total the decode time.
    double DecodeMs = 0;
    for (obs::TraceEvent &E : obs::TraceRecorder::global().drain()) {
      if (E.Name == "decode")
        DecodeMs += double(E.DurMicros) / 1000.0;
      LibraryEvents.push_back(std::move(E));
    }
    T["exec.decode_ms"] = DecodeMs;
  }
  (Traced ? P.Traced : P.Untraced).push_back(std::move(T));
}

void Bench::runThreadedOps(Program &P, PipelineContext &Cold, bool Traced,
                           bool First, Sample &T) {
  std::map<std::string, double> &C = P.Counts;
  auto RunThreaded = [&](Module &M,
                         const std::vector<const ParallelLoopInfo *> &Loops,
                         unsigned Workers, const char *Key,
                         RuntimeStats *Stats, unsigned Repeats = 1) {
    std::vector<double> Millis;
    for (unsigned I = 0; I != Repeats; ++I) {
      ExecResult R;
      Clock::time_point Start = Clock::now();
      {
        obs::TraceSpan Span(std::string("runThreaded:") + Key, "runtime",
                            Spans);
        R = runThreaded(M, Loops, Workers, I ? nullptr : Stats);
      }
      Millis.push_back(msSince(Start));
      int64_t Expected = P.RefChecksum;
      if (MismatchPending) {
        MismatchPending = false;
        Expected ^= 1;
      }
      expect(R.Ok && P.HaveRef && R.ReturnValue.asInt() == Expected, P, Key,
             R.Ok ? "checksum differs from the sequential run" : R.Error);
    }
    T[Key] = median(Millis);
  };

  // Real threads: the pipeline's transformed program and chosen loops. A
  // failed compile leaves none; its threaded runs count as failed.
  Module *TM = Cold.Transformed.get();
  std::vector<const ParallelLoopInfo *> Loops;
  for (const auto &L : Cold.TransformedLoops)
    Loops.push_back(&L.second);
  RuntimeStats Stats4;
  if (TM) {
    {
      obs::TraceSpan Span("decode", "exec", Spans);
      DecodeCache::global().get(*TM);
    }
    unsigned Repeats = Loops.empty() ? 1 : ThreadedRepeats;
    RunThreaded(*TM, Loops, 2, "par2_ms", nullptr, Repeats);
    RunThreaded(*TM, Loops, MaxWorkers, "par4_ms", &Stats4, Repeats);
  } else {
    expect(false, P, "par2_ms", "no transformed program");
    expect(false, P, "par4_ms", "no transformed program");
  }

  // The three-way differential oracle.
  DiffOutcome O;
  Clock::time_point Start = Clock::now();
  {
    obs::TraceSpan Span("runDifferential", "oracle", Spans);
    O = runDifferential(*P.M, Diff);
  }
  T["oracle_ms"] = msSince(Start);
  expect(!O.Divergence && !O.Inconclusive && O.StaticFindings == 0 &&
             O.DepUncovered == 0 && O.SeqOk && P.HaveRef &&
             O.SeqChecksum == P.RefChecksum,
         P, "oracle case", O.Detail);
  for (const LoopPassTiming &PT : O.PassTimings)
    T["helix.pass." + PT.Pass + "_ms"] = PT.Millis;

  if (First) {
    C["runtime.invocations"] = double(Stats4.ParallelInvocations);
    C["runtime.iterations"] = double(Stats4.ParallelIterations);
    C["runtime.signals"] = double(Stats4.SignalsSent);
    C["check.sync_loops"] += O.StaticLoopsChecked;
    C["check.sync_findings"] += O.StaticFindings;
    C["check.dep_witnessed"] += O.DepWitnessed;
    C["check.dep_uncovered"] += O.DepUncovered;
    C["oracle.loops_attempted"] = O.LoopsAttempted;
    C["oracle.loops_transformed"] = O.LoopsTransformed;
    C["oracle.divergent"] = O.Divergence;
    C["oracle.inconclusive"] = O.Inconclusive;
  }

  if (!Traced)
    return;
  // Per-layer probes, traced passes only: the runtime's fixed per-call
  // cost, its one-worker cost, and the observed interpreter path.
  RunThreaded(*P.M, {}, 1, "runtime.noloop_ms", nullptr);
  if (TM)
    RunThreaded(*TM, Loops, 1, "runtime.par1_ms", nullptr);
  else
    expect(false, P, "runtime.par1_ms", "no transformed program");
  NoopObserver Noop;
  ExecResult Observed;
  Start = Clock::now();
  {
    obs::TraceSpan Span("Interpreter::run:observed", "exec", Spans);
    Interpreter I(*P.M);
    I.setObserver(&Noop);
    Observed = I.run();
  }
  T["observed_ms"] = msSince(Start);
  expect(Observed.Ok && Observed.ReturnValue.asInt() == P.RefChecksum, P,
         "observed sequential run", Observed.Error);
  C["exec.observed_instrs"] = double(Observed.Instructions);
}

void Bench::runPass(bool Traced) {
  setTracing(Traced);
  for (unsigned I = 0; I != SetupBuildsPerPass; ++I)
    buildPrograms();
  MismatchPending = Opt.InjectMismatch && Attempted == 0;
  for (Program &P : Programs)
    runProgram(P, Traced);
  setTracing(false);

  // Pass totals on stderr, to tell drift within a run from drift between
  // runs.
  std::fprintf(stderr, "pass%s:", Traced ? " (traced)" : "");
  for (const char *Op : EndToEndOps) {
    double Total = 0;
    for (const Program &P : Programs) {
      const std::vector<Sample> &S = Traced ? P.Traced : P.Untraced;
      auto It = S.back().find(Op);
      Total += It == S.back().end() ? 0.0 : It->second;
    }
    std::fprintf(stderr, " %s=%.1f", Op, Total);
  }
  std::fprintf(stderr, "\n");
}

void Bench::putEndToEnd(Json &Metrics) {
  auto Put = [&](const char *Name, double Value, const char *Unit) {
    putMetric(Metrics, Name, Value, Unit);
  };
  std::map<std::string, double> S = sumOfMedians(Programs, false);
  std::vector<double> Speedups;
  double OracleCases = 0;
  for (const Program &P : Programs) {
    Speedups.push_back(P.Speedup);
    OracleCases += P.Threaded;
  }
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  Put("setup_s", median(SetupSeconds), "s");
  Put("compile_ms", S["compile_ms"], "ms");
  Put("recompile_ms", S["recompile_ms"], "ms");
  Put("seq_ms", S["seq_ms"], "ms");
  Put("par2_ms", S["par2_ms"], "ms");
  Put("par4_ms", S["par4_ms"], "ms");
  Put("oracle_cases_per_s", OracleCases / (S["oracle_ms"] / 1000.0), "1/s");
  Put("sim_speedup4", geoMean(Speedups), "x");
  Put("peak_rss_mb", double(Usage.ru_maxrss) / 1024.0, "MB");
}

bool Bench::putPerLayer(Json &Metrics, unsigned Passes) {
  auto Put = [&](const std::string &Name, double Value, const char *Unit) {
    putMetric(Metrics, Name, Value, Unit);
  };
  std::map<std::string, double> S = sumOfMedians(Programs, true);
  std::map<std::string, double> SThreaded = sumOfMedians(Programs, true, true);
  std::map<std::string, double> U = sumOfMedians(Programs, false);
  std::map<std::string, double> C;
  for (const Program &P : Programs)
    for (const auto &KV : P.Counts)
      C[KV.first] += KV.second;
  auto PutCounts = [&](std::initializer_list<const char *> Keys) {
    for (const char *Key : Keys)
      Put(Key, C[Key], "count");
  };

  for (const char *Phase : {"cold", "warm"})
    for (const std::string &Stage : PipelineBuilder::standardStageNames()) {
      std::string Key = std::string("pipeline.") + Phase + "." + Stage + "_ms";
      Put(Key, S[Key], "ms");
    }
  PutCounts({"pipeline.cold.profile_instrs",
             "pipeline.cold.model-profile_instrs",
             "pipeline.cold.validate_instrs", "pipeline.candidates",
             "pipeline.warm.restored"});
  Put("pipeline.cache_kb", C["pipeline.cache_kb"], "KiB");

  Put("exec.decode_ms", S["exec.decode_ms"], "ms");
  PutCounts({"exec.decodes", "exec.fused_pairs", "exec.seq_instrs"});
  Put("exec.seq_minstr_per_s", C["exec.seq_instrs"] / S["seq_ms"] / 1e3,
      "Minstr/s");
  Put("exec.observed_minstr_per_s",
      C["exec.observed_instrs"] / S["observed_ms"] / 1e3, "Minstr/s");

  Put("runtime.noloop_ms", S["runtime.noloop_ms"], "ms");
  Put("runtime.par1_ms", S["runtime.par1_ms"], "ms");
  PutCounts({"runtime.invocations", "runtime.iterations", "runtime.signals"});
  // Base: seq_ms of the same programs (the fuzz draw's threaded subset).
  Put("runtime.speedup2", SThreaded["seq_ms"] / S["par2_ms"], "x");
  Put("runtime.speedup4", SThreaded["seq_ms"] / S["par4_ms"], "x");

  for (const char *Pass : LoopPassNames) {
    std::string Key = std::string("helix.pass.") + Pass + "_ms";
    Put(Key, S[Key], "ms");
  }
  PutCounts({"helix.loops_chosen", "helix.segments", "helix.signals_kept",
             "helix.waits_kept", "analysis.built", "analysis.hits",
             "analysis.invalidated", "analysis.deps_carried",
             "analysis.deps_pruned_by_range"});
  Put("sim.seq_cycles", C["sim.seq_cycles"], "cycles");
  Put("sim.par_cycles", C["sim.par_cycles"], "cycles");
  PutCounts({"check.sync_loops", "check.sync_findings", "check.dep_witnessed",
             "check.dep_uncovered", "oracle.loops_attempted",
             "oracle.loops_transformed", "oracle.divergent",
             "oracle.inconclusive"});

  // Self time per layer and traced pass, from the benchmark's own spans;
  // then the Chrome trace with the library's spans.
  std::vector<obs::TraceEvent> Own = Spans.drain();
  std::map<std::string, double> Self = selfTimeByCategory(Own);
  for (const char *Layer :
       {"build", "pipeline", "stage", "exec", "runtime", "oracle"})
    Put(std::string("trace.self.") + Layer + "_ms",
        Self[Layer] / std::max(1u, Passes), "ms");

  double TracedTotal = 0, UntracedTotal = 0;
  for (const char *Op : EndToEndOps) {
    TracedTotal += S[Op];
    UntracedTotal += U[Op];
  }
  Put("trace.overhead_pct",
      100.0 * (TracedTotal - UntracedTotal) / UntracedTotal, "%");
  Put("trace.dropped",
      double(Spans.droppedCount() +
             obs::TraceRecorder::global().droppedCount()),
      "count");

  Json Events = Json::array();
  appendChromeEvents(Events, 1, "helix-perfbench layer calls", Own);
  appendChromeEvents(Events, 2, "helix library spans", LibraryEvents);
  Json Doc = Json::object();
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", Json::str("ms"));
  std::string Text = Doc.toString();
  std::FILE *F = std::fopen(Opt.TraceOut.c_str(), "w");
  bool Ok = F && std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= F && std::fclose(F) == 0;
  std::fprintf(stderr, "perfbench: %s %zu + %zu spans to %s\n",
               Ok ? "wrote" : "FAILED to write", Own.size(),
               LibraryEvents.size(), Opt.TraceOut.c_str());
  return Ok;
}

int Bench::report(unsigned Passes) {
  // One row per program on stderr: its median per operation.
  std::fprintf(stderr, "%-22s %10s %10s %10s %10s %10s %10s\n", "program (ms)",
               "compile", "recompile", "seq", "par2", "par4", "oracle");
  for (const Program &P : Programs) {
    std::map<std::string, double> M = medians(P.Untraced);
    std::fprintf(stderr, "%-22s", P.Name.c_str());
    for (const char *Op : EndToEndOps) {
      if (M.count(Op))
        std::fprintf(stderr, " %10.3f", M[Op]);
      else
        std::fprintf(stderr, " %10s", "-");
    }
    std::fprintf(stderr, "\n");
  }

  Json Metrics = Json::object();
  if (!Opt.Trace)
    putEndToEnd(Metrics);
  else if (!putPerLayer(Metrics, Passes))
    return 1;

  std::printf("perfbench: workload=%s seed=%llu nproc=%u programs=%zu "
              "passes=%u%s\n",
              Opt.Workload.c_str(), (unsigned long long)Opt.Seed,
              availableCores(), Programs.size(), Passes,
              Opt.Trace ? " (each followed by a traced pass)" : "");
  Json Result = Json::object();
  Result.set("correct", Json::boolean(Failed == 0));
  Result.set("attempted", Json::integer(int64_t(Attempted)));
  Result.set("failed", Json::integer(int64_t(Failed)));
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.toString().c_str());
  return 0;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 0);
  if (errno || End == Text || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "helix-perfbench: %s\n"
               "usage: helix-perfbench --workload spec|fuzz [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "         [--trace-out FILE] [--programs N] "
               "[--threaded-programs N]\n"
               "         [--min-reps N] [--inject-mismatch]\n",
               Why.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--inject-mismatch") {
      Opt.InjectMismatch = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage("missing value for " + Arg);
    const char *Value = Argv[++I];
    if (Arg == "--workload") {
      Opt.Workload = Value;
      continue;
    }
    if (Arg == "--trace-out") {
      Opt.TraceOut = Value;
      continue;
    }
    uint64_t N = 0;
    if (!parseUnsigned(Value, N))
      return usage("bad value for " + Arg);
    if (Arg == "--seed")
      Opt.Seed = N;
    else if (Arg == "--seconds")
      Opt.Seconds = double(N);
    else if (Arg == "--trace" && N <= 1)
      Opt.Trace = N == 1;
    else if (Arg == "--programs")
      Opt.Programs = unsigned(N);
    else if (Arg == "--threaded-programs")
      Opt.ThreadedPrograms = unsigned(N);
    else if (Arg == "--min-reps" && N >= 1)
      Opt.MinReps = unsigned(N);
    else
      return usage("unknown option or bad value: " + Arg);
  }
  if (Opt.Workload != "spec" && Opt.Workload != "fuzz")
    return usage("--workload must be spec or fuzz");

  // The real-thread runs use up to four workers; on fewer cores they would
  // measure oversubscription, not the runtime.
  unsigned Cores = availableCores();
  if (Cores < MaxWorkers) {
    std::fprintf(stderr,
                 "{\"error\":\"too_few_cores\",\"nproc\":%u,"
                 "\"required\":%u}\n",
                 Cores, MaxWorkers);
    return 3;
  }

  Bench B(Opt);
  B.buildPrograms();

  // Whole passes only: start another while the budget still fits one of
  // the slowest length seen so far. A traced run pairs each untraced pass
  // with a traced one; both count toward --min-reps, so the minimum does
  // not double the length of a traced run.
  Clock::time_point Start = Clock::now();
  double SlowestMs = 0;
  unsigned Passes = 0;
  const unsigned PassesPerStep = Opt.Trace ? 2 : 1;
  while (Passes != MaxPasses &&
         (Passes * PassesPerStep < Opt.MinReps ||
          msSince(Start) + SlowestMs <= Opt.Seconds * 1000.0)) {
    Clock::time_point PassStart = Clock::now();
    B.runPass(false);
    if (Opt.Trace)
      B.runPass(true);
    SlowestMs = std::max(SlowestMs, msSince(PassStart));
    ++Passes;
  }
  return B.report(Passes);
}
