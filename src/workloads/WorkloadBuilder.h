//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic workload construction.
///
/// SPEC CPU2000 sources are proprietary, so the evaluation programs are
/// synthesized from the loop idioms that dominate each benchmark (array
/// sweeps, reductions, pointer chasing, histogramming, stencils, branchy
/// conditional updates, loop nests), parameterized per benchmark to match
/// the published loop characteristics (Table 1). Every program is
/// deterministic and returns a checksum, which the differential tests
/// compare across sequential, transformed-sequential and threaded-parallel
/// executions.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_WORKLOADS_WORKLOADBUILDER_H
#define HELIX_WORKLOADS_WORKLOADBUILDER_H

#include "ir/Module.h"

#include <memory>
#include <string>
#include <vector>

namespace helix {

/// The loop idioms out of which workloads are composed.
enum class KernelIdiom {
  DoAll,        ///< disjoint strided integer sweep (fully parallel)
  DoAllFP,      ///< disjoint strided floating-point sweep
  Reduction,    ///< accumulator: small register-carried segment
  PointerChase, ///< linked-list traversal: serial dependence chain
  Histogram,    ///< indirect updates: unprovable carried memory dependence
  Stencil,      ///< a[i] = f(a[i-1], b[i]): distance-1 carried dependence
  Branchy,      ///< conditional carried update (the Figure-2 shape)
  Nested2D,     ///< row loop over a provably-parallel column loop
  TwoAccum,     ///< two independent carried accumulators: two distinct
                ///< sequential segments that HELIX overlaps (Figure 1)
  WindowSlide,  ///< w[i] = f(w[i+N]) over a 2N window (gzip fill_window):
                ///< SIV keeps the distance-N pair as carried, value-range
                ///< facts prove the halves disjoint — actually DOALL
};

struct KernelSpec {
  KernelIdiom Idiom = KernelIdiom::DoAll;
  unsigned N = 256;    ///< iteration count (rows for Nested2D)
  unsigned Work = 8;   ///< extra parallel ALU operations per iteration
  unsigned Inner = 64; ///< inner iteration count (Nested2D only)
};

/// One phase: a function with a repeat loop invoking its kernels. Phases
/// give the program-wide loop nesting graph its depth.
struct PhaseSpec {
  unsigned Repeat = 2;
  bool ExtraCallLevel = false; ///< interpose one more function+loop level
  std::vector<KernelSpec> Kernels;
};

struct WorkloadSpec {
  std::string Name;
  uint64_t Seed = 1;
  unsigned MainRepeat = 2;
  std::vector<PhaseSpec> Phases;
};

/// Builds the IR program for \p Spec. The resulting module verifies and
/// its @main takes no arguments and returns the checksum.
std::unique_ptr<Module> buildWorkload(const WorkloadSpec &Spec);

/// The 13 C benchmarks of SPEC CPU2000 that the paper evaluates, as
/// synthetic equivalents (gzip, vpr, mesa, art, mcf, equake, crafty, ammp,
/// parser, gap, vortex, bzip2, twolf).
const std::vector<WorkloadSpec> &spec2000Suite();

/// Convenience: builds one suite workload by name; null if unknown.
std::unique_ptr<Module> buildSpecWorkload(const std::string &Name);

} // namespace helix

#endif // HELIX_WORKLOADS_WORKLOADBUILDER_H
