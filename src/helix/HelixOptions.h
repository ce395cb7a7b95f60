//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the HELIX transformation and of the machine model.
/// The ablation switches correspond to the experiments of Figure 10.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_HELIX_HELIXOPTIONS_H
#define HELIX_HELIX_HELIXOPTIONS_H

namespace helix {

/// Machine-model constants measured on the paper's testbed (Intel Core
/// i7-980X, Section 3): an unprefetched inter-core signal costs 110 cycles
/// (two last-level-cache accesses of 55 cycles each); a fully prefetched
/// signal hits the first-level cache in 4 cycles; forwarding one CPU word
/// between cores costs 110 cycles.
/// Latencies only: the core count is *not* part of the machine model — it
/// is a top-level pipeline knob (PipelineConfig::NumCores, single source of
/// truth) because the paper sweeps it independently (Figure 9's 2/4/6-core
/// bars) while the latencies stay fixed.
struct MachineModel {
  double UnprefetchedSignalCycles = 110.0;
  double PrefetchedSignalCycles = 4.0;
  double WordTransferCycles = 110.0;
  /// Cost of configuring one parallel-loop invocation (thread buffer init,
  /// Conf_i in Equation 1), per started invocation.
  double LoopConfigCycles = 250.0;
};

/// Switches for the HELIX algorithm steps (Section 2.1).
struct HelixOptions {
  bool EnableInlining = true;    ///< Step 5: method inlining
  bool EnableScheduling = true;  ///< Step 5: segment-shrinking scheduling
  bool EnableSignalOpt = true;   ///< Step 6: signal minimization
  bool EnableHelperThreads = true; ///< Step 8: SMT signal prefetching
  bool EnableBalancing = true;     ///< Step 8: Figure-6 spacing scheduler
  // Note: the signal latency assumed by the loop-*selection* model is not a
  // transform knob; it lives in SelectionConfig::SignalCycles
  // (pipeline/PipelineConfig.h), the single source of truth.

  MachineModel Machine;
};

} // namespace helix

#endif // HELIX_HELIX_HELIXOPTIONS_H
