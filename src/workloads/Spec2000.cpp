//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic SPEC CPU2000 suite: thirteen programs shaped after the
/// C benchmarks the paper evaluates. Idiom mixes follow each benchmark's
/// published character — `art`/`equake`/`mesa` are dominated by regular
/// floating-point sweeps (high parallel fraction), `mcf`/`parser` by
/// pointer chasing (long serial dependence chains), `crafty`/`twolf` by
/// branchy integer code with irregular updates, and so on. Iteration
/// bodies carry SPEC-like work (tens to hundreds of cycles), which is what
/// makes the 110-cycle inter-core signal latency amortizable for the loops
/// HELIX should pick — and fatal for the ones it should reject.
///
//===----------------------------------------------------------------------===//

#include "workloads/WorkloadBuilder.h"

using namespace helix;

namespace {

using KI = KernelIdiom;

std::vector<WorkloadSpec> makeSuite() {
  std::vector<WorkloadSpec> Suite;

  auto Add = [&](const char *Name, uint64_t Seed, unsigned MainRepeat,
                 std::vector<PhaseSpec> Phases) {
    WorkloadSpec S;
    S.Name = Name;
    S.Seed = Seed;
    S.MainRepeat = MainRepeat;
    S.Phases = std::move(Phases);
    Suite.push_back(std::move(S));
  };

  // 164.gzip: compression — array sweeps, hash-table updates, conditional
  // match loops.
  Add("gzip", 164, 3,
      {{2, false, {{KI::DoAll, 300, 130}, {KI::WindowSlide, 280, 130}, {KI::Histogram, 240, 130}}},
       {2, false, {{KI::Branchy, 280, 120}, {KI::TwoAccum, 150, 700}, {KI::Histogram, 1200, 10}}}});

  // 175.vpr: placement & routing — regular cost sweeps plus irregular
  // grid updates.
  Add("vpr", 175, 3,
      {{2, false, {{KI::DoAll, 320, 150}, {KI::Nested2D, 20, 24, 90}}},
       {2, false, {{KI::Stencil, 240, 160}, {KI::TwoAccum, 150, 800}, {KI::Histogram, 1100, 10}}}});

  // 177.mesa: 3D rasterization — wide floating-point pixel pipelines.
  Add("mesa", 177, 3,
      {{2, false, {{KI::DoAllFP, 340, 160}, {KI::DoAll, 300, 140}}},
       {2, false, {{KI::DoAllFP, 300, 150}, {KI::TwoAccum, 140, 900}}}});

  // 179.art: neural-network image recognition — almost entirely parallel
  // floating-point array scans (the paper's Figure 8 example).
  Add("art", 179, 3,
      {{2, false, {{KI::DoAllFP, 400, 180}, {KI::DoAllFP, 380, 170}}},
       {2, false, {{KI::DoAllFP, 370, 170}, {KI::DoAll, 320, 150}}}});

  // 181.mcf: minimum-cost flow — pointer-chasing over node/arc lists
  // dominates everything.
  Add("mcf", 181, 3,
      {{2, false, {{KI::PointerChase, 1500, 6}, {KI::DoAll, 160, 110}}},
       {2, false, {{KI::PointerChase, 1100, 5}}}});

  // 183.equake: earthquake simulation — sparse FP kernels, mostly
  // parallel with a small serial assembly step.
  Add("equake", 183, 3,
      {{2, false, {{KI::DoAllFP, 340, 160}, {KI::DoAllFP, 320, 160}}},
       {2, false, {{KI::Stencil, 230, 170}, {KI::TwoAccum, 140, 850}}}});

  // 186.crafty: chess — deeply nested, branchy integer search with
  // hash-table updates; much irreducibly serial evaluation.
  Add("crafty", 186, 3,
      {{2, true, {{KI::Branchy, 280, 80}, {KI::Histogram, 240, 90}}},
       {2, false, {{KI::PointerChase, 700, 6}, {KI::DoAll, 200, 110}, {KI::Histogram, 1000, 8}}}});

  // 188.ammp: molecular dynamics — FP neighbor sweeps plus serial
  // integration updates.
  Add("ammp", 188, 3,
      {{2, false, {{KI::DoAllFP, 320, 160}, {KI::Stencil, 230, 150}}},
       {2, false, {{KI::TwoAccum, 150, 800}, {KI::DoAll, 220, 120}}}});

  // 197.parser: link grammar — linked-list walks and dictionary updates.
  Add("parser", 197, 3,
      {{2, false, {{KI::PointerChase, 1300, 6}, {KI::Histogram, 220, 100}}},
       {2, false, {{KI::PointerChase, 800, 5}, {KI::TwoAccum, 120, 600}}}});

  // 254.gap: computer algebra — big-number reductions and list scans.
  Add("gap", 254, 3,
      {{2, false, {{KI::Reduction, 160, 800}, {KI::DoAll, 260, 130}}},
       {2, false, {{KI::PointerChase, 600, 6}, {KI::Reduction, 140, 700}}}});

  // 255.vortex: object database — pointer-heavy lookups with table scans.
  Add("vortex", 255, 3,
      {{2, true, {{KI::Histogram, 250, 110}, {KI::DoAll, 240, 130}}},
       {2, false, {{KI::PointerChase, 650, 5}, {KI::Branchy, 210, 100}, {KI::Histogram, 1000, 8}}}});

  // 256.bzip2: block compression — sorting-like carried dependences and
  // counting tables.
  Add("bzip2", 256, 3,
      {{2, false, {{KI::Stencil, 280, 140}, {KI::WindowSlide, 260, 120}, {KI::Histogram, 250, 100}}},
       {2, false, {{KI::Reduction, 130, 650}, {KI::DoAll, 200, 110}, {KI::Histogram, 1100, 10}}}});

  // 300.twolf: place & route — branchy cost evaluation over grids.
  Add("twolf", 300, 3,
      {{2, false, {{KI::Branchy, 300, 110}, {KI::Nested2D, 18, 24, 80}}},
       {2, false, {{KI::DoAll, 240, 130}, {KI::Histogram, 210, 110}, {KI::Histogram, 1200, 8}}}});

  return Suite;
}

} // namespace

const std::vector<WorkloadSpec> &helix::spec2000Suite() {
  static const std::vector<WorkloadSpec> Suite = makeSuite();
  return Suite;
}
