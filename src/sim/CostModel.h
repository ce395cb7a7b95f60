//===----------------------------------------------------------------------===//
///
/// \file
/// Per-opcode cycle costs of the simulated machine. One shared table keeps
/// the profiler, the code-scheduling heuristics (Steps 5 and 8) and the
/// timing simulator consistent with each other.
///
/// The values model a simple in-order core: single-cycle ALU, multi-cycle
/// multiply/divide, L1-hit latency for memory operations. Inter-core costs
/// (signal and data-transfer latency) are *not* here; they live in
/// MachineModel and are applied by the parallel simulator.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_SIM_COSTMODEL_H
#define HELIX_SIM_COSTMODEL_H

#include "ir/Opcode.h"

namespace helix {

/// \returns the cycle cost of executing one instance of \p Op locally.
inline unsigned opcodeCycles(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
  case Opcode::FMul:
    return 3;
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::FDiv:
    return 12;
  case Opcode::FAdd:
  case Opcode::FSub:
    return 2;
  case Opcode::Load:
  case Opcode::Store:
    return 4; // first-level cache hit
  case Opcode::Call:
    return 2; // call overhead; the callee body is costed separately
  case Opcode::HeapAlloc:
  case Opcode::Alloca:
    return 2;
  case Opcode::Wait:
  case Opcode::SignalOp:
    return 1; // local cost; stall cycles are added by the simulator
  case Opcode::IterStart:
  case Opcode::Nop:
    return 1;
  default:
    return 1; // ALU, compares, moves, branches
  }
}

} // namespace helix

#endif // HELIX_SIM_COSTMODEL_H
