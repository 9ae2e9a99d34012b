//===- Compiler.h - Ocelot compilation pipeline -----------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Ocelot toolchain (paper Fig. 3): parse and check OCL,
/// lower to IR, run the taint analysis, map annotations to policies, then —
/// depending on the execution model — infer atomic regions (Ocelot), keep
/// only manual regions (Atomics-only), strip all regions (JIT-only), or
/// validate existing placement (checker mode, §8). The result carries the
/// policies, region metadata with undo-log omega sets, and the violation
/// monitor's instrumentation plan.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_OCELOT_COMPILER_H
#define OCELOT_OCELOT_COMPILER_H

#include "analysis/WarAnalysis.h"
#include "ocelot/Policy.h"
#include "ocelot/RegionInference.h"
#include "runtime/ExecutableImage.h"
#include "runtime/MonitorPlan.h"
#include "support/Diagnostics.h"

#include <array>
#include <memory>
#include <string>

namespace ocelot {

/// Execution models compared in the paper's evaluation (§7.2).
enum class ExecModel {
  JitOnly,     ///< JIT checkpointing only; all regions stripped. Fast but
               ///< violates freshness/consistency (the paper's baseline).
  AtomicsOnly, ///< Manually placed atomic regions only; no inference.
  Ocelot,      ///< JIT + inferred regions from annotations (the paper).
  CheckOnly,   ///< Validate existing (manual) regions against annotations.
};

const char *execModelName(ExecModel M);

struct CompileOptions {
  ExecModel Model = ExecModel::Ocelot;
  /// Run the IR verifier before and after transformation.
  bool Verify = true;
  /// For Ocelot builds: self-validate the inferred placement with the
  /// region checker (Theorem 1's premise).
  bool SelfCheck = true;
  /// Threaded-view fusion tier for the built ExecutableImage: Pairs
  /// (the default) or Off (plain dispatch codes).
  FusionMode Fusion = FusionMode::Pairs;
};

/// Source-derived programmer-effort statistics (Tables 3/4).
struct EffortStats {
  int SourceLines = 0;       ///< Non-empty, non-comment source lines.
  int IoDeclNames = 0;       ///< Input functions declared.
  int FreshAnnots = 0;       ///< Fresh(...) + let fresh.
  int ConsistentAnnots = 0;  ///< Consistent(...) + let consistent.
  int FreshConsistentAnnots = 0; ///< FreshConsistent(...) markers.
  int ManualRegions = 0;     ///< atomic { } blocks in the source.
  int ManualRegionsWithLoops = 0; ///< atomic blocks containing a loop
                                  ///< (Samoyed's scaling/fallback cases).
};

/// The timed passes of `Toolchain::compile`, in pipeline order. Image is
/// the ExecutableImage build, which Toolchain::compile runs after the
/// pipeline proper.
enum class CompilePass {
  Parse,
  Sema,
  Lower,
  Verify,    ///< Both IR verifier runs.
  CallGraph,
  Taint,
  Policies,
  Regions,   ///< Inference, stripping or checking, plus the self-check.
  War,       ///< WAR/EMW analysis and the monitor plan.
  Image,
};
constexpr size_t NumCompilePasses =
    static_cast<size_t>(CompilePass::Image) + 1;

/// Lower-case pass name, e.g. "callgraph".
const char *compilePassName(CompilePass P);

struct CompileResult {
  bool Ok = false;
  std::unique_ptr<Program> Prog;
  PolicySet Policies;
  std::vector<InferredRegion> InferredRegions;
  std::vector<RegionInfo> Regions; ///< All regions with WAR/EMW/omega sets.
  MonitorPlan Monitor;
  EffortStats Effort;
  /// CheckOnly: whether existing regions enforce all policies.
  bool PlacementValid = false;
  /// Wall time per pass in milliseconds, indexed by CompilePass; passes
  /// that did not run stay 0.
  std::array<double, NumCompilePasses> PassMs{};
};

namespace detail {
/// The raw Fig. 3 pipeline behind `Toolchain::compile`. Not part of the
/// public API: it hands out a mutable Program, which the immutable-artifact
/// design deliberately hides (white-box tests use it for program surgery).
CompileResult runCompilePipeline(const std::string &Source,
                                 const CompileOptions &Opts,
                                 DiagnosticEngine &Diags);
} // namespace detail

} // namespace ocelot

#endif // OCELOT_OCELOT_COMPILER_H
