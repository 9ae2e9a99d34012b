//===- Toolchain.h - Thread-safe compilation API ----------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public, thread-safe entry point to the Ocelot toolchain.
///
/// `Toolchain::compile` runs the Fig. 3 pipeline and returns a
/// `Compilation`: a structured `Status` (success flag + full diagnostics)
/// and, on success, a `CompiledArtifact` — an immutable, const-correct
/// snapshot of everything the compiler produced (program, policies, region
/// metadata, monitor plan, effort stats). Artifacts are cheap shared
/// handles: copying one shares the underlying state, and because that state
/// is never mutated after construction, one artifact can safely back any
/// number of concurrent `Simulation`s (src/runtime/Simulation.h) or
/// parallel sweep cells (src/harness/SweepRunner.h).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_OCELOT_TOOLCHAIN_H
#define OCELOT_OCELOT_TOOLCHAIN_H

#include "ocelot/Compiler.h"
#include "runtime/ExecutableImage.h"

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ocelot {

/// A source buffer handed to the toolchain. Implicitly constructible from
/// anything string-like; the text is only borrowed for the duration of the
/// compile() call.
struct SourceRef {
  std::string_view Text;

  SourceRef(std::string_view Text) : Text(Text) {}
  SourceRef(const char *Text) : Text(Text) {}
  SourceRef(const std::string &Text) : Text(Text) {}
};

/// Structured outcome report: a success flag plus every diagnostic the
/// pipeline emitted (warnings are present even on success). Replaces the
/// bare `Ok` flag + out-param `DiagnosticEngine` of the legacy API.
class Status {
public:
  Status() = default;

  static Status success(std::vector<Diagnostic> Diags = {}) {
    return Status(true, std::move(Diags));
  }
  static Status failure(std::vector<Diagnostic> Diags) {
    return Status(false, std::move(Diags));
  }

  bool ok() const { return Ok; }
  explicit operator bool() const { return Ok; }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// The first error message (empty on success) — a one-line summary for
  /// callers that do not want to render the full list.
  std::string summary() const;

  /// Renders every diagnostic, one per line.
  std::string str() const;

  /// \returns true if any diagnostic message contains \p Needle.
  bool contains(std::string_view Needle) const;

private:
  Status(bool Ok, std::vector<Diagnostic> Diags)
      : Ok(Ok), Diags(std::move(Diags)) {}

  bool Ok = false;
  std::vector<Diagnostic> Diags;
};

/// An immutable compiled program with all compiler-derived metadata.
/// A cheap value type: copies share the underlying const state, so an
/// artifact may be handed to any number of threads at once.
class CompiledArtifact {
  struct State; // Defined in the private section below.

public:
  /// Empty handle; `explicit operator bool` distinguishes it.
  CompiledArtifact() = default;

  explicit operator bool() const { return S != nullptr; }

  // Accessors require a non-empty handle: check Compilation::ok() (or this
  // artifact's operator bool) before use.
  const Program &program() const { return *state().Prog; }
  const PolicySet &policies() const { return state().Policies; }
  const std::vector<InferredRegion> &inferredRegions() const {
    return state().InferredRegions;
  }
  /// All regions with WAR/EMW/omega sets.
  const std::vector<RegionInfo> &regions() const { return state().Regions; }
  const MonitorPlan &monitorPlan() const { return state().Monitor; }
  /// The flat, precomputed execution form (linearized code, resolved
  /// targets, folded costs, monitor/region side tables). Built once at
  /// compile time; every Simulation of this artifact shares it.
  const ExecutableImage &image() const { return *state().Image; }
  std::shared_ptr<const ExecutableImage> imagePtr() const {
    return state().Image;
  }
  const EffortStats &effort() const { return state().Effort; }
  ExecModel model() const { return state().Model; }
  /// CheckOnly (and self-checked Ocelot) builds: whether the regions
  /// enforce all policies.
  bool placementValid() const { return state().PlacementValid; }

private:
  friend class Toolchain;

  const State &state() const {
    assert(S && "accessing an empty CompiledArtifact (failed compile?)");
    return *S;
  }

  struct State {
    std::unique_ptr<const Program> Prog;
    PolicySet Policies;
    std::vector<InferredRegion> InferredRegions;
    std::vector<RegionInfo> Regions;
    MonitorPlan Monitor;
    std::shared_ptr<const ExecutableImage> Image;
    EffortStats Effort;
    ExecModel Model = ExecModel::Ocelot;
    bool PlacementValid = false;
  };

  explicit CompiledArtifact(std::shared_ptr<const State> S)
      : S(std::move(S)) {}

  std::shared_ptr<const State> S;
};

/// The result of one Toolchain::compile call: a Status either way, and a
/// non-empty artifact exactly when the status is ok.
class Compilation {
public:
  bool ok() const { return S.ok(); }
  explicit operator bool() const { return ok(); }

  const Status &status() const { return S; }
  const CompiledArtifact &artifact() const { return A; }

private:
  friend class Toolchain;
  Status S;
  CompiledArtifact A;
};

/// Renders the policies and regions of \p A exactly as `ocelotc
/// --emit-policies` prints them: one line per fresh/consistent policy
/// followed by its input chains, then each inferred region's function and
/// every region's undo-log omega set.
std::string renderPolicies(const CompiledArtifact &A);

/// Counters for the process-wide compiled-artifact cache (see
/// Toolchain::compileCached).
struct ToolchainCacheStats {
  uint64_t Hits = 0;   ///< compileCached calls served from the cache.
  uint64_t Misses = 0; ///< compileCached calls that ran the pipeline.
  size_t Entries = 0;  ///< Distinct (source, options) pairs cached.
};

/// The end-to-end compiler (paper Fig. 3) behind a thread-safe facade: a
/// Toolchain holds only immutable default options, so any number of threads
/// may call compile() on one instance concurrently.
class Toolchain {
public:
  Toolchain() = default;
  explicit Toolchain(CompileOptions Defaults) : Defaults(Defaults) {}

  Compilation compile(const SourceRef &Src) const {
    return compile(Src, Defaults);
  }
  Compilation compile(const SourceRef &Src, const CompileOptions &Opts) const;

  /// Like compile(), but memoized in a process-wide thread-safe cache
  /// keyed by (source text, CompileOptions). Fleet shards and repeated
  /// sweep resumes hit the same handful of (benchmark, model) pairs over
  /// and over; with the cache each distinct pair compiles exactly once
  /// per process and every caller shares one immutable artifact. Only
  /// successful compilations are cached (failures re-run the pipeline so
  /// their diagnostics stay fresh). When two threads miss on the same key
  /// at once, both compile but the first insertion wins and both callers
  /// receive the winning artifact — so sharing still holds.
  Compilation compileCached(const SourceRef &Src) const {
    return compileCached(Src, Defaults);
  }
  Compilation compileCached(const SourceRef &Src,
                            const CompileOptions &Opts) const;

  /// Snapshot of the process-wide cache counters (tests, diagnostics).
  static ToolchainCacheStats cacheStats();

  /// Drops every cached artifact and zeroes the counters (tests).
  static void clearCache();

  const CompileOptions &defaults() const { return Defaults; }

private:
  CompileOptions Defaults;
};

} // namespace ocelot

#endif // OCELOT_OCELOT_TOOLCHAIN_H
