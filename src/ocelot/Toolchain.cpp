//===- Toolchain.cpp - Thread-safe compilation API --------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ocelot/Toolchain.h"

#include "telemetry/MetricsRegistry.h"

#include <chrono>
#include <mutex>
#include <unordered_map>

using namespace ocelot;

namespace {

/// The process-wide artifact cache behind Toolchain::compileCached. The
/// key is the full source text plus every CompileOptions field, so two
/// compiles share an entry exactly when the pipeline would produce the
/// same artifact. Artifacts are immutable shared handles, so handing the
/// same Compilation to every caller is safe by construction.
struct ArtifactCache {
  std::mutex Mu;
  std::unordered_map<std::string, Compilation> Entries;
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  static ArtifactCache &instance() {
    static ArtifactCache C;
    return C;
  }
};

/// Canonical cache key: the options fields are prefixed so a source text
/// can never collide with another source compiled under other options.
std::string cacheKey(const SourceRef &Src, const CompileOptions &Opts) {
  std::string Key;
  Key.reserve(Src.Text.size() + 32);
  Key += static_cast<char>('0' + static_cast<int>(Opts.Model));
  Key += Opts.Verify ? 'v' : '-';
  Key += Opts.SelfCheck ? 's' : '-';
  Key += '\x1f';
  Key += Src.Text;
  return Key;
}

} // namespace

std::string Status::summary() const {
  for (const Diagnostic &D : Diags)
    if (D.Kind == DiagKind::Error)
      return D.Message;
  return "";
}

std::string Status::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags)
    Out += D.str() + "\n";
  return Out;
}

bool Status::contains(std::string_view Needle) const {
  for (const Diagnostic &D : Diags)
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

std::string ocelot::renderPolicies(const CompiledArtifact &A) {
  const Program &P = A.program();
  std::string Out;
  for (const FreshPolicy &Pol : A.policies().Fresh) {
    Out += "fresh policy #" + std::to_string(Pol.Id) + " on '" +
           Pol.VarName + "' in " + P.function(Pol.DeclFunc)->name() + ": " +
           std::to_string(Pol.Inputs.size()) + " input(s), " +
           std::to_string(Pol.Uses.size()) + " use(s)\n";
    for (const ProvChain &Ch : Pol.Inputs)
      Out += "  input " + chainToString(P, Ch) + "\n";
  }
  for (const ConsistentPolicy &Pol : A.policies().Consistent) {
    Out += "consistent policy #" + std::to_string(Pol.Id) + " (set " +
           std::to_string(Pol.SetId) + "): " +
           std::to_string(Pol.Decls.size()) + " member(s), " +
           std::to_string(Pol.Inputs.size()) + " input(s)\n";
    for (const ProvChain &Ch : Pol.Inputs)
      Out += "  input " + chainToString(P, Ch) + "\n";
  }
  for (const InferredRegion &Reg : A.inferredRegions())
    Out += "region r" + std::to_string(Reg.RegionId) + " placed in " +
           P.function(Reg.Func)->name() + "\n";
  for (const RegionInfo &Info : A.regions()) {
    Out += "region r" + std::to_string(Info.RegionId) + " omega = {";
    const char *Sep = "";
    for (int G : Info.Omega) {
      Out += Sep + P.global(G).Name;
      Sep = ", ";
    }
    Out += "}\n";
  }
  return Out;
}

Compilation Toolchain::compile(const SourceRef &Src,
                               const CompileOptions &Opts) const {
  // The pipeline itself has no shared state: every invocation works on its
  // own DiagnosticEngine and freshly built IR, which is what makes this
  // entry point safe to call from many threads at once.
  auto Since = [](std::chrono::steady_clock::time_point T) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T)
        .count();
  };
  auto Start = std::chrono::steady_clock::now();
  DiagnosticEngine Diags;
  CompileResult R = detail::runCompilePipeline(std::string(Src.Text), Opts,
                                               Diags);
  Compilation C;
  if (R.Ok) {
    auto State = std::make_shared<CompiledArtifact::State>();
    State->Prog = std::move(R.Prog);
    State->Policies = std::move(R.Policies);
    State->InferredRegions = std::move(R.InferredRegions);
    State->Regions = std::move(R.Regions);
    State->Monitor = std::move(R.Monitor);
    // Precompute the flat execution form once; every Simulation built
    // from this artifact shares it read-only.
    auto ImageStart = std::chrono::steady_clock::now();
    State->Image = ExecutableImage::build(*State->Prog, &State->Regions,
                                          &State->Monitor);
    R.PassMs[static_cast<size_t>(CompilePass::Image)] = Since(ImageStart);
    State->Effort = R.Effort;
    State->Model = Opts.Model;
    State->PlacementValid = R.PlacementValid;

    C.S = Status::success(Diags.diagnostics());
    C.A = CompiledArtifact(
        std::shared_ptr<const CompiledArtifact::State>(std::move(State)));
  } else {
    C.S = Status::failure(Diags.diagnostics());
  }

  // Every compile feeds every pass summary (0 for passes that did not
  // run), so each summary's count equals toolchain.compile.count.
  MetricsRegistry &M = MetricsRegistry::global();
  M.add("toolchain.compile.count");
  M.observe("toolchain.compile.wall_ms", Since(Start));
  for (size_t P = 0; P < NumCompilePasses; ++P)
    M.observe(std::string("toolchain.compile.") +
                  compilePassName(static_cast<CompilePass>(P)) + "_ms",
              R.PassMs[P]);
  return C;
}

Compilation Toolchain::compileCached(const SourceRef &Src,
                                     const CompileOptions &Opts) const {
  ArtifactCache &Cache = ArtifactCache::instance();
  std::string Key = cacheKey(Src, Opts);
  {
    std::lock_guard<std::mutex> Lock(Cache.Mu);
    auto It = Cache.Entries.find(Key);
    if (It != Cache.Entries.end()) {
      ++Cache.Hits;
      MetricsRegistry::global().add("toolchain.cache.hits");
      return It->second;
    }
    ++Cache.Misses;
    MetricsRegistry::global().add("toolchain.cache.misses");
  }

  // Compile outside the lock: the pipeline is the expensive part, and
  // holding the mutex across it would serialize every thread's misses.
  Compilation C = compile(Src, Opts);
  if (!C.ok())
    return C; // Failures are never cached; diagnostics stay per-call.

  std::lock_guard<std::mutex> Lock(Cache.Mu);
  // First insertion wins; a racing thread that also missed adopts the
  // winner so all callers share one artifact.
  auto [It, Inserted] = Cache.Entries.emplace(std::move(Key), std::move(C));
  return It->second;
}

ToolchainCacheStats Toolchain::cacheStats() {
  ArtifactCache &Cache = ArtifactCache::instance();
  std::lock_guard<std::mutex> Lock(Cache.Mu);
  ToolchainCacheStats S;
  S.Hits = Cache.Hits;
  S.Misses = Cache.Misses;
  S.Entries = Cache.Entries.size();
  return S;
}

void Toolchain::clearCache() {
  ArtifactCache &Cache = ArtifactCache::instance();
  std::lock_guard<std::mutex> Lock(Cache.Mu);
  Cache.Entries.clear();
  Cache.Hits = Cache.Misses = 0;
}
