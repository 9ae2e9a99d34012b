//===- TaintAnalysis.h - Input-dependence analysis --------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inter-procedural, context-sensitive input-dependence ("taint") analysis,
/// reproducing the paper's §5.1 / Appendix I (Algorithm 2):
///
///  * Inputs are the taint sources; taint propagates through data flow and
///    control flow (branch conditions taint control-dependent definitions).
///  * Each taint carries *provenance*: the chain of call sites ending at the
///    input instruction (the paper's rho), so two calls to the same sensor
///    wrapper are distinguished (Fig. 6(b)).
///  * Function summaries record how taint enters (argBy), leaves (retBy),
///    and flows through reference parameters (pbr), mirroring the paper's
///    local/caller summaries; OCL's ownership discipline (references created
///    only at call sites, targets statically known) stands in for the Rust
///    alias precision Ocelot relies on (§3.3).
///  * Mutable non-volatile globals — which the paper excludes in Rust — are
///    supported conservatively: the content taint of a global is the
///    program-wide union of everything ever stored to it (flow-insensitive),
///    which is sound for policy construction.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_ANALYSIS_TAINTANALYSIS_H
#define OCELOT_ANALYSIS_TAINTANALYSIS_H

#include "analysis/CallGraph.h"
#include "ir/Program.h"

#include <map>
#include <memory>
#include <set>
#include <vector>

namespace ocelot {

/// Handle of an immutable sorted set of 32-bit values, hash-consed in the
/// TaintAnalysis that made it: equal sets have equal handles, and handle 0
/// is the empty set. A handle is only a name; its number says nothing about
/// the set's members or their order.
struct IdSet {
  uint32_t Id = 0;

  bool empty() const { return Id == 0; }
  friend bool operator==(IdSet, IdSet) = default;
};

/// Symbolic taint of a value within one function's analysis space. Each
/// field is a hash-consed set of its owning TaintAnalysis, so a TokenSet
/// copies and compares as four integers; read the members through
/// TaintAnalysis::members and TaintAnalysis::resolveRelative.
/// (ProvChain itself is defined with the IR in ir/Instruction.h.)
struct TokenSet {
  /// Taint entering through value parameters (paper: argBy): parameter
  /// indices.
  IdSet Params;
  /// Taint read through reference parameters' referents (resolved to the
  /// target global at each call site): parameter indices.
  IdSet RefContents;
  /// Inputs reached without leaving this function's subtree: chains whose
  /// first element is an instruction of this function (paper: local /
  /// retBy composition), as interned chain ids.
  IdSet Locals;
  /// Taint obtained by reading a non-volatile global's content: global ids.
  IdSet Globals;

  bool empty() const {
    return Params.empty() && RefContents.empty() && Locals.empty() &&
           Globals.empty();
  }
  friend bool operator==(const TokenSet &, const TokenSet &) = default;
};

/// Per-function analysis results.
struct FunctionTaint {
  /// Taint of the returned value (paper: ret <- inInfo).
  TokenSet Ret;
  /// Taint stored through each reference parameter (paper: &arg <- inInfo).
  std::map<int, TokenSet> RefOut;
  /// Taint stored to each global, including effects of callees.
  std::map<int, TokenSet> GlobalWrites;
  /// Taint of the annotated operand at each Fresh/Consistent marker,
  /// keyed by the marker's label.
  std::map<uint32_t, TokenSet> AnnotTaint;
  /// Taint of every argument at each call site, keyed by the call label.
  std::map<uint32_t, std::vector<TokenSet>> CallArgTaint;
  /// Final (fixpoint) taint of every register, merged over the whole
  /// function. Used by use-site collection and tests.
  std::vector<TokenSet> RegTaint;
};

/// Runs the analysis over a whole program. The call graph must be acyclic.
///
/// The analysis owns the tables its TokenSets name: interned chains (a
/// call site prefixed onto a chain is one memoized lookup) and hash-consed
/// sets with memoized unions. They live as long as the analysis and are
/// touched only while it is constructed, so the const queries below are
/// safe to call from any thread.
class TaintAnalysis {
public:
  TaintAnalysis(const Program &P, const CallGraph &CG);
  TaintAnalysis(TaintAnalysis &&) noexcept;
  ~TaintAnalysis();

  const FunctionTaint &functionTaint(int Func) const { return FT[Func]; }

  /// Program-wide content taint of global \p G as absolute chains (rooted
  /// at main), sorted.
  const std::vector<ProvChain> &globalContent(int G) const {
    return GlobalContent[G];
  }

  /// All absolute call chains from main to \p Func (each a list of call
  /// sites; empty chain for main itself).
  const std::vector<ProvChain> &contexts(int Func) const {
    return Contexts[Func];
  }

  /// The members of \p S in ascending order: parameter or global ids, or,
  /// for a Locals set, chain ids (ascending ids are not chain order; use
  /// resolveRelative for the chains).
  std::vector<uint32_t> members(IdSet S) const;

  /// \returns true if \p T only contains Locals tokens, i.e. every input it
  /// depends on is reached inside the owning function's subtree.
  static bool isSelfContained(const TokenSet &T) {
    return T.Params.empty() && T.RefContents.empty() && T.Globals.empty();
  }

  /// Expands \p T (in \p Func's space) into absolute chains rooted at main,
  /// sorted and without duplicates: Params through every caller,
  /// RefContents/Globals through the global content map, Locals by
  /// prefixing with every context of \p Func.
  std::vector<ProvChain> resolveAbsolute(int Func, const TokenSet &T) const;

  /// The Locals chains of \p T, relative to its function, sorted. Only
  /// complete for self-contained sets.
  std::vector<ProvChain> resolveRelative(const TokenSet &T) const;

private:
  struct Tables;

  void analyzeFunction(int Func);
  void computeContexts();
  void computeGlobalContent();
  /// Joins \p From into \p Into; \returns true if \p Into grew.
  bool merge(TokenSet &Into, const TokenSet &From);
  TokenSet translateCalleeTokens(const Instruction &Call,
                                 const TokenSet &CalleeTokens,
                                 const std::vector<TokenSet> &ArgTokens,
                                 int CallerFunc);
  void resolveAbsoluteInto(int Func, const TokenSet &T,
                           std::vector<ProvChain> &Out,
                           std::set<std::pair<int, int>> &ParamGuard) const;

  const Program &P;
  const CallGraph &CG;
  std::unique_ptr<Tables> Tab;
  std::vector<FunctionTaint> FT;
  std::vector<std::vector<ProvChain>> GlobalContent;
  std::vector<std::vector<ProvChain>> Contexts;
};

} // namespace ocelot

#endif // OCELOT_ANALYSIS_TAINTANALYSIS_H
