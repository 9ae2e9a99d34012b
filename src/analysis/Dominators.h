//===- Dominators.h - Dominator and post-dominator trees --------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative dominator-tree construction (Cooper-Harvey-Kennedy, "A Simple,
/// Fast Dominance Algorithm") over a function's block CFG, in both forward
/// (dominators) and reverse (post-dominators) direction. Region inference
/// uses closestCommonDominator / closestCommonPostDominator exactly as
/// Ocelot uses LLVM's passes (Algorithm 1, lines 17-18).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_ANALYSIS_DOMINATORS_H
#define OCELOT_ANALYSIS_DOMINATORS_H

#include "ir/Function.h"

#include <vector>

namespace ocelot {

/// Reverse postorder of the nodes reachable from \p Root in the graph whose
/// successor lists are \p Succs (depth-first, successors taken in list
/// order). Unreachable nodes are left out.
std::vector<int> reversePostOrder(const std::vector<std::vector<int>> &Succs,
                                  int Root);

/// Reverse postorder of \p F's blocks from the entry block, followed by the
/// blocks the entry cannot reach, in id order. Every block appears once.
std::vector<int> reversePostOrder(const Function &F);

/// A dominator (or post-dominator) tree for one function.
class DominatorTree {
public:
  /// Builds the forward dominator tree rooted at the entry block.
  static DominatorTree computeDominators(const Function &F);

  /// Builds the post-dominator tree. Functions lowered from OCL have a
  /// single exit block (the return landing pad), which becomes the root;
  /// if several exit blocks exist a virtual root joins them.
  static DominatorTree computePostDominators(const Function &F);

  /// Immediate dominator of \p B, or -1 for the root / unreachable blocks.
  int idom(int B) const { return Idom[B]; }

  /// \returns true if block \p A dominates block \p B (reflexively).
  bool dominates(int A, int B) const;

  /// \returns true if the instruction at \p A dominates the one at \p B,
  /// using intra-block ordering when the blocks coincide. For
  /// post-dominator trees this reads "post-dominates" with the comparison
  /// reversed.
  bool dominates(InstrPos A, InstrPos B) const;

  /// Nearest common (post-)dominator of two blocks; -1 if disconnected.
  int closestCommon(int A, int B) const;

  /// Nearest common (post-)dominator of a non-empty set of blocks.
  int closestCommon(const std::vector<int> &Blocks) const;

  bool isReachable(int B) const { return Depth[B] >= 0; }
  bool isPostDom() const { return PostDom; }

private:
  DominatorTree() = default;
  static DominatorTree compute(const Function &F, bool Post);

  std::vector<int> Idom;
  std::vector<int> Depth; ///< Depth in the tree; -1 for unreachable.
  bool PostDom = false;
};

} // namespace ocelot

#endif // OCELOT_ANALYSIS_DOMINATORS_H
