//===- Dominators.cpp - Dominator and post-dominator trees -------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>

using namespace ocelot;

namespace {

/// CFG adapter that presents forward or reversed edges, with an optional
/// virtual root for post-dominators over multi-exit functions.
struct Graph {
  int NumNodes = 0;
  int Root = 0;
  std::vector<std::vector<int>> Succs;
  std::vector<std::vector<int>> Preds;

  static Graph forward(const Function &F) {
    Graph G;
    G.NumNodes = F.numBlocks();
    G.Root = 0;
    G.Succs.resize(G.NumNodes);
    G.Preds.resize(G.NumNodes);
    for (int B = 0; B < F.numBlocks(); ++B)
      for (int S : F.block(B)->successors()) {
        G.Succs[B].push_back(S);
        G.Preds[S].push_back(B);
      }
    return G;
  }

  static Graph reverse(const Function &F) {
    Graph G;
    int NB = F.numBlocks();
    std::vector<int> Exits;
    for (int B = 0; B < NB; ++B)
      if (F.block(B)->successors().empty())
        Exits.push_back(B);
    bool Virtual = Exits.size() != 1;
    G.NumNodes = NB + (Virtual ? 1 : 0);
    G.Root = Virtual ? NB : Exits[0];
    G.Succs.resize(G.NumNodes);
    G.Preds.resize(G.NumNodes);
    for (int B = 0; B < NB; ++B)
      for (int S : F.block(B)->successors()) {
        // Reversed edge S -> B.
        G.Succs[S].push_back(B);
        G.Preds[B].push_back(S);
      }
    if (Virtual)
      for (int E : Exits) {
        G.Succs[NB].push_back(E);
        G.Preds[E].push_back(NB);
      }
    return G;
  }
};

} // namespace

std::vector<int>
ocelot::reversePostOrder(const std::vector<std::vector<int>> &Succs,
                         int Root) {
  std::vector<int> Order; // postorder, reversed at the end
  std::vector<std::pair<int, size_t>> Stack;
  std::vector<char> Visited(Succs.size(), 0);
  Stack.push_back({Root, 0});
  Visited[Root] = 1;
  while (!Stack.empty()) {
    auto &[Node, EdgeIdx] = Stack.back();
    const std::vector<int> &Out = Succs[Node];
    if (EdgeIdx < Out.size()) {
      int Next = Out[EdgeIdx++];
      if (!Visited[Next]) {
        Visited[Next] = 1;
        Stack.push_back({Next, 0});
      }
    } else {
      Order.push_back(Node);
      Stack.pop_back();
    }
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

std::vector<int> ocelot::reversePostOrder(const Function &F) {
  int NB = F.numBlocks();
  if (NB == 0)
    return {};
  std::vector<std::vector<int>> Succs(NB);
  for (int B = 0; B < NB; ++B)
    Succs[B] = F.block(B)->successors();
  std::vector<int> Order = reversePostOrder(Succs, 0);
  std::vector<char> Placed(NB, 0);
  for (int B : Order)
    Placed[B] = 1;
  for (int B = 0; B < NB; ++B)
    if (!Placed[B])
      Order.push_back(B);
  return Order;
}

DominatorTree DominatorTree::compute(const Function &F, bool Post) {
  Graph G = Post ? Graph::reverse(F) : Graph::forward(F);

  // PostIndex orders nodes for Intersect; -1 marks unreachable nodes.
  std::vector<int> Order = reversePostOrder(G.Succs, G.Root);
  std::vector<int> PostIndex(G.NumNodes, -1);
  for (size_t I = 0; I < Order.size(); ++I)
    PostIndex[Order[I]] = static_cast<int>(Order.size() - 1 - I);

  std::vector<int> Idom(G.NumNodes, -1);
  Idom[G.Root] = G.Root;

  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (PostIndex[A] < PostIndex[B])
        A = Idom[A];
      while (PostIndex[B] < PostIndex[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Iterate in reverse postorder, skipping the root.
    for (int Node : Order) {
      if (Node == G.Root)
        continue;
      int NewIdom = -1;
      for (int P : G.Preds[Node]) {
        if (Idom[P] == -1 && P != G.Root)
          continue; // Not yet processed / unreachable.
        if (PostIndex[P] < 0)
          continue;
        NewIdom = NewIdom == -1 ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != -1 && Idom[Node] != NewIdom) {
        Idom[Node] = NewIdom;
        Changed = true;
      }
    }
  }

  DominatorTree T;
  T.PostDom = Post;
  int NB = F.numBlocks();
  T.Idom.assign(NB, -1);
  T.Depth.assign(NB, -1);
  bool Virtual = G.NumNodes != NB;

  // A node's immediate dominator precedes it in reverse postorder, so one
  // pass in that order sets every depth from its parent's.
  std::vector<int> NodeDepth(G.NumNodes, -1);
  for (int Node : Order)
    NodeDepth[Node] = Node == G.Root ? 0 : NodeDepth[Idom[Node]] + 1;
  for (int B = 0; B < NB; ++B) {
    T.Depth[B] = NodeDepth[B];
    if (NodeDepth[B] < 0)
      continue;
    int Parent = (B == G.Root) ? -1 : Idom[B];
    // A virtual root is reported as -1.
    T.Idom[B] = (Parent >= 0 && Virtual && Parent == NB) ? -1 : Parent;
  }
  return T;
}

DominatorTree DominatorTree::computeDominators(const Function &F) {
  return compute(F, /*Post=*/false);
}

DominatorTree DominatorTree::computePostDominators(const Function &F) {
  return compute(F, /*Post=*/true);
}

bool DominatorTree::dominates(int A, int B) const {
  if (Depth[A] < 0 || Depth[B] < 0)
    return false;
  while (Depth[B] > Depth[A]) {
    B = Idom[B];
    if (B < 0)
      return false;
  }
  return A == B;
}

bool DominatorTree::dominates(InstrPos A, InstrPos B) const {
  if (A.Block == B.Block)
    return PostDom ? A.Index >= B.Index : A.Index <= B.Index;
  return dominates(A.Block, B.Block);
}

int DominatorTree::closestCommon(int A, int B) const {
  if (Depth[A] < 0 || Depth[B] < 0)
    return -1;
  while (A != B) {
    if (Depth[A] < Depth[B])
      std::swap(A, B);
    A = Idom[A];
    if (A < 0)
      return -1;
  }
  return A;
}

int DominatorTree::closestCommon(const std::vector<int> &Blocks) const {
  assert(!Blocks.empty() && "need at least one block");
  int Common = Blocks[0];
  for (size_t I = 1; I < Blocks.size() && Common >= 0; ++I)
    Common = closestCommon(Common, Blocks[I]);
  return Common;
}
