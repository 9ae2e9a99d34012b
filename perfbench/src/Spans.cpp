//===- Spans.cpp - In-memory spans, Chrome-trace export, self time --------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace perfbench;

namespace {

/// Index of the ancestor of \p Id (or \p Id itself) whose parent is
/// \p Root; -1 when \p Id is not under \p Root.
int childOfRoot(const std::vector<Span> &Spans, int Id, int Root) {
  while (Id >= 0) {
    int Parent = Spans[static_cast<size_t>(Id)].Parent;
    if (Parent == Root)
      return Id;
    Id = Parent;
  }
  return -1;
}

} // namespace

int SpanRecorder::open(std::string Name, int Parent, unsigned Tid) {
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Span S;
  S.Name = std::move(Name);
  S.StartNs = Now;
  S.EndNs = Now;
  S.Parent = Parent;
  S.Tid = Tid;
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

void SpanRecorder::close(int Id, uint64_t Work) {
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
  Spans[static_cast<size_t>(Id)].Work = Work;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path,
                                    std::string &Error) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Error = "cannot write trace file '" + Path + "'";
    return false;
  }
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    // Span names are fixed identifiers (no quotes or backslashes).
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"work\":%llu}}\n",
                 I ? "," : "", S.Name.c_str(), S.Tid,
                 static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                 static_cast<unsigned long long>(S.Work));
  }
  std::fprintf(F, "]}\n");
  if (std::fclose(F) != 0) {
    Error = "error writing trace file '" + Path + "'";
    return false;
  }
  return true;
}

std::vector<double> perfbench::selfTimesMs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartNs, S.EndNs});

  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Union of the children's intervals, clipped to the parent: children
    // on parallel worker threads overlap each other.
    int64_t Covered = 0, RunStart = 0, RunEnd = -1;
    for (auto [B, E] : Kids) {
      B = std::max(B, S.StartNs);
      E = std::min(E, S.EndNs);
      if (E <= B)
        continue;
      if (B > RunEnd) {
        if (RunEnd > RunStart)
          Covered += RunEnd - RunStart;
        RunStart = B;
        RunEnd = E;
      } else {
        RunEnd = std::max(RunEnd, E);
      }
    }
    if (RunEnd > RunStart)
      Covered += RunEnd - RunStart;
    Self[I] = static_cast<double>(S.EndNs - S.StartNs - Covered) / 1e6;
  }
  return Self;
}

std::vector<std::map<std::string, double>>
perfbench::selfTimeByRepetition(const std::vector<Span> &Spans, int Root) {
  std::vector<double> Self = selfTimesMs(Spans);
  std::map<int, size_t> RepIndex;
  std::vector<std::map<std::string, double>> Reps;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent == Root) {
      RepIndex[static_cast<int>(I)] = Reps.size();
      Reps.emplace_back();
    }
  for (size_t I = 0; I < Spans.size(); ++I) {
    int Rep = childOfRoot(Spans, static_cast<int>(I), Root);
    if (Rep < 0 || Rep == static_cast<int>(I))
      continue;
    Reps[RepIndex[Rep]][Spans[I].Name] += Self[I];
  }
  return Reps;
}
