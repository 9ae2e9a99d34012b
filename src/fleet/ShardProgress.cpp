//===- ShardProgress.cpp - Advisory per-shard progress heartbeats ----------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/ShardProgress.h"

#include "fleet/FleetRunner.h"
#include "support/ParseNumber.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace ocelot;

std::string ocelot::shardProgressPath(const ShardRunOptions &Opts) {
  // Derived from the manifest path so every process agrees on the stem.
  const std::string Suffix = ".manifest";
  std::string P = shardManifestPath(Opts);
  P.replace(P.size() - Suffix.size(), Suffix.size(), ".progress");
  return P;
}

ProgressWriter::ProgressWriter(std::string Path, double MinIntervalSec)
    : Path(std::move(Path)),
      MinInterval(std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(MinIntervalSec))) {}

void ProgressWriter::heartbeat(const ShardProgress &P, bool Force) {
  auto Now = std::chrono::steady_clock::now();
  if (Appended && !Force && Now - LastAppend < MinInterval)
    return;
  std::FILE *F = std::fopen(Path.c_str(), "a");
  if (!F)
    return; // Advisory: a read-only dir must not fail the shard.
  std::fprintf(F,
               "{\"shard\": %u, \"of\": %u, \"cells_begin\": %zu, "
               "\"cells_end\": %zu, \"cells_done\": %zu, "
               "\"cells_per_sec\": %.3f, \"eta_sec\": %.3f, "
               "\"wall_ms\": %llu}\n",
               P.Shard, P.ShardCount, P.CellsBegin, P.CellsEnd, P.CellsDone,
               P.CellsPerSec, P.EtaSec,
               static_cast<unsigned long long>(P.WallMs));
  std::fclose(F);
  LastAppend = Now;
  Appended = true;
}

namespace {

/// Parses `"Key": <number>` out of one JSONL line: the number runs to the
/// next ',' or '}' and must be all of that text (parseDouble). Returns
/// false when the key is absent or not followed by such a number.
bool findNum(const std::string &Line, const char *Key, double &Val) {
  std::string Needle = std::string("\"") + Key + "\": ";
  size_t Pos = Line.find(Needle);
  if (Pos == std::string::npos)
    return false;
  const size_t Start = Pos + Needle.size();
  const size_t End = Line.find_first_of(",}", Start);
  if (End == std::string::npos)
    return false;
  return parseDouble(std::string_view(Line).substr(Start, End - Start), Val);
}

/// findNum for a count stored in an unsigned type of \p Bits bits: it must
/// lie in [0, 2^Bits), or converting it would be undefined.
bool findCount(const std::string &Line, const char *Key, int Bits,
               double &Val) {
  return findNum(Line, Key, Val) && Val >= 0 && Val < std::ldexp(1.0, Bits);
}

bool parseProgressLine(const std::string &Line, ShardProgress &Out) {
  constexpr int UBits = std::numeric_limits<unsigned>::digits;
  constexpr int SizeBits = std::numeric_limits<size_t>::digits;
  constexpr int U64Bits = std::numeric_limits<uint64_t>::digits;
  double Shard, Of, Begin, End, Done, Rate, Eta, Wall;
  if (!findCount(Line, "shard", UBits, Shard) ||
      !findCount(Line, "of", UBits, Of) ||
      !findCount(Line, "cells_begin", SizeBits, Begin) ||
      !findCount(Line, "cells_end", SizeBits, End) ||
      !findCount(Line, "cells_done", SizeBits, Done) ||
      !findNum(Line, "cells_per_sec", Rate) ||
      !findNum(Line, "eta_sec", Eta) ||
      !findCount(Line, "wall_ms", U64Bits, Wall))
    return false;
  Out.Shard = static_cast<unsigned>(Shard);
  Out.ShardCount = static_cast<unsigned>(Of);
  Out.CellsBegin = static_cast<size_t>(Begin);
  Out.CellsEnd = static_cast<size_t>(End);
  Out.CellsDone = static_cast<size_t>(Done);
  Out.CellsPerSec = Rate;
  Out.EtaSec = Eta;
  Out.WallMs = static_cast<uint64_t>(Wall);
  return true;
}

} // namespace

bool ocelot::readLastShardProgress(const std::string &Path,
                                   ShardProgress &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  bool Found = false;
  std::string Line;
  char Buf[512];
  while (std::fgets(Buf, sizeof(Buf), F)) {
    Line = Buf;
    // A record interrupted mid-write has no trailing newline; skip it
    // rather than parse half a number.
    if (Line.empty() || Line.back() != '\n')
      continue;
    ShardProgress P;
    if (parseProgressLine(Line, P)) {
      Out = P;
      Found = true;
    }
  }
  std::fclose(F);
  return Found;
}
