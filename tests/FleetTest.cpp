//===- FleetTest.cpp - The sharded sweep service ---------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contract tests for src/fleet/: the shard plan partition, sink
/// round-trips (every SweepCellResult field, both formats), the
/// determinism spine (shard + merge ≡ sequential, bitwise — including
/// after a mid-shard kill and resume over a torn sink, and with the
/// input-epoch oracle armed), the two-slot manifest (in-place commits,
/// fallback from a torn newest slot, seeded mutations), the error paths
/// (corrupt or v1 manifest, spec-hash mismatch, incomplete merge), and
/// the process-wide compiled-artifact cache.
///
//===----------------------------------------------------------------------===//

#include "fleet/FleetRunner.h"
#include "fleet/ShardProgress.h"

#include "harness/Experiment.h"
#include "ocelot/Toolchain.h"

#include "Mutate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace ocelot;
using ocelot::test::mutate;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Raw;
  Raw << In.rdbuf();
  return Raw.str();
}

/// Replaces \p Path by a new file holding \p Bytes. Unlinking first keeps
/// each rewrite cheap: truncating a non-empty file waits for the disk on
/// ext4.
void writeFile(const std::string &Path, const std::string &Bytes) {
  std::remove(Path.c_str());
  std::ofstream Out(Path, std::ios::binary);
  Out << Bytes;
}

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "fleet-" + Name + "-" +
                    std::to_string(::getpid());
  std::remove(Dir.c_str());
#ifndef _WIN32
  ::mkdir(Dir.c_str(), 0777);
#endif
  return Dir;
}

/// A small grid spanning all five swept dimensions. cem × quake-bursts
/// feeds readings outside the firmware's trusted range, so the grid also
/// exercises trapped cells end to end.
FleetSpec wideSpec() {
  FleetSpec F;
  F.Models = {"ocelot", "jit"};
  F.Benchmarks = {"photo", "cem"};
  F.Energies = {EnergyConfig(), EnergyConfig{3000, 350, 0.1, 0.25, 0.2}};
  F.Powers = {"default", "rf-office"};
  F.Scenarios = {"default", "quake-bursts"};
  F.Seeds = {5};
  F.TauBudget = 60000;
  return F;
}

FleetSpec tinySpec() {
  FleetSpec F;
  F.Models = {"ocelot"};
  F.Benchmarks = {"photo"};
  F.Energies = {EnergyConfig()};
  F.Seeds = {5, 6, 7, 8};
  F.TauBudget = 60000;
  return F;
}

ShardRunOptions shardOpts(const std::string &Dir, unsigned Shard,
                          unsigned Count, SinkFormat Format) {
  ShardRunOptions O;
  O.OutDir = Dir;
  O.Shard = Shard;
  O.ShardCount = Count;
  O.Format = Format;
  O.Quiet = true;
  return O;
}

// -- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, PartitionsContiguouslyAndBalanced) {
  for (size_t Cells : {size_t(0), size_t(1), size_t(5), size_t(24),
                       size_t(97), size_t(10000)}) {
    for (unsigned Shards : {1u, 2u, 3u, 4u, 7u, 13u}) {
      ShardPlan Plan(Cells, Shards);
      size_t Expect = 0;
      size_t Lo = Cells / Shards, Hi = Lo + (Cells % Shards ? 1 : 0);
      for (unsigned S = 0; S < Shards; ++S) {
        ShardRange R = Plan.range(S);
        EXPECT_EQ(R.Begin, Expect) << Cells << "/" << Shards << " @" << S;
        EXPECT_GE(R.size(), std::min(Lo, Hi));
        EXPECT_LE(R.size(), Hi);
        Expect = R.End;
      }
      EXPECT_EQ(Expect, Cells);
    }
  }
}

TEST(ShardPlan, ParseShardSpecAcceptsAndRejects) {
  unsigned S = 99, K = 99;
  std::string Err;
  EXPECT_TRUE(parseShardSpec("0/1", S, K, Err));
  EXPECT_EQ(S, 0u);
  EXPECT_EQ(K, 1u);
  EXPECT_TRUE(parseShardSpec("3/4", S, K, Err));
  EXPECT_EQ(S, 3u);
  EXPECT_EQ(K, 4u);
  // Values that do not fit an unsigned are rejected, not truncated: a
  // wrapped 4294967297 would read as K = 1.
  for (const char *Bad : {"", "3", "a/b", "4/4", "5/4", "-1/4", "2/0",
                          "1/2x", "+1/4", "0/4294967297", "4294967296/1",
                          "0/-4"}) {
    EXPECT_FALSE(parseShardSpec(Bad, S, K, Err)) << Bad;
    EXPECT_NE(Err.find("bad shard spec"), std::string::npos) << Err;
  }
}

// -- Sink round-trips -------------------------------------------------------

std::vector<CellRecord> trickyRecords() {
  std::vector<CellRecord> Rs;
  CellRecord A;
  A.Cell = 12345;
  A.Result.Model = 1;
  A.Result.Bench = 2;
  A.Result.Energy = 3;
  A.Result.Power = 4;
  A.Result.Scenario = 5;
  A.Result.Seed = 6;
  A.Result.Metrics.OnCyclesPerRun = 1.0 / 3.0;
  A.Result.Metrics.OffCyclesPerRun = 0.1;
  A.Result.Metrics.RebootsPerRun = 16285.714285714286;
  A.Result.Metrics.CompletedRuns = 18446744073709551615ull;
  A.Result.Metrics.ViolatingRuns = 7;
  A.Result.Metrics.OracleFreshOutputs = 18446744073709551614ull;
  A.Result.Metrics.OracleStaleOutputs = 11;
  A.Result.Metrics.OracleCrossEpochOutputs = 13;
  A.Result.Metrics.OracleDirtyRuns = 5;
  A.Result.Metrics.OverEnforcedRuns = 2;
  A.Result.Metrics.UnderEnforcedRuns = 3;
  A.Result.Metrics.Starved = true;
  Rs.push_back(A);

  CellRecord B;
  B.Cell = 0;
  B.Result.Metrics.OnCyclesPerRun = 1e300;
  B.Result.Metrics.OffCyclesPerRun = 5e-324; // Denormal min.
  B.Result.Metrics.RebootsPerRun = -0.0;
  B.Result.Metrics.Trapped = true;
  B.Result.Metrics.Trap = "he said \"boo\", twice\nand a\ttab\r\\done";
  Rs.push_back(B);
  return Rs;
}

class SinkRoundTrip : public ::testing::TestWithParam<SinkFormat> {};

TEST_P(SinkRoundTrip, EveryFieldSurvivesAndReEmitsByteIdentical) {
  SinkFormat Format = GetParam();
  std::string Path = ::testing::TempDir() + "roundtrip-" +
                     std::to_string(::getpid()) + "." +
                     sinkFormatExtension(Format);
  std::string Err;
  auto Sink = openResultSink(Path, Format, -1, Err);
  ASSERT_TRUE(Sink) << Err;
  std::vector<CellRecord> Want = trickyRecords();
  for (const CellRecord &R : Want)
    Sink->append(R);
  ASSERT_TRUE(Sink->flush(Err)) << Err;
  Sink.reset();

  std::vector<CellRecord> Got;
  ASSERT_TRUE(readResultFile(Path, Format, Got, Err)) << Err;
  ASSERT_EQ(Got.size(), Want.size());
  std::string ReEmitted =
      Format == SinkFormat::Csv ? csvHeaderLine() : std::string();
  for (size_t I = 0; I < Want.size(); ++I) {
    const SweepCellResult &W = Want[I].Result, &G = Got[I].Result;
    EXPECT_EQ(Got[I].Cell, Want[I].Cell);
    EXPECT_EQ(G.Model, W.Model);
    EXPECT_EQ(G.Bench, W.Bench);
    EXPECT_EQ(G.Energy, W.Energy);
    EXPECT_EQ(G.Power, W.Power);
    EXPECT_EQ(G.Scenario, W.Scenario);
    EXPECT_EQ(G.Seed, W.Seed);
    EXPECT_EQ(G.Metrics.CompletedRuns, W.Metrics.CompletedRuns);
    EXPECT_EQ(G.Metrics.ViolatingRuns, W.Metrics.ViolatingRuns);
    EXPECT_EQ(G.Metrics.OracleFreshOutputs, W.Metrics.OracleFreshOutputs);
    EXPECT_EQ(G.Metrics.OracleStaleOutputs, W.Metrics.OracleStaleOutputs);
    EXPECT_EQ(G.Metrics.OracleCrossEpochOutputs,
              W.Metrics.OracleCrossEpochOutputs);
    EXPECT_EQ(G.Metrics.OracleDirtyRuns, W.Metrics.OracleDirtyRuns);
    EXPECT_EQ(G.Metrics.OverEnforcedRuns, W.Metrics.OverEnforcedRuns);
    EXPECT_EQ(G.Metrics.UnderEnforcedRuns, W.Metrics.UnderEnforcedRuns);
    // Bitwise, not approximate: %.17g must round-trip exactly.
    EXPECT_EQ(G.Metrics.OnCyclesPerRun, W.Metrics.OnCyclesPerRun);
    EXPECT_EQ(G.Metrics.OffCyclesPerRun, W.Metrics.OffCyclesPerRun);
    EXPECT_EQ(G.Metrics.RebootsPerRun, W.Metrics.RebootsPerRun);
    EXPECT_EQ(G.Metrics.Starved, W.Metrics.Starved);
    EXPECT_EQ(G.Metrics.Trapped, W.Metrics.Trapped);
    EXPECT_EQ(G.Metrics.Trap, W.Metrics.Trap);
    ReEmitted += formatCellRecord(Got[I], Format);
  }
  EXPECT_EQ(ReEmitted, slurp(Path));
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Formats, SinkRoundTrip,
                         ::testing::Values(SinkFormat::Jsonl,
                                           SinkFormat::Csv));

TEST(ResultSink, ReaderRejectsGarbageWithLineNumbers) {
  std::string Path = ::testing::TempDir() + "garbage.jsonl";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << formatCellRecord(CellRecord{}, SinkFormat::Jsonl);
    Out << "{\"cell\": 1, \"model\":\n"; // Torn mid-record.
  }
  std::vector<CellRecord> Got;
  std::string Err;
  EXPECT_FALSE(readResultFile(Path, SinkFormat::Jsonl, Got, Err));
  EXPECT_NE(Err.find(":2:"), std::string::npos) << Err;
  std::remove(Path.c_str());
}

// Each record-level check names its problem: a record is one line (JSONL)
// or row (CSV) edited from a valid one.
TEST(ResultSink, ReaderNamesEachRecordProblem) {
  const std::string Json = formatCellRecord(CellRecord{}, SinkFormat::Jsonl);
  const std::string Csv = formatCellRecord(CellRecord{}, SinkFormat::Csv);
  auto Edit = [](std::string S, const std::string &From,
                 const std::string &To) {
    return S.replace(S.find(From), From.size(), To);
  };
  struct Case {
    SinkFormat Format;
    std::string Bytes, Want;
  } Cases[] = {
      {SinkFormat::Jsonl, Edit(Json, "\"model\"", "\"modle\""),
       "unknown field 'modle'"},
      {SinkFormat::Jsonl, Edit(Json, "\"model\"", "\"cell\""),
       "duplicate field 'cell'"},
      {SinkFormat::Jsonl, Edit(Json, "\"cell\": 0, ", ""),
       "record is missing fields"},
      {SinkFormat::Jsonl, Edit(Json, "}\n", "} x\n"),
       "trailing characters after the record"},
      {SinkFormat::Jsonl, Edit(Json, "\"seed\": 0", "\"seed\": 1.5"),
       "bad value '1.5' for field 'seed'"},
      {SinkFormat::Jsonl, Edit(Json, "\"starved\": false", "\"starved\": 0"),
       "bad value '0' for field 'starved'"},
      {SinkFormat::Csv, csvHeaderLine() + Edit(Csv, "0,", ""),
       "expected 21 fields, got 20"},
      {SinkFormat::Csv, csvHeaderLine() + Edit(Csv, ",\n", ",\"open\n"),
       "unterminated quoted field"},
      {SinkFormat::Csv, Edit(csvHeaderLine(), "cell", "cel") + Csv,
       "bad CSV header"},
  };
  std::string Path = freshDir("record-problems") + "/problem";
  for (const Case &C : Cases) {
    writeFile(Path, C.Bytes);
    std::vector<CellRecord> Got;
    std::string Err;
    EXPECT_FALSE(readResultFile(Path, C.Format, Got, Err)) << C.Bytes;
    EXPECT_NE(Err.find(C.Want), std::string::npos) << Err;
  }
}

// Records whose every byte was written by the earlier snprintf formatter
// ("%.17g" doubles, "%" PRIu64 counters, "\\u%04x" control characters).
// Shard files written by older binaries resume and merge byte-identically
// only while formatCellRecord reproduces these lines exactly.
std::vector<CellRecord> pinnedRecords() {
  CellRecord A;
  A.Cell = UINT64_MAX;
  A.Result.Bench = (1ull << 53) + 1;
  A.Result.Seed = 1;
  A.Result.Metrics.CompletedRuns = UINT64_MAX;
  A.Result.Metrics.OracleCrossEpochOutputs = (1ull << 53) + 1;
  A.Result.Metrics.OnCyclesPerRun = 0.1;
  A.Result.Metrics.OffCyclesPerRun = 1.0 / 3;
  A.Result.Metrics.RebootsPerRun = 5e-324;
  A.Result.Metrics.Trapped = true;
  A.Result.Metrics.Trap = "say \"hi\", then\nstop\x01\x1f";
  CellRecord B;
  B.Result.Metrics.Starved = true;
  B.Result.Metrics.OnCyclesPerRun = DBL_MAX;
  // 2^53 + 1 is not a double; it rounds to 2^53.
  B.Result.Metrics.OffCyclesPerRun = static_cast<double>((1ull << 53) + 1);
  B.Result.Metrics.RebootsPerRun = -0.0;
  return {A, B};
}

TEST(ResultSink, RecordBytesArePinned) {
  const std::string WantJsonl[] = {
      "{\"cell\": 18446744073709551615, \"model\": 0, \"bench\": "
      "9007199254740993, \"energy\": 0, \"power\": 0, \"scenario\": 0, "
      "\"seed\": 1, \"completed_runs\": 18446744073709551615, "
      "\"violating_runs\": 0, \"oracle_fresh_outputs\": 0, "
      "\"oracle_stale_outputs\": 0, \"oracle_cross_epoch_outputs\": "
      "9007199254740993, \"oracle_dirty_runs\": 0, \"over_enforced_runs\": "
      "0, \"under_enforced_runs\": 0, \"on_cycles_per_run\": "
      "0.10000000000000001, \"off_cycles_per_run\": 0.33333333333333331, "
      "\"reboots_per_run\": 4.9406564584124654e-324, \"starved\": false, "
      "\"trapped\": true, \"trap\": \"say \\\"hi\\\", "
      "then\\nstop\\u0001\\u001f\"}\n",
      "{\"cell\": 0, \"model\": 0, \"bench\": 0, \"energy\": 0, \"power\": "
      "0, \"scenario\": 0, \"seed\": 0, \"completed_runs\": 0, "
      "\"violating_runs\": 0, \"oracle_fresh_outputs\": 0, "
      "\"oracle_stale_outputs\": 0, \"oracle_cross_epoch_outputs\": 0, "
      "\"oracle_dirty_runs\": 0, \"over_enforced_runs\": 0, "
      "\"under_enforced_runs\": 0, \"on_cycles_per_run\": "
      "1.7976931348623157e+308, \"off_cycles_per_run\": 9007199254740992, "
      "\"reboots_per_run\": -0, \"starved\": true, \"trapped\": false, "
      "\"trap\": \"\"}\n"};
  const std::string WantCsv[] = {
      "18446744073709551615,0,9007199254740993,0,0,0,1,18446744073709551615,"
      "0,0,0,9007199254740993,0,0,0,0.10000000000000001,0.33333333333333331,"
      "4.9406564584124654e-324,0,1,\"say \"\"hi\"\", then\nstop\x01"
      "\x1f"
      "\"\n",
      "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1.7976931348623157e+308,"
      "9007199254740992,-0,1,0,\n"};
  std::vector<CellRecord> Rs = pinnedRecords();
  for (size_t I = 0; I < Rs.size(); ++I) {
    EXPECT_EQ(formatCellRecord(Rs[I], SinkFormat::Jsonl), WantJsonl[I]);
    EXPECT_EQ(formatCellRecord(Rs[I], SinkFormat::Csv), WantCsv[I]);
  }

  // The pinned bytes read back and re-emit unchanged: an old shard file
  // merges to the same bytes.
  for (SinkFormat Format : {SinkFormat::Jsonl, SinkFormat::Csv}) {
    std::string Path =
        freshDir("pinned") + "/pinned." + sinkFormatExtension(Format);
    std::string File =
        Format == SinkFormat::Csv ? csvHeaderLine() : std::string();
    for (const std::string &L : Format == SinkFormat::Csv ? WantCsv
                                                           : WantJsonl)
      File += L;
    writeFile(Path, File);
    std::vector<CellRecord> Got;
    std::string Err;
    ASSERT_TRUE(readResultFile(Path, Format, Got, Err)) << Err;
    std::string ReEmitted =
        Format == SinkFormat::Csv ? csvHeaderLine() : std::string();
    for (const CellRecord &R : Got)
      ReEmitted += formatCellRecord(R, Format);
    EXPECT_EQ(ReEmitted, File);
    std::remove(Path.c_str());
  }
}

// What the reader's number parsers accept, through a uint64 field
// (completed_runs) and a double field (on_cycles_per_run) of a CSV record,
// and of a JSONL record where the token is a JSON scalar. An accepted
// token must read as the value strtoull/strtod give it; "stricter" names
// the tokens strtoull/strtod accepted that the from_chars reader rejects
// (no sink ever writes them).
TEST(ResultSink, ReaderTokenTable) {
  struct TokenCase {
    const char *Tok;
    bool U64, Dbl;      ///< Accepted by a uint64 / a double field.
    const char *Stricter; ///< "" or what strtoull/strtod made of it.
  } Cases[] = {
      {"", false, false, ""},
      {"0", true, true, ""},
      {"007", true, true, ""},
      {"18446744073709551615", true, true, ""},
      {"18446744073709551616", false, true, ""},
      {"-1", false, true, ""},
      {"-0", false, true, ""},
      {"1.5", false, true, ""},
      {"1E5", false, true, ""},
      {".5", false, true, ""},
      {"5.", false, true, ""},
      {"5e-324", false, true, ""},
      {"2.2250738585072009e-308", false, true, ""}, // Largest subnormal.
      {"1e400", false, false, ""},
      {"-1e400", false, false, ""},
      {"inf", false, true, ""},
      {"-inf", false, true, ""},
      {"nan", false, true, ""},
      {"1e", false, false, ""},
      {".", false, false, ""},
      {"5 ", false, false, ""},
      {"1;5", false, false, ""},
      {"+5", false, false, "strtoull and strtod: 5"},
      {" 5", false, false, "strtoull and strtod: 5 (CSV)"},
      {"\v-5", false, false, "strtoull: 2^64 - 5, strtod: -5"},
      {"0x10", false, false, "strtod: 16"},
      {"0x1p3", false, false, "strtod: 8"},
      {"1e-400", false, false, "strtod: 0"},
  };
  const size_t U64Field = 7, DblField = 15; // completed_runs, on_cycles_per_run
  std::string Dir = freshDir("tokens");
  // Reads a default record with field \p F replaced by \p Tok.
  auto Read = [&](SinkFormat Format, size_t F, const std::string &Tok,
                  CellRecord &Out) {
    std::string Line = formatCellRecord(CellRecord{}, Format);
    if (Format == SinkFormat::Jsonl) {
      const char *Key = F == U64Field ? "\"completed_runs\": 0,"
                                      : "\"on_cycles_per_run\": 0,";
      size_t At = Line.find(Key);
      Line.replace(At, std::strlen(Key),
                   std::string(Key, std::strlen(Key) - 2) + Tok + ",");
    } else {
      size_t At = 0;
      for (size_t I = 0; I < F; ++I)
        At = Line.find(',', At) + 1;
      Line.replace(At, 1, Tok); // Every field of the default record is "0".
    }
    std::string Path = Dir + "/token." + sinkFormatExtension(Format);
    writeFile(Path, (Format == SinkFormat::Csv ? csvHeaderLine() : "") + Line);
    std::vector<CellRecord> Got;
    std::string Err;
    bool Ok = readResultFile(Path, Format, Got, Err);
    if (Ok)
      Out = Got.at(0);
    return Ok;
  };
  for (const TokenCase &C : Cases) {
    std::string Tok = C.Tok;
    for (SinkFormat Format : {SinkFormat::Csv, SinkFormat::Jsonl}) {
      // The JSONL scanner ends a scalar at whitespace, so a token with a
      // space is not a JSONL value.
      if (Format == SinkFormat::Jsonl && Tok.find(' ') != std::string::npos)
        continue;
      SCOPED_TRACE("token '" + Tok + "' in " + sinkFormatName(Format));
      CellRecord R;
      ASSERT_EQ(Read(Format, U64Field, Tok, R), C.U64);
      if (C.U64) {
        EXPECT_EQ(R.Result.Metrics.CompletedRuns,
                  std::strtoull(C.Tok, nullptr, 10));
      }
      ASSERT_EQ(Read(Format, DblField, Tok, R), C.Dbl);
      if (C.Dbl) {
        double Want = std::strtod(C.Tok, nullptr);
        double Got = R.Result.Metrics.OnCyclesPerRun;
        if (std::isnan(Want)) {
          EXPECT_TRUE(std::isnan(Got));
        } else {
          EXPECT_EQ(std::memcmp(&Got, &Want, sizeof(double)), 0) << Got;
        }
      }
    }
  }
}

// -- Determinism spine ------------------------------------------------------

class FleetDeterminism : public ::testing::TestWithParam<SinkFormat> {};

TEST_P(FleetDeterminism, ShardsPlusMergeMatchSequentialBitwise) {
  SinkFormat Format = GetParam();
  FleetSpec Fleet = wideSpec();
  std::string Seq = freshDir(std::string("seq") + sinkFormatExtension(Format));
  std::string Par = freshDir(std::string("par") + sinkFormatExtension(Format));
  std::string Err;
  ShardOutcome Outcome;

  ASSERT_TRUE(runShard(Fleet, shardOpts(Seq, 0, 1, Format), Outcome, Err))
      << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Complete);

  for (unsigned S = 0; S < 3; ++S) {
    ShardRunOptions O = shardOpts(Par, S, 3, Format);
    // Mixed worker counts: emission order must not depend on scheduling.
    O.Workers = 1 + S;
    ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
    EXPECT_EQ(Outcome, ShardOutcome::Complete);
  }

  MergeOptions M;
  M.OutDir = Par;
  M.ShardCount = 3;
  M.Format = Format;
  MergeSummary Summary;
  ASSERT_TRUE(mergeShards(Fleet, M, Summary, Err)) << Err;

  SweepSpec Spec;
  ASSERT_TRUE(Fleet.resolve(Spec, Err)) << Err;
  EXPECT_EQ(Summary.Cells, Spec.cellCount());
  // cem under quake-bursts wedges the simulated device — the sweep
  // carries trapped cells through serialization and merge.
  EXPECT_GT(Summary.TrappedCells, 0u);

  std::string SeqBytes =
      slurp(shardResultPath(shardOpts(Seq, 0, 1, Format)));
  EXPECT_FALSE(SeqBytes.empty());
  EXPECT_EQ(SeqBytes,
            slurp(Par + "/merged." + sinkFormatExtension(Format)));
}

INSTANTIATE_TEST_SUITE_P(Formats, FleetDeterminism,
                         ::testing::Values(SinkFormat::Jsonl,
                                           SinkFormat::Csv));

TEST(FleetOracle, ShardedOracleGridMatchesSweepRunner) {
  // A table7-shaped grid with the input-epoch oracle armed: the shards
  // must carry the oracle columns exactly as the in-memory runner
  // computes them, not leave them zero.
  FleetSpec Fleet;
  Fleet.Models = {"ocelot", "jit"};
  Fleet.Benchmarks = {"ekf_fusion", "alarm_voting"};
  Fleet.Energies = {EnergyConfig()};
  Fleet.Scenarios = {"fusion-calm", "fusion-storm"};
  Fleet.Seeds = {7};
  Fleet.TauBudget = 300000;
  Fleet.Oracle = true;

  std::string Dir = freshDir("oracle");
  std::string Err;
  ShardOutcome Outcome;
  for (unsigned S = 0; S < 2; ++S) {
    ASSERT_TRUE(runShard(Fleet, shardOpts(Dir, S, 2, SinkFormat::Jsonl),
                         Outcome, Err))
        << Err;
    EXPECT_EQ(Outcome, ShardOutcome::Complete);
  }
  MergeOptions M;
  M.OutDir = Dir;
  M.ShardCount = 2;
  MergeSummary Summary;
  ASSERT_TRUE(mergeShards(Fleet, M, Summary, Err)) << Err;

  SweepSpec Spec;
  ASSERT_TRUE(Fleet.resolve(Spec, Err)) << Err;
  std::vector<SweepCellResult> Want = SweepRunner(1).run(Spec);
  std::string WantBytes;
  uint64_t OracleOutputs = 0;
  for (size_t I = 0; I < Want.size(); ++I) {
    WantBytes += formatCellRecord(CellRecord{I, Want[I]}, SinkFormat::Jsonl);
    OracleOutputs += Want[I].Metrics.OracleFreshOutputs +
                     Want[I].Metrics.OracleStaleOutputs +
                     Want[I].Metrics.OracleCrossEpochOutputs;
  }
  EXPECT_GT(OracleOutputs, 0u);
  EXPECT_EQ(slurp(Dir + "/merged.jsonl"), WantBytes);
}

TEST(FleetResume, KilledShardResumesOverTornTailBitIdentical) {
  FleetSpec Fleet = tinySpec();
  std::string Gold = freshDir("gold");
  std::string Cut = freshDir("cut");
  std::string Err;
  ShardOutcome Outcome;

  ASSERT_TRUE(
      runShard(Fleet, shardOpts(Gold, 0, 1, SinkFormat::Jsonl), Outcome, Err))
      << Err;

  // First invocation stops after 2 of 4 cells...
  ShardRunOptions O = shardOpts(Cut, 0, 1, SinkFormat::Jsonl);
  O.MaxCells = 2;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Interrupted);

  // ...dies mid-write (torn, unflushed tail past the durable offset)...
  std::string SinkPath = shardResultPath(O);
  {
    std::ofstream Tail(SinkPath, std::ios::binary | std::ios::app);
    Tail << "{\"cell\": 2, \"model\": 0, \"ben";
  }

  // ...and the resume truncates the tail, recomputes, and completes.
  O.MaxCells = 0;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Complete);

  EXPECT_EQ(slurp(shardResultPath(shardOpts(Gold, 0, 1, SinkFormat::Jsonl))),
            slurp(SinkPath));
}

TEST(FleetResume, SinkAheadOfStaleManifestIsRolledBack) {
  FleetSpec Fleet = tinySpec();
  std::string Gold = freshDir("gold2");
  std::string Cut = freshDir("cut2");
  std::string Err;
  ShardOutcome Outcome;

  ASSERT_TRUE(
      runShard(Fleet, shardOpts(Gold, 0, 1, SinkFormat::Jsonl), Outcome, Err))
      << Err;

  ShardRunOptions O = shardOpts(Cut, 0, 1, SinkFormat::Jsonl);
  O.MaxCells = 2;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;

  // A *complete* extra line the manifest never admitted (flushed sink,
  // crash before the manifest advanced). Resume must discard and
  // recompute it — deterministically reproducing the same bytes.
  std::string GoldBytes =
      slurp(shardResultPath(shardOpts(Gold, 0, 1, SinkFormat::Jsonl)));
  size_t Nl = 0;
  for (int Lines = 0; Lines < 3; ++Lines)
    Nl = GoldBytes.find('\n', Nl) + 1;
  {
    std::ofstream Tail(shardResultPath(O), std::ios::binary | std::ios::app);
    size_t ThirdLine = GoldBytes.rfind('\n', Nl - 2) + 1;
    Tail << GoldBytes.substr(ThirdLine, Nl - ThirdLine);
  }

  O.MaxCells = 0;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Complete);
  EXPECT_EQ(GoldBytes, slurp(shardResultPath(O)));
}

TEST(FleetResume, FreshOutputsReplaceLongerLeftoverFiles) {
  FleetSpec Fleet = tinySpec();
  std::string Gold = freshDir("gold3");
  std::string Dir = freshDir("leftover");
  std::string Err;
  ShardOutcome Outcome;

  ShardRunOptions G = shardOpts(Gold, 0, 1, SinkFormat::Jsonl);
  ASSERT_TRUE(runShard(Fleet, G, Outcome, Err)) << Err;
  const std::string GoldBytes = slurp(shardResultPath(G));

  // A fresh shard (no manifest) over a longer result file left behind.
  ShardRunOptions O = shardOpts(Dir, 0, 1, SinkFormat::Jsonl);
  const std::string Leftover = GoldBytes + GoldBytes + "{\"cell\": 9";
  writeFile(shardResultPath(O), Leftover);
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Complete);
  EXPECT_EQ(slurp(shardResultPath(O)), GoldBytes);

  // merge, then merge again over the merged file (grown meanwhile).
  MergeOptions M;
  M.OutDir = Dir;
  M.ShardCount = 1;
  MergeSummary Summary;
  ASSERT_TRUE(mergeShards(Fleet, M, Summary, Err)) << Err;
  const std::string Merged = Dir + "/merged.jsonl";
  EXPECT_EQ(slurp(Merged), GoldBytes);
  writeFile(Merged, Leftover);
  ASSERT_TRUE(mergeShards(Fleet, M, Summary, Err)) << Err;
  EXPECT_EQ(slurp(Merged), GoldBytes);
}

// -- Error paths ------------------------------------------------------------

TEST(FleetErrors, ResumeUnderDifferentSpecIsRejected) {
  FleetSpec Fleet = tinySpec();
  std::string Dir = freshDir("hashmismatch");
  std::string Err;
  ShardOutcome Outcome;
  ShardRunOptions O = shardOpts(Dir, 0, 1, SinkFormat::Jsonl);
  O.MaxCells = 1;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;

  Fleet.Seeds = {123};
  EXPECT_FALSE(runShard(Fleet, O, Outcome, Err));
  EXPECT_NE(Err.find("different sweep"), std::string::npos) << Err;
  EXPECT_NE(Err.find("spec hash"), std::string::npos) << Err;
}

TEST(FleetErrors, CorruptManifestIsDetectedNotTrusted) {
  FleetSpec Fleet = tinySpec();
  std::string Gold = freshDir("corrupt-gold");
  std::string Dir = freshDir("corrupt");
  std::string Err;
  ShardOutcome Outcome;
  ASSERT_TRUE(
      runShard(Fleet, shardOpts(Gold, 0, 1, SinkFormat::Jsonl), Outcome, Err))
      << Err;

  // Creation commits seq 0 and 1; the checkpoints after cells 1 and 2
  // commit seq 2 (slot 0) and seq 3 (slot 1, the newest).
  ShardRunOptions O = shardOpts(Dir, 0, 1, SinkFormat::Jsonl);
  O.MaxCells = 2;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
  std::string Path = shardManifestPath(O);
  std::string Bytes = slurp(Path);
  ASSERT_EQ(Bytes.size(), 2 * ManifestSlotBytes);

  // Flip a digit of the newest slot, keep its checksum: the load falls
  // back to the older slot.
  std::string TornNewest = Bytes;
  TornNewest[TornNewest.find("cells ", ManifestSlotBytes) + 6] ^= 1;
  writeFile(Path, TornNewest);
  ShardManifest M;
  ASSERT_TRUE(loadShardManifest(Path, M, Err)) << Err;
  EXPECT_EQ(M.Seq, 2u);
  EXPECT_EQ(M.CellsNext, 1u);

  // Both slots torn: nothing is trusted, by the loader or by a resume.
  std::string TornBoth = TornNewest;
  TornBoth[TornBoth.find("cells ") + 6] ^= 1;
  writeFile(Path, TornBoth);
  EXPECT_FALSE(loadShardManifest(Path, M, Err));
  EXPECT_NE(Err.find("corrupt manifest"), std::string::npos) << Err;
  EXPECT_NE(Err.find("delete the shard's manifest and result file"),
            std::string::npos)
      << Err;
  EXPECT_FALSE(runShard(Fleet, O, Outcome, Err));
  EXPECT_NE(Err.find("corrupt manifest"), std::string::npos) << Err;

  // The resume from the older slot recomputes cell 1 over the sink's
  // extra line and ends byte-identical to the gold run.
  writeFile(Path, TornNewest);
  O.MaxCells = 0;
  ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Complete);
  EXPECT_EQ(slurp(shardResultPath(shardOpts(Gold, 0, 1, SinkFormat::Jsonl))),
            slurp(shardResultPath(O)));
  ASSERT_TRUE(loadShardManifest(Path, M, Err)) << Err;
  EXPECT_TRUE(M.complete());
}

TEST(FleetErrors, V1ManifestIsRejectedWithRemedy) {
  FleetSpec Fleet = tinySpec();
  std::string Dir = freshDir("v1");
  std::string Err;
  ShardOutcome Outcome;
  ShardRunOptions O = shardOpts(Dir, 0, 1, SinkFormat::Jsonl);
  // The layout the rename-era writer produced.
  writeFile(shardManifestPath(O),
            "ocelot-fleet-manifest v1\nspec_hash 0123456789abcdef\n"
            "shard 0/1\nformat jsonl\ncells 0 1 4\nsink_offset 10\n"
            "checksum 0000000000000000\n");
  writeFile(shardResultPath(O), "");

  auto ExpectVersionAndRemedy = [&] {
    EXPECT_NE(Err.find("v1 manifest"), std::string::npos) << Err;
    EXPECT_NE(Err.find("finish the sweep with"), std::string::npos) << Err;
    EXPECT_NE(Err.find("delete the shard's manifest and result file"),
              std::string::npos)
        << Err;
  };
  ShardManifest M;
  EXPECT_FALSE(loadShardManifest(shardManifestPath(O), M, Err));
  ExpectVersionAndRemedy();
  EXPECT_FALSE(runShard(Fleet, O, Outcome, Err));
  ExpectVersionAndRemedy();
}

#ifndef _WIN32
TEST(FleetResume, CheckpointsCommitInPlaceWithoutRename) {
  FleetSpec Fleet = tinySpec();
  std::string Dir = freshDir("inplace");
  std::string Err;
  ShardOutcome Outcome;
  ShardRunOptions O = shardOpts(Dir, 0, 1, SinkFormat::Jsonl);
  std::string Path = shardManifestPath(O);
  auto NoTmpFiles = [&] {
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      if (E.path().extension() == ".tmp")
        return false;
    return true;
  };

  // One cell per invocation: a creation, then a commit per checkpoint.
  ino_t Inode = 0;
  for (size_t Cell = 1; Cell <= 4; ++Cell) {
    O.MaxCells = 1;
    ASSERT_TRUE(runShard(Fleet, O, Outcome, Err)) << Err;
    struct stat St;
    ASSERT_EQ(::stat(Path.c_str(), &St), 0);
    if (Cell == 1)
      Inode = St.st_ino;
    EXPECT_EQ(St.st_ino, Inode) << "checkpoint " << Cell;
    EXPECT_EQ(static_cast<size_t>(St.st_size), 2 * ManifestSlotBytes);
    EXPECT_TRUE(NoTmpFiles()) << "checkpoint " << Cell;
    ShardManifest M;
    ASSERT_TRUE(loadShardManifest(Path, M, Err)) << Err;
    EXPECT_EQ(M.CellsNext, Cell);
    EXPECT_EQ(M.Seq, Cell + 1);
  }

  // A whole run checkpointing every cell commits every checkpoint in
  // place too: seq 1 at creation, plus one per cell.
  std::string Whole = freshDir("inplace-whole");
  ShardRunOptions W = shardOpts(Whole, 0, 1, SinkFormat::Jsonl);
  ASSERT_TRUE(runShard(Fleet, W, Outcome, Err)) << Err;
  ShardManifest M;
  ASSERT_TRUE(loadShardManifest(shardManifestPath(W), M, Err)) << Err;
  EXPECT_EQ(M.Seq, 5u);
  EXPECT_EQ(slurp(shardResultPath(W)), slurp(shardResultPath(O)));
}
#endif

// Seeded byte flips, truncations and extensions of a valid manifest: the
// loader returns one of the two committed states or an error, never
// anything else, and never crashes (the sanitize lane runs this too).
TEST(ShardManifestFuzz, MutatedManifestLoadsACommittedStateOrFails) {
  std::string Dir = freshDir("manifest-fuzz");
  std::string Path = Dir + "/fuzz.manifest";
  std::string Err;
  ShardManifest Older;
  Older.SpecHash = 0x0123456789abcdefull;
  Older.Shard = 1;
  Older.ShardCount = 3;
  Older.Format = SinkFormat::Csv;
  Older.CellsBegin = 100;
  Older.CellsNext = 150;
  Older.CellsEnd = 200;
  Older.SinkOffset = 4096;
  ASSERT_TRUE(createShardManifest(Path, Older, Err)) << Err;
  ShardManifest Newer = Older;
  Newer.CellsNext = 175;
  Newer.SinkOffset = 8192;
  ASSERT_TRUE(commitShardManifest(Path, Newer, Err)) << Err;
  const std::string Valid = slurp(Path);
  ASSERT_EQ(Valid.size(), 2 * ManifestSlotBytes);

  std::mt19937_64 Rng(0x5EED0F1A);
  size_t Errors = 0, Olders = 0, Newers = 0;
  for (int Case = 0; Case < 600; ++Case) {
    std::string Bytes = mutate(Valid, Case, Rng, "");
    writeFile(Path, Bytes);
    ShardManifest M;
    bool Loaded = loadShardManifest(Path, M, Err);
    // An intact newest slot (slot 0, seq 2) always wins.
    if (Bytes.compare(0, ManifestSlotBytes, Valid, 0, ManifestSlotBytes) == 0) {
      EXPECT_TRUE(Loaded && M == Newer) << "case " << Case << ": " << Err;
    }
    if (!Loaded) {
      EXPECT_NE(Err.find("manifest"), std::string::npos) << Err;
      ++Errors;
    } else if (M == Older) {
      ++Olders;
    } else {
      EXPECT_EQ(M, Newer) << "case " << Case;
      ++Newers;
    }
  }
  // Every outcome occurs: flips in the newest slot fall back, flips in
  // the older one or past the checksums do not, and tearing both fails.
  EXPECT_GT(Errors, 0u);
  EXPECT_GT(Olders, 0u);
  EXPECT_GT(Newers, 0u);
}

/// True when \p Err is "<Path>:<line>: ...", the reader's diagnostic shape.
bool isLineNumbered(const std::string &Err, const std::string &Path) {
  if (Err.compare(0, Path.size() + 1, Path + ":") != 0)
    return false;
  size_t I = Path.size() + 1, Digits = 0;
  while (I < Err.size() && std::isdigit(static_cast<unsigned char>(Err[I])))
    ++I, ++Digits;
  return Digits > 0 && I < Err.size() && Err[I] == ':';
}

class ResultFileFuzz : public ::testing::TestWithParam<SinkFormat> {};

// Seeded mutations of a valid JSONL or CSV result file: the reader returns
// a record list or a line-numbered error, never anything else, and never
// crashes (the sanitize lane runs this too).
TEST_P(ResultFileFuzz, MutatedResultFileParsesOrFailsWithALine) {
  SinkFormat Format = GetParam();
  std::string Dir = freshDir(std::string("result-fuzz-") +
                             sinkFormatExtension(Format));
  std::string Path = Dir + "/fuzz." + sinkFormatExtension(Format);
  std::string Err;
  {
    auto Sink = openResultSink(Path, Format, -1, Err);
    ASSERT_TRUE(Sink) << Err;
    for (const CellRecord &R : trickyRecords())
      Sink->append(R);
    ASSERT_TRUE(Sink->flush(Err)) << Err;
  }
  const std::string Valid = slurp(Path);

  std::mt19937_64 Rng(0x5EED0F1B + static_cast<unsigned>(Format));
  size_t Parsed = 0, Rejected = 0;
  for (int Case = 0; Case < 600; ++Case) {
    std::string Bytes = mutate(Valid, Case, Rng, "0123456789-+.e\",\\\n ");
    writeFile(Path, Bytes);
    std::vector<CellRecord> Got;
    Err.clear();
    if (readResultFile(Path, Format, Got, Err)) {
      // At most one record per line of the mutated file.
      EXPECT_LE(Got.size(),
                static_cast<size_t>(
                    std::count(Bytes.begin(), Bytes.end(), '\n')) +
                    1)
          << "case " << Case;
      ++Parsed;
    } else {
      EXPECT_TRUE(isLineNumbered(Err, Path) ||
                  Err == Path + ": empty file (missing CSV header)")
          << "case " << Case << ": " << Err;
      ++Rejected;
    }
  }
  // Both outcomes occur: a flip inside the trap string still parses; most
  // damage is rejected.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Formats, ResultFileFuzz,
                         ::testing::Values(SinkFormat::Jsonl,
                                           SinkFormat::Csv));

// Seeded mutations of a `.progress` sidecar: the advisory reader returns
// the last heartbeat it can parse or false, and never crashes.
TEST(ShardProgressFuzz, MutatedSidecarReadsARecordOrFalse) {
  std::string Dir = freshDir("progress-fuzz");
  std::string Path = Dir + "/fuzz.progress";
  std::remove(Path.c_str());
  ProgressWriter W(Path, /*MinIntervalSec=*/0);
  for (size_t Done = 0; Done <= 3; ++Done) {
    ShardProgress P;
    P.Shard = 1;
    P.ShardCount = 3;
    P.CellsBegin = 100;
    P.CellsEnd = 103;
    P.CellsDone = Done;
    P.CellsPerSec = 12.5;
    P.EtaSec = 0.25 * static_cast<double>(3 - Done);
    P.WallMs = 40 * Done;
    W.heartbeat(P, /*Force=*/true);
  }
  const std::string Valid = slurp(Path);
  ShardProgress Last;
  ASSERT_TRUE(readLastShardProgress(Path, Last));
  ASSERT_EQ(Last.CellsDone, 3u);

  // A count outside its type's range or a non-finite rate is no record.
  for (const char *Bad :
       {"\"cells_done\": -1", "\"cells_done\": 1e300",
        "\"cells_per_sec\": nan", "\"eta_sec\": inf"}) {
    std::string Line = "{\"shard\": 1, \"of\": 3, \"cells_begin\": 100, "
                       "\"cells_end\": 103, \"cells_done\": 2, "
                       "\"cells_per_sec\": 1.5, \"eta_sec\": 0.5, "
                       "\"wall_ms\": 9}\n";
    std::string Key = std::string(Bad).substr(0, std::string(Bad).find(':'));
    size_t At = Line.find(Key);
    Line.replace(At, Line.find_first_of(",}", At) - At, Bad);
    writeFile(Path, Line);
    ShardProgress P;
    EXPECT_FALSE(readLastShardProgress(Path, P)) << Line;
  }

  std::mt19937_64 Rng(0x5EED0F1C);
  size_t Read = 0, Ignored = 0;
  for (int Case = 0; Case < 600; ++Case) {
    std::string Bytes = mutate(Valid, Case, Rng, "0123456789-+.eE\":,\n ");
    writeFile(Path, Bytes);
    ShardProgress P;
    if (readLastShardProgress(Path, P)) {
      // Counts outside their type's range and non-finite rates are
      // rejected, not converted (the conversion would be undefined).
      EXPECT_TRUE(std::isfinite(P.CellsPerSec) && std::isfinite(P.EtaSec))
          << "case " << Case;
      ++Read;
    } else {
      ++Ignored;
    }
  }
  EXPECT_GT(Read, 0u);
  EXPECT_GT(Ignored, 0u);
}

TEST(FleetErrors, MergeNamesTheIncompleteShardAndItsResumeCommand) {
  FleetSpec Fleet = tinySpec();
  std::string Dir = freshDir("incomplete");
  std::string Err;
  ShardOutcome Outcome;

  ShardRunOptions O0 = shardOpts(Dir, 0, 2, SinkFormat::Jsonl);
  O0.MaxCells = 1; // 2 cells in the range: leaves it incomplete.
  ASSERT_TRUE(runShard(Fleet, O0, Outcome, Err)) << Err;
  EXPECT_EQ(Outcome, ShardOutcome::Interrupted);
  ASSERT_TRUE(
      runShard(Fleet, shardOpts(Dir, 1, 2, SinkFormat::Jsonl), Outcome, Err))
      << Err;

  MergeOptions M;
  M.OutDir = Dir;
  M.ShardCount = 2;
  MergeSummary Summary;
  EXPECT_FALSE(mergeShards(Fleet, M, Summary, Err));
  EXPECT_NE(Err.find("shard 0/2 is incomplete"), std::string::npos) << Err;
  EXPECT_NE(Err.find("ocelot-fleet run --shard=0/2"), std::string::npos)
      << Err;
}

TEST(FleetErrors, UnresolvableSpecsFailWithActionableMessages) {
  SweepSpec Spec;
  std::string Err;
  FleetSpec F = tinySpec();
  F.Benchmarks = {"nope"};
  EXPECT_FALSE(F.resolve(Spec, Err));
  EXPECT_NE(Err.find("unknown benchmark 'nope'"), std::string::npos) << Err;

  F = tinySpec();
  F.Models = {"llvm"};
  EXPECT_FALSE(F.resolve(Spec, Err));
  EXPECT_NE(Err.find("unknown model 'llvm'"), std::string::npos) << Err;

  F = tinySpec();
  F.TauBudget = 0;
  EXPECT_FALSE(F.resolve(Spec, Err));
  EXPECT_NE(Err.find("--tau"), std::string::npos) << Err;

  F = tinySpec();
  F.Powers = {"mystery"};
  EXPECT_FALSE(F.resolve(Spec, Err));
  EXPECT_NE(Err.find("bad power 'mystery'"), std::string::npos) << Err;
}

// -- Compiled-artifact cache ------------------------------------------------

// -- ShardProgress ----------------------------------------------------------

TEST(ShardProgressTest, RunningShardWritesParsableHeartbeats) {
  std::string Dir = freshDir("progress");
  FleetSpec F = tinySpec();
  ShardRunOptions O = shardOpts(Dir, 0, 1, SinkFormat::Jsonl);
  ShardOutcome Outcome;
  std::string Error;
  ASSERT_TRUE(runShard(F, O, Outcome, Error)) << Error;

  ShardProgress P;
  ASSERT_TRUE(readLastShardProgress(shardProgressPath(O), P));
  EXPECT_EQ(P.Shard, 0u);
  EXPECT_EQ(P.ShardCount, 1u);
  EXPECT_EQ(P.CellsBegin, 0u);
  EXPECT_EQ(P.CellsEnd, 4u);
  EXPECT_EQ(P.CellsDone, 4u);
  EXPECT_TRUE(P.done());
  EXPECT_GT(P.CellsPerSec, 0.0);
}

TEST(ShardProgressTest, SidecarNeverChangesResultBytes) {
  // A shard with heartbeats and one without (sidecar deleted between
  // runs) must produce identical result files — progress is observability
  // only.
  std::string DirA = freshDir("progress-a"), DirB = freshDir("progress-b");
  FleetSpec F = tinySpec();
  ShardOutcome Outcome;
  std::string Error;
  ShardRunOptions OA = shardOpts(DirA, 0, 1, SinkFormat::Jsonl);
  ASSERT_TRUE(runShard(F, OA, Outcome, Error)) << Error;
  ShardRunOptions OB = shardOpts(DirB, 0, 1, SinkFormat::Jsonl);
  ASSERT_TRUE(runShard(F, OB, Outcome, Error)) << Error;
  EXPECT_EQ(slurp(shardResultPath(OA)), slurp(shardResultPath(OB)));
}

TEST(ShardProgressTest, MissingOrGarbageSidecarIsIgnored) {
  ShardProgress P;
  EXPECT_FALSE(readLastShardProgress("/nonexistent/progress", P));

  std::string Path = ::testing::TempDir() + "garbage.progress";
  std::ofstream Out(Path);
  Out << "not json at all\n{\"shard\": 1}\n";
  Out.close();
  EXPECT_FALSE(readLastShardProgress(Path, P));

  // A trailing half-written record parses to the last complete one.
  std::ofstream App(Path, std::ios::app);
  App << "{\"shard\": 2, \"of\": 4, \"cells_begin\": 10, \"cells_end\": "
         "20, \"cells_done\": 15, \"cells_per_sec\": 3.5, \"eta_sec\": "
         "1.4, \"wall_ms\": 99}\n";
  App << "{\"shard\": 2, \"of\": 4, \"cells_be"; // torn write, no newline
  App.close();
  ASSERT_TRUE(readLastShardProgress(Path, P));
  EXPECT_EQ(P.CellsDone, 15u);
  EXPECT_EQ(P.WallMs, 99u);
  std::remove(Path.c_str());
}

const char *CacheSrc = R"(
io tmp;

fn main() {
  let x = tmp();
  Fresh(x);
  log(x);
}
)";

TEST(ArtifactCache, SecondCompileIsAHitSharingOneArtifact) {
  Toolchain::clearCache();
  Toolchain TC;
  Compilation A = TC.compileCached(CacheSrc);
  Compilation B = TC.compileCached(CacheSrc);
  ASSERT_TRUE(A.ok() && B.ok());
  ToolchainCacheStats St = Toolchain::cacheStats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Entries, 1u);
  // Not merely equal — the same immutable program in memory.
  EXPECT_EQ(&A.artifact().program(), &B.artifact().program());

  // A different model is a different key.
  CompileOptions Jit;
  Jit.Model = ExecModel::JitOnly;
  Compilation C = TC.compileCached(CacheSrc, Jit);
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(Toolchain::cacheStats().Entries, 2u);
  EXPECT_NE(&C.artifact().program(), &A.artifact().program());
}

TEST(ArtifactCache, FailuresAreNotCached) {
  Toolchain::clearCache();
  Toolchain TC;
  EXPECT_FALSE(TC.compileCached("fn main() { let x = ; }").ok());
  EXPECT_FALSE(TC.compileCached("fn main() { let x = ; }").ok());
  ToolchainCacheStats St = Toolchain::cacheStats();
  EXPECT_EQ(St.Entries, 0u);
  EXPECT_EQ(St.Misses, 2u);
}

TEST(ArtifactCache, ConcurrentMissesConvergeOnOneEntry) {
  Toolchain::clearCache();
  const Program *Progs[4] = {};
  std::vector<std::thread> Pool;
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([T, &Progs] {
      Compilation C = Toolchain().compileCached(CacheSrc);
      ASSERT_TRUE(C.ok());
      Progs[T] = &C.artifact().program();
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_EQ(Toolchain::cacheStats().Entries, 1u);
  // Racing compiles may all run, but every caller got the winning insert.
  for (int T = 1; T < 4; ++T)
    EXPECT_EQ(Progs[T], Progs[0]);
}

} // namespace
