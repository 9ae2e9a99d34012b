//===- ResultSink.cpp - Streaming per-cell result sinks --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/ResultSink.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace ocelot;

namespace {

/// Deterministic double formatting: %.17g round-trips every finite double
/// exactly through strtod, so parse + re-emit reproduces the bytes.
void appendDouble(std::string &Out, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out += Buf;
}

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void appendCsvField(std::string &Out, const std::string &S) {
  if (S.find_first_of(",\"\n\r") == std::string::npos) {
    Out += S;
    return;
  }
  Out += '"';
  for (char C : S) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
}

// Field order shared by both formats (and the readers below).
constexpr const char *FieldNames[] = {
    "cell",           "model",
    "bench",          "energy",
    "power",          "scenario",
    "seed",           "completed_runs",
    "violating_runs", "oracle_fresh_outputs",
    "oracle_stale_outputs", "oracle_cross_epoch_outputs",
    "oracle_dirty_runs", "over_enforced_runs",
    "under_enforced_runs", "on_cycles_per_run",
    "off_cycles_per_run", "reboots_per_run",
    "starved",        "trapped",
    "trap"};
constexpr size_t NumFields = sizeof(FieldNames) / sizeof(FieldNames[0]);

/// A FILE*-backed append sink shared by both formats; the subclasses only
/// differ in their line serialization (formatCellRecord).
class FileSink final : public ResultSink {
public:
  FileSink(std::FILE *F, SinkFormat Format, uint64_t Offset)
      : F(F), Format(Format), Durable(Offset), Position(Offset) {}

  ~FileSink() override {
    if (F)
      std::fclose(F);
  }

  void append(const CellRecord &R) override {
    std::string Line = formatCellRecord(R, Format);
    std::fwrite(Line.data(), 1, Line.size(), F);
    Position += Line.size();
  }

  bool flush(std::string &Error) override {
    if (std::fflush(F) != 0) {
      Error = std::string("flush failed: ") + std::strerror(errno);
      return false;
    }
#ifndef _WIN32
    if (fsync(fileno(F)) != 0) {
      Error = std::string("fsync failed: ") + std::strerror(errno);
      return false;
    }
#endif
    Durable = Position;
    return true;
  }

  uint64_t durableOffset() const override { return Durable; }

private:
  std::FILE *F;
  SinkFormat Format;
  uint64_t Durable;
  uint64_t Position;
};

} // namespace

const char *ocelot::sinkFormatName(SinkFormat F) {
  return F == SinkFormat::Jsonl ? "jsonl" : "csv";
}

const char *ocelot::sinkFormatExtension(SinkFormat F) {
  return F == SinkFormat::Jsonl ? "jsonl" : "csv";
}

bool ocelot::parseSinkFormat(const std::string &Name, SinkFormat &F,
                             std::string &Error) {
  if (Name == "jsonl") {
    F = SinkFormat::Jsonl;
    return true;
  }
  if (Name == "csv") {
    F = SinkFormat::Csv;
    return true;
  }
  Error = "unknown result format '" + Name + "' (valid: jsonl, csv)";
  return false;
}

std::string ocelot::csvHeaderLine() {
  std::string H;
  for (size_t I = 0; I < NumFields; ++I) {
    if (I)
      H += ',';
    H += FieldNames[I];
  }
  H += '\n';
  return H;
}

std::string ocelot::formatCellRecord(const CellRecord &R, SinkFormat Format) {
  const SweepCellResult &C = R.Result;
  const IntermittentMetrics &M = C.Metrics;
  std::string L;
  if (Format == SinkFormat::Jsonl) {
    L += "{\"cell\": ";
    appendU64(L, R.Cell);
    L += ", \"model\": ";
    appendU64(L, C.Model);
    L += ", \"bench\": ";
    appendU64(L, C.Bench);
    L += ", \"energy\": ";
    appendU64(L, C.Energy);
    L += ", \"power\": ";
    appendU64(L, C.Power);
    L += ", \"scenario\": ";
    appendU64(L, C.Scenario);
    L += ", \"seed\": ";
    appendU64(L, C.Seed);
    L += ", \"completed_runs\": ";
    appendU64(L, M.CompletedRuns);
    L += ", \"violating_runs\": ";
    appendU64(L, M.ViolatingRuns);
    L += ", \"oracle_fresh_outputs\": ";
    appendU64(L, M.OracleFreshOutputs);
    L += ", \"oracle_stale_outputs\": ";
    appendU64(L, M.OracleStaleOutputs);
    L += ", \"oracle_cross_epoch_outputs\": ";
    appendU64(L, M.OracleCrossEpochOutputs);
    L += ", \"oracle_dirty_runs\": ";
    appendU64(L, M.OracleDirtyRuns);
    L += ", \"over_enforced_runs\": ";
    appendU64(L, M.OverEnforcedRuns);
    L += ", \"under_enforced_runs\": ";
    appendU64(L, M.UnderEnforcedRuns);
    L += ", \"on_cycles_per_run\": ";
    appendDouble(L, M.OnCyclesPerRun);
    L += ", \"off_cycles_per_run\": ";
    appendDouble(L, M.OffCyclesPerRun);
    L += ", \"reboots_per_run\": ";
    appendDouble(L, M.RebootsPerRun);
    L += ", \"starved\": ";
    L += M.Starved ? "true" : "false";
    L += ", \"trapped\": ";
    L += M.Trapped ? "true" : "false";
    L += ", \"trap\": ";
    appendJsonString(L, M.Trap);
    L += "}\n";
    return L;
  }
  appendU64(L, R.Cell);
  L += ',';
  appendU64(L, C.Model);
  L += ',';
  appendU64(L, C.Bench);
  L += ',';
  appendU64(L, C.Energy);
  L += ',';
  appendU64(L, C.Power);
  L += ',';
  appendU64(L, C.Scenario);
  L += ',';
  appendU64(L, C.Seed);
  L += ',';
  appendU64(L, M.CompletedRuns);
  L += ',';
  appendU64(L, M.ViolatingRuns);
  L += ',';
  appendU64(L, M.OracleFreshOutputs);
  L += ',';
  appendU64(L, M.OracleStaleOutputs);
  L += ',';
  appendU64(L, M.OracleCrossEpochOutputs);
  L += ',';
  appendU64(L, M.OracleDirtyRuns);
  L += ',';
  appendU64(L, M.OverEnforcedRuns);
  L += ',';
  appendU64(L, M.UnderEnforcedRuns);
  L += ',';
  appendDouble(L, M.OnCyclesPerRun);
  L += ',';
  appendDouble(L, M.OffCyclesPerRun);
  L += ',';
  appendDouble(L, M.RebootsPerRun);
  L += ',';
  L += M.Starved ? "1" : "0";
  L += ',';
  L += M.Trapped ? "1" : "0";
  L += ',';
  appendCsvField(L, M.Trap);
  L += '\n';
  return L;
}

std::unique_ptr<ResultSink> ocelot::openResultSink(const std::string &Path,
                                                   SinkFormat Format,
                                                   int64_t ResumeAtOffset,
                                                   std::string &Error) {
  if (ResumeAtOffset < 0) {
    // Unlink, then create: truncating a leftover non-empty file (a fresh
    // shard over an old result file, a re-run merge) waits for the disk on
    // ext4, while a new file costs nothing.
#ifndef _WIN32
    if (::unlink(Path.c_str()) != 0 && errno != ENOENT) {
      Error = "cannot replace " + Path + ": " + std::strerror(errno);
      return nullptr;
    }
#endif
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    if (!F) {
      Error = "cannot create " + Path + ": " + std::strerror(errno);
      return nullptr;
    }
    uint64_t Offset = 0;
    if (Format == SinkFormat::Csv) {
      std::string H = csvHeaderLine();
      std::fwrite(H.data(), 1, H.size(), F);
      Offset = H.size();
    }
    auto Sink = std::make_unique<FileSink>(F, Format, Offset);
    // An empty file needs no fsync: a shard's manifest is created next to
    // it, and that creation's directory fsync makes this entry durable.
    // The CSV header is data, flushed before a manifest records its offset.
    if (Offset && !Sink->flush(Error))
      return nullptr;
    return Sink;
  }

  // Resume: drop any torn tail past the manifest's durable offset, then
  // keep appending.
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  if (!F) {
    Error = "cannot reopen " + Path + " for resume: " + std::strerror(errno);
    return nullptr;
  }
#ifndef _WIN32
  if (ftruncate(fileno(F), static_cast<off_t>(ResumeAtOffset)) != 0) {
    Error = "cannot truncate " + Path + " to its durable offset: " +
            std::strerror(errno);
    std::fclose(F);
    return nullptr;
  }
#endif
  if (std::fseek(F, static_cast<long>(ResumeAtOffset), SEEK_SET) != 0) {
    Error = "cannot seek " + Path + ": " + std::strerror(errno);
    std::fclose(F);
    return nullptr;
  }
  return std::make_unique<FileSink>(F, Format,
                                    static_cast<uint64_t>(ResumeAtOffset));
}

// -- Readers ----------------------------------------------------------------

namespace {

/// Minimal scanner for the flat one-line JSON objects the sink emits.
/// Values are strings, unsigned/float numbers, or true/false — exactly
/// what formatCellRecord produces; anything else is a parse error.
class JsonLineScanner {
public:
  explicit JsonLineScanner(const std::string &S) : S(S) {}

  bool fail(const std::string &Why) {
    if (Err.empty())
      Err = Why;
    return false;
  }
  const std::string &error() const { return Err; }

  void skipWs() {
    while (I < S.size() && (S[I] == ' ' || S[I] == '\t'))
      ++I;
  }

  bool expect(char C) {
    skipWs();
    if (I >= S.size() || S[I] != C)
      return fail(std::string("expected '") + C + "'");
    ++I;
    return true;
  }

  bool atEnd() {
    skipWs();
    return I >= S.size();
  }

  bool peekIs(char C) {
    skipWs();
    return I < S.size() && S[I] == C;
  }

  bool parseString(std::string &Out) {
    if (!expect('"'))
      return false;
    Out.clear();
    while (I < S.size() && S[I] != '"') {
      char C = S[I++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (I >= S.size())
        return fail("unterminated escape");
      char E = S[I++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (I + 4 > S.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int H = 0; H < 4; ++H) {
          char D = S[I++];
          V <<= 4;
          if (D >= '0' && D <= '9')
            V |= static_cast<unsigned>(D - '0');
          else if (D >= 'a' && D <= 'f')
            V |= static_cast<unsigned>(D - 'a' + 10);
          else if (D >= 'A' && D <= 'F')
            V |= static_cast<unsigned>(D - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        if (V > 0xff)
          return fail("non-latin1 \\u escape");
        Out += static_cast<char>(V);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (I >= S.size())
      return fail("unterminated string");
    ++I; // Closing quote.
    return true;
  }

  /// The raw token of a number/true/false value.
  bool parseScalarToken(std::string &Out) {
    skipWs();
    size_t Start = I;
    while (I < S.size() && S[I] != ',' && S[I] != '}' && S[I] != ' ' &&
           S[I] != '\t')
      ++I;
    if (I == Start)
      return fail("expected a value");
    Out = S.substr(Start, I - Start);
    return true;
  }

private:
  const std::string &S;
  size_t I = 0;
  std::string Err;
};

bool parseU64(const std::string &Tok, uint64_t &Out) {
  if (Tok.empty() || Tok[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Tok.c_str(), &End, 10);
  return End && *End == '\0' && errno == 0;
}

bool parseDouble(const std::string &Tok, double &Out) {
  if (Tok.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  if (!End || *End != '\0')
    return false;
  // Denormal underflow sets ERANGE but still yields the exact value %.17g
  // printed; only overflow (±HUGE_VAL) is a real failure.
  if (errno == ERANGE && (Out == HUGE_VAL || Out == -HUGE_VAL))
    return false;
  return true;
}

/// Assigns one parsed (key, raw-or-string value) pair into \p R. \p IsStr
/// says the value came from a JSON string / CSV field (so booleans in it
/// are the CSV 0/1 spelling).
bool assignField(CellRecord &R, const std::string &Key,
                 const std::string &Value, bool Csv, std::string &Why) {
  SweepCellResult &C = R.Result;
  IntermittentMetrics &M = C.Metrics;
  uint64_t U;
  double D;
  auto Size = [&](size_t &Field) {
    if (!parseU64(Value, U))
      return false;
    Field = static_cast<size_t>(U);
    return true;
  };
  auto Bool = [&](bool &Field) {
    if (Value == (Csv ? "1" : "true"))
      Field = true;
    else if (Value == (Csv ? "0" : "false"))
      Field = false;
    else
      return false;
    return true;
  };
  bool Ok;
  if (Key == "cell")
    Ok = Size(R.Cell);
  else if (Key == "model")
    Ok = Size(C.Model);
  else if (Key == "bench")
    Ok = Size(C.Bench);
  else if (Key == "energy")
    Ok = Size(C.Energy);
  else if (Key == "power")
    Ok = Size(C.Power);
  else if (Key == "scenario")
    Ok = Size(C.Scenario);
  else if (Key == "seed")
    Ok = Size(C.Seed);
  else if (Key == "completed_runs")
    Ok = parseU64(Value, M.CompletedRuns);
  else if (Key == "violating_runs")
    Ok = parseU64(Value, M.ViolatingRuns);
  else if (Key == "oracle_fresh_outputs")
    Ok = parseU64(Value, M.OracleFreshOutputs);
  else if (Key == "oracle_stale_outputs")
    Ok = parseU64(Value, M.OracleStaleOutputs);
  else if (Key == "oracle_cross_epoch_outputs")
    Ok = parseU64(Value, M.OracleCrossEpochOutputs);
  else if (Key == "oracle_dirty_runs")
    Ok = parseU64(Value, M.OracleDirtyRuns);
  else if (Key == "over_enforced_runs")
    Ok = parseU64(Value, M.OverEnforcedRuns);
  else if (Key == "under_enforced_runs")
    Ok = parseU64(Value, M.UnderEnforcedRuns);
  else if (Key == "on_cycles_per_run")
    Ok = parseDouble(Value, D), M.OnCyclesPerRun = D;
  else if (Key == "off_cycles_per_run")
    Ok = parseDouble(Value, D), M.OffCyclesPerRun = D;
  else if (Key == "reboots_per_run")
    Ok = parseDouble(Value, D), M.RebootsPerRun = D;
  else if (Key == "starved")
    Ok = Bool(M.Starved);
  else if (Key == "trapped")
    Ok = Bool(M.Trapped);
  else if (Key == "trap") {
    M.Trap = Value;
    Ok = true;
  } else {
    Why = "unknown field '" + Key + "'";
    return false;
  }
  if (!Ok) {
    Why = "bad value '" + Value + "' for field '" + Key + "'";
    return false;
  }
  return true;
}

bool parseJsonlLine(const std::string &Line, CellRecord &R,
                    std::string &Why) {
  JsonLineScanner Sc(Line);
  if (!Sc.expect('{'))
    return (Why = Sc.error(), false);
  size_t Seen = 0;
  bool SeenField[NumFields] = {};
  while (!Sc.peekIs('}')) {
    if (Seen && !Sc.expect(','))
      return (Why = Sc.error(), false);
    std::string Key, Value;
    if (!Sc.parseString(Key) || !Sc.expect(':'))
      return (Why = Sc.error(), false);
    if (Key == "trap") {
      if (!Sc.parseString(Value))
        return (Why = Sc.error(), false);
    } else if (!Sc.parseScalarToken(Value)) {
      return (Why = Sc.error(), false);
    }
    if (!assignField(R, Key, Value, /*Csv=*/false, Why))
      return false;
    for (size_t F = 0; F < NumFields; ++F)
      if (Key == FieldNames[F]) {
        if (SeenField[F])
          return (Why = "duplicate field '" + Key + "'", false);
        SeenField[F] = true;
      }
    ++Seen;
  }
  if (!Sc.expect('}') || !Sc.atEnd())
    return (Why = "trailing characters after the record", false);
  if (Seen != NumFields)
    return (Why = "record is missing fields", false);
  return true;
}

bool splitCsvLine(const std::string &Line, std::vector<std::string> &Fields,
                  std::string &Why) {
  Fields.clear();
  std::string Cur;
  bool InQuotes = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (InQuotes) {
      if (C == '"') {
        if (I + 1 < Line.size() && Line[I + 1] == '"') {
          Cur += '"';
          ++I;
        } else {
          InQuotes = false;
        }
      } else {
        Cur += C;
      }
    } else if (C == '"' && Cur.empty()) {
      InQuotes = true;
    } else if (C == ',') {
      Fields.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (InQuotes) {
    Why = "unterminated quoted field";
    return false;
  }
  Fields.push_back(Cur);
  return true;
}

bool parseCsvLine(const std::string &Line, CellRecord &R, std::string &Why) {
  std::vector<std::string> Fields;
  if (!splitCsvLine(Line, Fields, Why))
    return false;
  if (Fields.size() != NumFields) {
    Why = "expected " + std::to_string(NumFields) + " fields, got " +
          std::to_string(Fields.size());
    return false;
  }
  for (size_t F = 0; F < NumFields; ++F)
    if (!assignField(R, FieldNames[F], Fields[F], /*Csv=*/true, Why))
      return false;
  return true;
}

} // namespace

bool ocelot::readResultFile(const std::string &Path, SinkFormat Format,
                            std::vector<CellRecord> &Out,
                            std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open " + Path + ": " + std::strerror(errno);
    return false;
  }
  Out.clear();
  std::string Line;
  size_t LineNo = 0;
  bool SawHeader = false;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Format == SinkFormat::Csv && !SawHeader) {
      SawHeader = true;
      std::string Want = csvHeaderLine();
      Want.pop_back(); // getline strips the newline.
      if (Line != Want) {
        Error = Path + ":1: bad CSV header (not a fleet result file?)";
        return false;
      }
      continue;
    }
    if (Line.empty())
      continue;
    // A quoted CSV field may legally contain a newline; keep pulling
    // continuation lines until the quotes balance.
    if (Format == SinkFormat::Csv) {
      std::vector<std::string> Probe;
      std::string QuoteWhy, More;
      while (!splitCsvLine(Line, Probe, QuoteWhy) && std::getline(In, More)) {
        ++LineNo;
        Line += '\n';
        Line += More;
      }
    }
    CellRecord R;
    std::string Why;
    bool Ok = Format == SinkFormat::Jsonl ? parseJsonlLine(Line, R, Why)
                                          : parseCsvLine(Line, R, Why);
    if (!Ok) {
      Error = Path + ":" + std::to_string(LineNo) + ": " + Why;
      return false;
    }
    Out.push_back(std::move(R));
  }
  if (Format == SinkFormat::Csv && !SawHeader) {
    Error = Path + ": empty file (missing CSV header)";
    return false;
  }
  return true;
}
