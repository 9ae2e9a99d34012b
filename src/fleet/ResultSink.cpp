//===- ResultSink.cpp - Streaming per-cell result sinks --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/ResultSink.h"

#include "support/ParseNumber.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <type_traits>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace ocelot;

namespace {

// Field order shared by both formats (and the readers below).
constexpr std::string_view FieldNames[] = {
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
constexpr size_t TrapField = NumFields - 1;
static_assert(NumFields == 21 && FieldNames[TrapField] == "trap");

/// Calls \p F with field \p I (in FieldNames order) of \p R, which may be
/// const: the one map from a field index to its member.
template <typename Record, typename Fn>
decltype(auto) withField(Record &R, size_t I, Fn &&F) {
  auto &C = R.Result;
  auto &M = C.Metrics;
  switch (I) {
  case 0: return F(R.Cell);
  case 1: return F(C.Model);
  case 2: return F(C.Bench);
  case 3: return F(C.Energy);
  case 4: return F(C.Power);
  case 5: return F(C.Scenario);
  case 6: return F(C.Seed);
  case 7: return F(M.CompletedRuns);
  case 8: return F(M.ViolatingRuns);
  case 9: return F(M.OracleFreshOutputs);
  case 10: return F(M.OracleStaleOutputs);
  case 11: return F(M.OracleCrossEpochOutputs);
  case 12: return F(M.OracleDirtyRuns);
  case 13: return F(M.OverEnforcedRuns);
  case 14: return F(M.UnderEnforcedRuns);
  case 15: return F(M.OnCyclesPerRun);
  case 16: return F(M.OffCyclesPerRun);
  case 17: return F(M.RebootsPerRun);
  case 18: return F(M.Starved);
  case 19: return F(M.Trapped);
  default: return F(M.Trap); // TrapField.
  }
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Deterministic double formatting: `to_chars` with precision 17 is
/// specified as printf's `%.17g` in the C locale, whatever the process
/// locale, and 17 significant digits round-trip every finite double, so
/// parse + re-emit reproduces the bytes.
void appendDouble(std::string &Out, double V) {
  char Buf[32]; // "-2.2250738585072014e-308" is the longest, 24 bytes.
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V,
                                std::chars_format::general, 17)
                      .ptr);
}

void appendJsonString(std::string &Out, const std::string &S) {
  static constexpr char Hex[] = "0123456789abcdef";
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
      if (unsigned char U = static_cast<unsigned char>(C); U < 0x20) {
        Out += "\\u00";
        Out += Hex[U >> 4];
        Out += Hex[U & 0xf];
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

/// Appends one record line (with its newline) to \p L.
void appendCellRecord(std::string &L, const CellRecord &R, SinkFormat Format) {
  const bool Json = Format == SinkFormat::Jsonl;
  for (size_t I = 0; I < NumFields; ++I) {
    if (Json) {
      L += I ? ", \"" : "{\"";
      L += FieldNames[I];
      L += "\": ";
    } else if (I) {
      L += ',';
    }
    withField(R, I, [&](const auto &V) {
      using T = std::decay_t<decltype(V)>;
      if constexpr (std::is_same_v<T, bool>)
        L += Json ? (V ? "true" : "false") : (V ? "1" : "0");
      else if constexpr (std::is_same_v<T, double>)
        appendDouble(L, V);
      else if constexpr (std::is_same_v<T, std::string>) {
        if (Json)
          appendJsonString(L, V);
        else
          appendCsvField(L, V);
      } else
        appendU64(L, V);
    });
  }
  L += Json ? "}\n" : "\n";
}

/// Room for any record without a long trap message: the longest JSONL
/// line without one (20-digit counters, 24-byte doubles) is 764 bytes.
constexpr size_t LineReserve = 1024;

/// A FILE*-backed append sink shared by both formats; the formats only
/// differ in their line serialization (appendCellRecord).
class FileSink final : public ResultSink {
public:
  FileSink(std::FILE *F, SinkFormat Format, uint64_t Offset)
      : F(F), Format(Format), Durable(Offset), Position(Offset) {
    Line.reserve(LineReserve);
  }

  ~FileSink() override {
    if (F)
      std::fclose(F);
  }

  void append(const CellRecord &R) override {
    Line.clear();
    appendCellRecord(Line, R, Format);
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
  std::string Line; ///< Reused by every append.
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
  std::string L;
  L.reserve(LineReserve);
  appendCellRecord(L, R, Format);
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
/// what formatCellRecord produces; anything else is a parse error. Tokens
/// are views into the line; only a string holding a `\` escape is decoded,
/// into a caller-owned buffer.
class JsonLineScanner {
public:
  explicit JsonLineScanner(std::string_view S) : S(S) {}

  bool fail(const char *Why) {
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
    if (I >= S.size() || S[I] != C) {
      if (Err.empty())
        Err = std::string("expected '") + C + "'";
      return false;
    }
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

  /// A JSON string: \p Out views the line when the string has no escape,
  /// else \p Buf, which holds the decoded bytes.
  bool parseString(std::string_view &Out, std::string &Buf) {
    if (!expect('"'))
      return false;
    size_t Start = I;
    while (I < S.size() && S[I] != '"' && S[I] != '\\')
      ++I;
    if (I < S.size() && S[I] == '"') {
      Out = S.substr(Start, I - Start);
      ++I; // Closing quote.
      return true;
    }
    Buf.assign(S, Start, I - Start);
    while (I < S.size() && S[I] != '"') {
      char C = S[I++];
      if (C != '\\') {
        Buf += C;
        continue;
      }
      if (I >= S.size())
        return fail("unterminated escape");
      char E = S[I++];
      switch (E) {
      case '"':
        Buf += '"';
        break;
      case '\\':
        Buf += '\\';
        break;
      case '/':
        Buf += '/';
        break;
      case 'n':
        Buf += '\n';
        break;
      case 'r':
        Buf += '\r';
        break;
      case 't':
        Buf += '\t';
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
        Buf += static_cast<char>(V);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (I >= S.size())
      return fail("unterminated string");
    ++I; // Closing quote.
    Out = Buf;
    return true;
  }

  /// The raw token of a number/true/false value.
  bool parseScalarToken(std::string_view &Out) {
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
  std::string_view S;
  size_t I = 0;
  std::string Err;
};

/// The whole of \p Tok as a double (`from_chars`: decimal or inf/nan, no
/// leading '+' or whitespace, independent of the locale). Out-of-range
/// values, either way, are rejected. Unlike parseDouble (ParseNumber.h) it
/// takes inf and nan, which a record's metrics can hold.
bool parseRecordDouble(std::string_view Tok, double &Out) {
  const char *End = Tok.data() + Tok.size();
  auto [Ptr, Ec] = std::from_chars(Tok.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

/// FieldNames index of \p Key, or NumFields when it names no field.
/// Records list their fields in FieldNames order, so \p Hint (the key's
/// position in its record) nearly always matches first.
size_t fieldIndex(std::string_view Key, size_t Hint) {
  if (Hint < NumFields && FieldNames[Hint] == Key)
    return Hint;
  for (size_t F = 0; F < NumFields; ++F)
    if (FieldNames[F] == Key)
      return F;
  return NumFields;
}

/// Parses \p Value into field \p F of \p R; on failure sets \p Why. \p Csv
/// selects the boolean spelling (1/0 in CSV, true/false in JSONL).
bool assignField(CellRecord &R, size_t F, std::string_view Value, bool Csv,
                 std::string &Why) {
  bool Ok = withField(R, F, [&](auto &Field) {
    using T = std::decay_t<decltype(Field)>;
    if constexpr (std::is_same_v<T, bool>) {
      if (Value == (Csv ? "1" : "true"))
        Field = true;
      else if (Value == (Csv ? "0" : "false"))
        Field = false;
      else
        return false;
      return true;
    } else if constexpr (std::is_same_v<T, double>) {
      return parseRecordDouble(Value, Field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      Field = Value;
      return true;
    } else {
      return parseUnsigned(Value, Field);
    }
  });
  if (!Ok) {
    Why = "bad value '";
    Why += Value;
    Why += "' for field '";
    Why += FieldNames[F];
    Why += "'";
  }
  return Ok;
}

/// Decode buffers a reader reuses across records, so parsing a record
/// allocates only for its trap message.
struct ReadBuffers {
  std::string Key, Value;  ///< JSONL strings holding escapes.
  std::string CsvFields;   ///< A CSV record's decoded fields, back to back.
  std::vector<size_t> CsvEnds; ///< End offset of each field in CsvFields.
};

bool parseJsonlLine(std::string_view Line, CellRecord &R, ReadBuffers &Sc,
                    std::string &Why) {
  JsonLineScanner In(Line);
  if (!In.expect('{'))
    return (Why = In.error(), false);
  size_t Seen = 0;
  bool SeenField[NumFields] = {};
  while (!In.peekIs('}')) {
    if (Seen && !In.expect(','))
      return (Why = In.error(), false);
    std::string_view Key, Value;
    if (!In.parseString(Key, Sc.Key) || !In.expect(':'))
      return (Why = In.error(), false);
    size_t F = fieldIndex(Key, Seen);
    if (F == TrapField ? !In.parseString(Value, Sc.Value)
                       : !In.parseScalarToken(Value))
      return (Why = In.error(), false);
    if (F == NumFields) {
      Why = "unknown field '";
      Why += Key;
      Why += "'";
      return false;
    }
    if (!assignField(R, F, Value, /*Csv=*/false, Why))
      return false;
    if (SeenField[F]) {
      Why = "duplicate field '";
      Why += FieldNames[F];
      Why += "'";
      return false;
    }
    SeenField[F] = true;
    ++Seen;
  }
  if (!In.expect('}') || !In.atEnd())
    return (Why = "trailing characters after the record", false);
  if (Seen != NumFields)
    return (Why = "record is missing fields", false);
  return true;
}

/// Splits one line of a CSV record (RFC-4180 quoting) into \p Sc's field
/// buffers, starting in the quote state \p InQuotes the previous line left:
/// a quoted field may run over several lines, and each continuation line
/// is scanned once, from where the last one stopped. \returns false while
/// a quoted field is still open at the end of \p Text.
bool scanCsv(std::string_view Text, bool &InQuotes, ReadBuffers &Sc) {
  std::string &Buf = Sc.CsvFields;
  auto FieldEmpty = [&] {
    return Buf.size() == (Sc.CsvEnds.empty() ? 0 : Sc.CsvEnds.back());
  };
  for (size_t I = 0; I < Text.size(); ++I) {
    char C = Text[I];
    if (InQuotes) {
      if (C != '"') {
        Buf += C;
      } else if (I + 1 < Text.size() && Text[I + 1] == '"') {
        Buf += '"';
        ++I;
      } else {
        InQuotes = false;
      }
    } else if (C == '"' && FieldEmpty()) {
      InQuotes = true;
    } else if (C == ',') {
      Sc.CsvEnds.push_back(Buf.size());
    } else {
      Buf += C;
    }
  }
  return !InQuotes;
}

/// Assigns the fields scanCsv split (the last one still open).
bool parseCsvFields(CellRecord &R, ReadBuffers &Sc, std::string &Why) {
  Sc.CsvEnds.push_back(Sc.CsvFields.size());
  if (Sc.CsvEnds.size() != NumFields) {
    Why = "expected " + std::to_string(NumFields) + " fields, got " +
          std::to_string(Sc.CsvEnds.size());
    return false;
  }
  std::string_view All = Sc.CsvFields;
  size_t Begin = 0;
  for (size_t F = 0; F < NumFields; ++F) {
    size_t End = Sc.CsvEnds[F];
    if (!assignField(R, F, All.substr(Begin, End - Begin), /*Csv=*/true, Why))
      return false;
    Begin = End;
  }
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
  Line.reserve(LineReserve);
  ReadBuffers Sc;
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
    CellRecord R;
    std::string Why;
    bool Ok;
    if (Format == SinkFormat::Jsonl) {
      Ok = parseJsonlLine(Line, R, Sc, Why);
    } else {
      // A quoted CSV field may legally contain a newline; keep pulling
      // continuation lines until the quotes balance.
      Sc.CsvFields.clear();
      Sc.CsvEnds.clear();
      bool InQuotes = false;
      while (!scanCsv(Line, InQuotes, Sc) && std::getline(In, Line)) {
        ++LineNo;
        Sc.CsvFields += '\n'; // The open quoted field's line break.
      }
      if (InQuotes) {
        Why = "unterminated quoted field";
        Ok = false;
      } else {
        Ok = parseCsvFields(R, Sc, Why);
      }
    }
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
