//===- ShardManifest.cpp - Durable per-shard progress record ---------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/ShardManifest.h"

#include "fleet/FleetSpec.h"

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace ocelot;

namespace {

constexpr const char *Magic = "ocelot-fleet-manifest v2";
constexpr const char *MagicV1 = "ocelot-fleet-manifest v1";

/// One slot: the checksummed lines, space-padded to a final newline. With
/// every field at its widest the lines take 246 bytes.
std::string serializeSlot(const ShardManifest &M) {
  char Buf[ManifestSlotBytes];
  std::snprintf(Buf, sizeof(Buf),
                "%s\n"
                "spec_hash %016" PRIx64 "\n"
                "shard %u/%u\n"
                "format %s\n"
                "cells %zu %zu %zu\n"
                "sink_offset %" PRIu64 "\n"
                "seq %" PRIu64 "\n",
                Magic, M.SpecHash, M.Shard, M.ShardCount,
                sinkFormatName(M.Format), M.CellsBegin, M.CellsNext,
                M.CellsEnd, M.SinkOffset, M.Seq);
  std::string Slot = Buf;
  std::snprintf(Buf, sizeof(Buf), "checksum %016" PRIx64 "\n",
                fnv1a64(Slot));
  Slot += Buf;
  Slot.resize(ManifestSlotBytes - 1, ' ');
  Slot += '\n';
  return Slot;
}

/// Parses slot \p Index of a manifest. Returns false with \p Why when its
/// checksum, layout or fields do not hold.
bool parseSlot(const std::string &Slot, size_t Index, ShardManifest &P,
               std::string &Why) {
  // Split off the checksum line and verify it covers the lines before it.
  size_t SumPos = Slot.rfind("checksum ");
  if (SumPos == std::string::npos || SumPos == 0 || Slot[SumPos - 1] != '\n') {
    Why = "missing checksum line";
    return false;
  }
  std::string Body = Slot.substr(0, SumPos);
  uint64_t WantSum = 0;
  const char *Hex = Slot.data() + SumPos + std::strlen("checksum ");
  if (std::from_chars(Hex, Slot.data() + Slot.size(), WantSum, 16).ec !=
      std::errc()) {
    Why = "unreadable checksum line";
    return false;
  }
  if (fnv1a64(Body) != WantSum) {
    Why = "checksum mismatch (torn or edited write)";
    return false;
  }

  char FormatName[16] = {0};
  char MagicBuf[64] = {0};
  int Matched = std::sscanf(
      Body.c_str(),
      "%63[^\n]\n"
      "spec_hash %" SCNx64 "\n"
      "shard %u/%u\n"
      "format %15[^\n]\n"
      "cells %zu %zu %zu\n"
      "sink_offset %" SCNu64 "\n"
      "seq %" SCNu64 "\n",
      MagicBuf, &P.SpecHash, &P.Shard, &P.ShardCount, FormatName,
      &P.CellsBegin, &P.CellsNext, &P.CellsEnd, &P.SinkOffset, &P.Seq);
  if (Matched != 10 || std::string(MagicBuf) != Magic) {
    Why = "unrecognized layout";
    return false;
  }
  if (!parseSinkFormat(FormatName, P.Format, Why))
    return false;
  if (P.ShardCount == 0 || P.Shard >= P.ShardCount ||
      P.CellsBegin > P.CellsNext || P.CellsNext > P.CellsEnd ||
      P.Seq % 2 != Index) {
    Why = "inconsistent progress fields";
    return false;
  }
  return true;
}

/// Writes \p Bytes at \p Offset of \p Path and makes them durable. With
/// \p Create the file must not exist yet and gets a full fsync; otherwise
/// it is overwritten in place and only its data is synced.
bool writeAt(const std::string &Path, uint64_t Offset,
             const std::string &Bytes, bool Create, std::string &Error) {
#ifndef _WIN32
  int Fd = Create ? ::open(Path.c_str(),
                           O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666)
                  : ::open(Path.c_str(), O_WRONLY | O_CLOEXEC);
  if (Fd < 0) {
    Error = (Create ? "cannot create " : "cannot open ") + Path + ": " +
            std::strerror(errno);
    return false;
  }
  bool Ok = ::pwrite(Fd, Bytes.data(), Bytes.size(),
                     static_cast<off_t>(Offset)) ==
                static_cast<ssize_t>(Bytes.size()) &&
            (Create ? ::fsync(Fd) : ::fdatasync(Fd)) == 0;
  int Errno = errno;
  if (::close(Fd) != 0 && Ok) {
    Ok = false;
    Errno = errno;
  }
#else
  std::FILE *F = std::fopen(Path.c_str(), Create ? "wb" : "r+b");
  bool Ok = F && std::fseek(F, static_cast<long>(Offset), SEEK_SET) == 0 &&
            std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  int Errno = errno;
  if (F && std::fclose(F) != 0)
    Ok = false;
#endif
  if (!Ok)
    Error = "cannot write " + Path + ": " + std::strerror(Errno);
  return Ok;
}

bool syncParentDir(const std::string &Path) {
#ifndef _WIN32
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return false;
  bool Ok = ::fsync(Fd) == 0;
  ::close(Fd);
  return Ok;
#else
  (void)Path;
  return true;
#endif
}

} // namespace

bool ocelot::fileExists(const std::string &Path) {
#ifndef _WIN32
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
#else
  std::ifstream In(Path);
  return In.good();
#endif
}

bool ocelot::createShardManifest(const std::string &Path, ShardManifest &M,
                                 std::string &Error) {
  M.Seq = 0;
  std::string Bytes = serializeSlot(M);
  M.Seq = 1;
  Bytes += serializeSlot(M);
  if (!writeAt(Path, 0, Bytes, /*Create=*/true, Error))
    return false;
  // Make the new entry durable; a shard must not evaluate cells against a
  // manifest a crash could still erase.
  if (!syncParentDir(Path)) {
    Error = "cannot fsync directory of " + Path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

bool ocelot::commitShardManifest(const std::string &Path, ShardManifest &M,
                                 std::string &Error) {
  ++M.Seq;
  return writeAt(Path, (M.Seq % 2) * ManifestSlotBytes, serializeSlot(M),
                 /*Create=*/false, Error);
}

bool ocelot::loadShardManifest(const std::string &Path, ShardManifest &M,
                               std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open " + Path + ": " + std::strerror(errno);
    return false;
  }
  std::ostringstream Raw;
  Raw << In.rdbuf();
  std::string Text = Raw.str();

  // The newest slot whose checksum holds wins; seq parity keeps the two
  // slots' numbers distinct.
  bool Found = false;
  std::string Why[2];
  for (size_t I = 0; I < 2; ++I) {
    ShardManifest P;
    if (Text.size() < (I + 1) * ManifestSlotBytes)
      Why[I] = "truncated";
    else if (parseSlot(Text.substr(I * ManifestSlotBytes, ManifestSlotBytes),
                       I, P, Why[I]) &&
             (!Found || P.Seq > M.Seq)) {
      M = P;
      Found = true;
    }
  }
  if (Found)
    return true;

  if (Text.compare(0, std::strlen(MagicV1), MagicV1) == 0) {
    Error = Path + " is a v1 manifest, written by an ocelot-fleet that "
            "committed checkpoints by rename; finish the sweep with that "
            "binary, or delete the shard's manifest and result file to "
            "restart the shard";
    return false;
  }
  Error = "corrupt manifest " + Path + ": slot 0 " + Why[0] + ", slot 1 " +
          Why[1] +
          " (delete the shard's manifest and result file to restart it "
          "from scratch)";
  return false;
}
