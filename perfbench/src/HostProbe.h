//===- HostProbe.h - A fixed measure of the host's current speed -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTPROBE_H
#define PERFBENCH_HOSTPROBE_H

namespace perfbench {

/// Seconds one host probe takes: a fixed loop of table lookups and
/// data-dependent branches over 256 KiB, built apart from libocelot with
/// fixed flags so that no change to the program moves it.
double hostProbeSeconds();

/// hostProbeSeconds() at the fast tail on the reference host (4-core
/// shared x86-64, GCC 12.2); timed metrics are scaled to this speed.
constexpr double HostProbeReferenceS = 0.041;

} // namespace perfbench

#endif // PERFBENCH_HOSTPROBE_H
