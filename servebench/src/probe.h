// The host probe: fixed work that runs no opal code, timed on the CPU
// clock. The virtual CPUs the benchmark runs on share physical cores and
// caches with other tenants, and how busy those are changes the speed of
// every instruction: the same code reads up to twice the CPU time from one
// minute to the next. The probe slows down with the host but cannot be
// moved by a change to opal, so host-time metrics are reported scaled to a
// reference host (see host_scale), where the probe takes
// kReferenceProbeMs.
#pragma once

#include <vector>

namespace servebench {

/// The probe's CPU time on a quiet core of a 4-vCPU x86 VM (estimated:
/// 11.8 ms when the same VM served decode-batch at 0.52 of its quiet
/// speed).
inline constexpr double kReferenceProbeMs = 6.0;

/// Runs the probe once — 48 decode passes of a plain-C++ fp32 model of the
/// served model's shape (probe.cpp) — and returns its CPU time in ms.
double host_probe_ms();

/// Host speed during a run relative to the reference host: the median of
/// the run's probes over kReferenceProbeMs. A time measured in the run
/// divided by it reads what the reference host would take; a rate
/// multiplied by it likewise. 1 when there are no probes.
double host_scale(const std::vector<double>& probe_ms);

}  // namespace servebench
