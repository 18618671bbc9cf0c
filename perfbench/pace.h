// Machine-pace samples: fixed work owned by the benchmark, timed at every
// point where the harness stamps a boundary, so run.py can tell how fast
// the core was running around each measured interval.
//
// On a shared host the core's speed moves in steps (other tenants using
// the caches and memory this core shares) that last from seconds to tens
// of seconds and slow cache- and memory-bound code by up to ~2x, while
// register-only arithmetic barely moves. Timing the same
// fixed work next to each interval measures that speed; run.py divides it
// out. The work calls no code of the simulator, so a change to the
// simulator cannot move it.
#pragma once

namespace gluefl::perfbench {

struct PaceSample {
  double start_s = 0.0;    // harness clock when the sample began (set by
  double end_s = 0.0;      // the caller) and when it ended
  double compute_s = 0.0;  // 64x64 float matrix products, in L1/L2
  double memory_s = 0.0;   // streaming reads over a 4 MiB buffer
};

/// Times each part of the fixed work three times and keeps the best
/// (about 2.5 ms in all on a 4-vCPU Xeon); leaves start_s and end_s to the
/// caller.
PaceSample sample_pace();

}  // namespace gluefl::perfbench
