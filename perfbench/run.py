#!/usr/bin/env python3
"""End-to-end benchmark of the GlueFL simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark harness from source into
.bench_build/, then measures one workload. Every repetition runs in a
fresh harness process (closed loop of one: the next starts after the
previous exits; engines use --threads 1). Repetitions continue while the
next is expected to end within --seconds, at least three. Each invocation also
checks the outputs: repetitions must agree exactly, the harness trajectory
must equal `gluefl run --json` with the same flags, and a resumed run must
equal the uninterrupted one.

Times are paced: the harness times a fixed piece of work of its own at
every boundary it stamps, and each measured stretch is scaled to the pace
of a quiet core (see PACE_REF_S), so a shared host's slow spells largely cancel.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced repetition plus the layer probes and reports per-layer metrics.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# Every process of one measurement is killed once the measurement has
# run this long, so a hung run still ends the invocation in time.
MEASURE_LIMIT_S = 170
deadline = None  # monotonic time, set once the build is done

# Flags every workload shares: full-scale presets, the paper's model and
# network, measured wire bytes, one training thread.
COMMON = ["--scale", "1", "--model", "shufflenet", "--env", "edge",
          "--wire", "encoded", "--threads", "1"]

# Each workload's flags are handed unchanged to both the harness and
# `gluefl run`. Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "train-openimage": {
        "flags": COMMON + ["--strategy", "gluefl", "--dataset", "openimage",
                           "--rounds", "10"],
        "min_reps": 3,
    },
    "durable-speech": {
        "flags": COMMON + ["--strategy", "stc", "--dataset", "speech",
                           "--rounds", "20", "--scenario", "hostile",
                           "--checkpoint-every", "1"],
        # The hostile fleet makes this workload's cost depend on the seed
        # (~±5% in included clients and snapshot bytes), so repetitions
        # alternate between two seeds derived from --seed.
        "seeds": 2,
        "min_reps": 4,
        "crash_at": 10,
    },
    "async-femnist": {
        "flags": COMMON + ["--exec", "async", "--strategy", "async-fedbuff",
                           "--dataset", "femnist", "--rounds", "20",
                           "--population", "1000000",
                           "--population-mode", "virtual",
                           "--scenario", "diurnal", "--async-conc", "90",
                           "--async-buffer", "30", "--staleness", "poly",
                           "--staleness-alpha", "0.5", "--server-lr", "1"],
        "min_reps": 3,
    },
}

UNITS = {
    "setup_s": "s", "wall_s": "s", "round_s.p50": "s", "round_s.iqm": "s",
    "round_s.tail": "s", "updates_per_s": "1/s", "recovery_s": "s",
    "setup_s.raw": "s", "wall_s.raw": "s", "round_s.p50.raw": "s",
    "round_s.iqm.raw": "s", "round_s.tail.raw": "s",
    "peak_rss_mb": "MB", "down_gb": "GB", "sim_train_h": "h",
    "best_accuracy": "ratio", "failed_share": "ratio",
}
# The JSON line carries the metrics BENCHMARK.json lists; the table shows
# them all.
CONTRACT = ROOT / "BENCHMARK.json"

# Times are paced: other tenants of a shared host slow this core in steps
# of up to ~2x that last seconds to tens of seconds, so raw times of the
# same work spread by up to 30% between runs. The harness times a fixed
# piece of work of its own (pace.cpp) before set-up, after strategy init,
# after every round boundary and after finalize; each stretch between two
# pace samples is scaled by PACE_REF_S / (geometric mean of the two
# samples), which gives the time the stretch would have taken at the pace
# where that work takes PACE_REF_S: a quiet moment of the 4-vCPU Xeon the
# baseline was taken on.
# The scale is raised to PACE_EXPONENT: the workloads slow somewhat less
# than the pace work does, and 0.8 left the least spread in wall times of
# repetitions of one seed across quiet and slow stretches, on all three
# workloads. Time spent in the samples themselves is left out of every
# metric. The ".raw" metrics are the same stretches unscaled.
PACE_REF_S = 0.22e-3
PACE_EXPONENT = 0.8

# Span name -> per-layer self-time metric. Spans named "bench.*" are the
# harness's own, around the public calls it makes; the rest are the
# program's --trace spans. Unknown span names land in trace.other.self_s.
SPAN_METRICS = {
    "bench.data.synth": "data.synth_s",
    "bench.nn.proxy": "nn.proxy_s",
    "bench.fl.engine_ctor": "fl.engine_ctor_s",
    "bench.strategy.make": "strategy.make_s",
    "bench.strategy.init": "strategy.init_s",
    "bench.ckpt.restore": "ckpt.restore.self_s",
    "bench.events.finalize": "events.finalize_s",
    "bench.pace": "pace.self_s",
    "local_train": "local_train.self_s",
    "round": "strategy.self_s",
    "eval": "eval.self_s",
    "wire.encode": "wire.encode.self_s",
    "wire.decode": "wire.decode.self_s",
    "aggregate": "aggregate.self_s",
    "sample": "sample.self_s",
    "transfer_price": "transfer_price.self_s",
    "ckpt.save": "ckpt.save.self_s",
    "ckpt.load": "ckpt.load.self_s",
}
PROBE_METRICS = {
    "tensor.gemm_nn.gflops": "GFLOP/s", "tensor.gemm_nt.gflops": "GFLOP/s",
    "tensor.gemm_tn.gflops": "GFLOP/s", "compress.top_k.mvalues_per_s": "Mvalues/s",
    "wire.encode.gb_per_s": "GB/s", "wire.decode.gb_per_s": "GB/s",
    "agg.reduce.gb_per_s": "GB/s", "machine.copy_gb_per_s": "GB/s",
    "machine.fma_gflops": "GFLOP/s",
}
LAYER_UNITS = dict(
    {m: "s" for m in SPAN_METRICS.values()}, **PROBE_METRICS, **{
        "trace.other.self_s": "s", "local_train.calls": "count",
        "local_train.share": "ratio", "wire.frames": "count",
        "wire.bytes": "bytes", "wire.accept_ratio": "ratio",
        "net.dir.profile.hit_ratio": "ratio", "fl.included_ratio": "ratio",
        "async.buffered_ratio": "ratio", "ckpt.bytes": "bytes",
        "ckpt.disk_mb": "MB", "events.bytes": "bytes",
        "trace.unattributed_share": "ratio",
        "trace.program_unattributed_share": "ratio", "trace.overhead_s": "s",
        "trace.wall_s": "s", "pace.sample_ms.p50": "ms"})


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures and builds the harness and the CLI; returns their paths."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))  # compiler scratch
    with open(BUILD / "build.log", "w") as out:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                     "perfbench_harness", "gluefl"]):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                tail = (BUILD / "build.log").read_text().splitlines()[-15:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return BUILD / "perfbench_harness", BUILD / "gluefl"


# ---------------------------------------------------------------- processes

def spawn(argv, log_path):
    """Runs argv to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.DEVNULL,
                                stderr=err, cwd=ROOT)
        limit = (MEASURE_LIMIT_S if deadline is None
                 else max(0.0, deadline - time.monotonic()))
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def load_json(path):
    with open(path) as f:
        return json.load(f)


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# ---------------------------------------------------------------- one repetition

class Rep:
    """One workload repetition: one process, or crash + resume."""

    def __init__(self):
        self.seed = None
        self.complete = True  # every process ran and finished its rounds
        self.problem = ""     # first failed check, "" when all passed
        self.parts = []  # harness JSON of each process, in order
        self.wall = 0.0
        self.rss = 0.0
        self.traces = []
        self.ckpt_disk = 0
        self.events = b""

    def fail(self, problem, complete=True):
        self.complete = self.complete and complete
        self.problem = self.problem or problem


def harness_argv(harness, wl, seed, out, extra):
    return ([harness, "run"] + wl["flags"] + ["--seed", str(seed)] + extra
            + ["--out", out])


def run_rep(harness, wl, seed, work, traced=False):
    rep = Rep()
    rep.seed = seed
    work.mkdir(parents=True)
    crash_at = wl.get("crash_at")
    ckpt_dir = work / "ckpt"
    ckpt_dir.mkdir()
    phases = [[]]
    if crash_at:
        phases = [["--crash-at-round", str(crash_at)], ["--resume-from", None]]
    for i, extra in enumerate(phases):
        extra = list(extra)
        if "--resume-from" in extra:
            snaps = sorted(ckpt_dir.glob("ckpt-*.gfc"))
            if not snaps:
                rep.fail("crash left no checkpoint", complete=False)
                break
            extra[1] = snaps[-1]
        if "--checkpoint-every" in wl["flags"]:
            extra += ["--checkpoint-dir", ckpt_dir, "--events",
                      work / f"events-{i}.bin"]
        if traced:
            rep.traces.append(work / f"trace-{i}.json")
            extra += ["--trace", rep.traces[-1]]
        out = work / f"part-{i}.json"
        code, wall, rss = spawn(harness_argv(harness, wl, seed, out, extra),
                                work / f"part-{i}.log")
        rep.wall += wall
        rep.rss = max(rep.rss, rss)
        if code != 0:
            rep.fail(f"harness exited {code}: "
                     + (work / f"part-{i}.log").read_text().strip()[-300:],
                     complete=False)
            break
        rep.parts.append(load_json(out))
    if rep.complete:
        check_rep_shape(rep, wl)
    # Checkpoints and event logs live only as long as their repetition.
    rep.ckpt_disk = dir_bytes(ckpt_dir)
    shutil.rmtree(ckpt_dir)
    for ev in sorted(work.glob("events-*.bin")):
        rep.events += ev.read_bytes()
        ev.unlink()
    return rep


def flag(wl, name):
    return wl["flags"][wl["flags"].index(name) + 1]


def check_rep_shape(rep, wl):
    rounds = int(flag(wl, "--rounds"))
    crash_at = wl.get("crash_at")
    if crash_at:
        if not rep.parts[0]["crashed"] or len(rep.parts[0]["records"]) != crash_at:
            rep.fail("the crash phase did not stop at its crash round", False)
    got = [r[0] for p in rep.parts for r in p["records"]]
    if got != list(range(rounds)):
        rep.fail(f"completed rounds {got[:3]}..{got[-3:]}, "
                 f"expected 0..{rounds - 1}", False)
    if rep.parts[-1].get("trajectory") is None:
        rep.fail("no final result", False)


def signature(rep):
    """Everything a repetition computed: must repeat exactly per seed."""
    last = rep.parts[-1]
    sim = {k: v for k, v in last["counters"].items()
           if k.startswith(("wire.", "scenario."))}
    return json.dumps([[p["records"] for p in rep.parts], last["trajectory"],
                       last["best_accuracy"], last["totals"],
                       last["model_digest"], sim, rep.events.hex()])


def pace_s(sample):
    """One pace sample's time: the geometric mean of its two parts (cache-
    bound arithmetic, memory streaming), so each weighs the same."""
    return math.sqrt(sample[2] * sample[3])


def span_s(part, t0, t1, paced=True):
    """Seconds of one process between harness-clock times t0 and t1, pace
    samples left out; paced scales each stretch by the pace around it."""
    total, pace = 0.0, part["pace"]
    for a, b in zip(pace, pace[1:]):
        overlap = min(t1, b[0]) - max(t0, a[1])
        if overlap > 0:
            scale = (PACE_REF_S
                     / math.sqrt(pace_s(a) * pace_s(b))) ** PACE_EXPONENT
            total += overlap * (scale if paced else 1.0)
    return total


def setup_time(rep, paced=True):
    part = rep.parts[0]
    return span_s(part, 0.0, part["setup_end_s"], paced)


def wall_time(rep, paced=True):
    """Set-up, restore, every round and finalize, in every process of a
    repetition: the whole time between its first and last pace samples."""
    return sum(span_s(p, 0.0, math.inf, paced) for p in rep.parts)


def interquartile_mean(xs):
    """Mean of the middle half: unlike the median it moves smoothly when
    the rounds fall into groups of different lengths (on durable-speech
    checkpoints grow through the run, and the median sits in the gap)."""
    xs = sorted(xs)
    return statistics.mean(xs[len(xs) // 4:len(xs) - len(xs) // 4])


def round_durations(rep, paced=True):
    out = []
    for p in rep.parts:
        prev = max(p["setup_end_s"], p["run_start_s"])
        for b in p["boundaries_s"]:
            out.append(span_s(p, prev, b, paced))
            prev = b
    return out


# ---------------------------------------------------------------- checks

def same10(a, b):
    """Equality at the CLI's 10-significant-digit JSON formatting."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float("%.10g" % a) == float(b)
    return a == b


def reference_run(gluefl, wl, seed, work):
    """`gluefl run --json` with the workload's flags, uninterrupted: on the
    crash workload it is the run the resumed one must equal. Returns the
    summary and the event log (b"" when the workload records none)."""
    work.mkdir(parents=True)
    argv = [gluefl, "run"] + wl["flags"] + ["--seed", str(seed),
                                           "--json", work / "ref.json"]
    events = work / "ref-events.bin"
    if "--checkpoint-every" in wl["flags"]:
        (work / "ckpt").mkdir()
        argv += ["--checkpoint-dir", work / "ckpt", "--events", events]
    code = spawn(argv, work / "ref.log")[0]
    shutil.rmtree(work / "ckpt", ignore_errors=True)
    if code != 0:
        raise BenchError(f"gluefl run exited {code}: "
                         + (work / "ref.log").read_text()[-300:])
    return load_json(work / "ref.json"), (events.read_bytes()
                                          if events.exists() else b"")


def cli_mismatch(rep, ref, ref_events):
    """Why the repetition's result differs from the reference, or None."""
    mine = rep.parts[-1]
    traj = mine["trajectory"]
    if len(traj) != len(ref["trajectory"]) or not all(
            same10(a[k], b[k]) for a, b in zip(traj, ref["trajectory"]) for k in b):
        return "trajectory differs from gluefl run"
    if not same10(mine["best_accuracy"], ref["best_accuracy"]) or not all(
            same10(mine["totals"][k], v) for k, v in ref["totals"].items()
            if k in mine["totals"]):
        return "best accuracy or totals differ from gluefl run"
    for k, v in ref["telemetry"]["counters"].items():
        if mine["counters"].get(k) != v:
            return f"counter {k} differs from gluefl run"
    if rep.events != ref_events:
        return "event log differs from the uninterrupted gluefl run's"
    return None


# ---------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs)


def tail_level(n_rounds):
    """Highest whole percentile with at least ten rounds beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n_rounds)))


def percentile(xs, level):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, math.ceil(level / 100 * len(xs)) - 1)]


def end_to_end(wl, reps):
    included = [rec[10] for r in reps for p in r.parts for rec in p["records"]]
    # The tail level is fixed per workload (from its minimum repetitions),
    # so a run that fits in an extra repetition reports the same percentile.
    level = tail_level(wl["min_reps"] * int(flag(wl, "--rounds")))
    last = reps[0].parts[-1]
    m = {
        "peak_rss_mb": median([r.rss for r in reps]),
        "down_gb": last["totals"]["down_gb"],
        "sim_train_h": last["totals"]["wall_hours"],
        "best_accuracy": last["best_accuracy"],
    }
    for paced, suffix in ((True, ""), (False, ".raw")):
        durations = [d for r in reps for d in round_durations(r, paced)]
        m["setup_s" + suffix] = median([setup_time(r, paced) for r in reps])
        m["wall_s" + suffix] = median([wall_time(r, paced) for r in reps])
        m["round_s.p50" + suffix] = median(durations)
        m["round_s.iqm" + suffix] = interquartile_mean(durations)
        m["round_s.tail" + suffix] = percentile(durations, level)
        if paced:
            m["updates_per_s"] = sum(included) / sum(durations)
    if wl.get("crash_at"):
        m["recovery_s"] = median(
            [span_s(r.parts[1], 0.0, r.parts[1]["run_start_s"]) for r in reps])
    rounds = f"{len(included)} rounds"
    notes = {"setup_s": f"median of {len(reps)} set-ups",
             "wall_s": f"median of {len(reps)} runs",
             "round_s.p50": rounds, "round_s.iqm": f"middle half of {rounds}",
             "round_s.tail": f"p{level} of {rounds}",
             "updates_per_s": f"over {rounds}",
             "peak_rss_mb": f"median of {len(reps)} runs"}
    for name in ("setup_s", "wall_s", "round_s.p50", "round_s.iqm",
                 "round_s.tail"):
        notes[name + ".raw"] = "the same, not paced"
    return m, notes


def span_self_times(trace_path, program_only=False):
    """Self time per span name (span minus its direct children), span
    counts, the time covered by top-level spans in seconds, and whether
    the spans nest (no span ends after its parent). program_only ignores
    the harness's own bench.* spans."""
    events = [e for e in load_json(trace_path)["traceEvents"]
              if e.get("ph") == "X" and e.get("pid") == 1
              and not (program_only and e["name"].startswith("bench."))]
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    self_us, counts, covered, stack = defaultdict(float), defaultdict(int), 0.0, []
    nested = True
    for e in events:
        start, dur = e["ts"], e["dur"]
        while stack and stack[-1][0] <= start:
            stack.pop()
        if stack:
            self_us[stack[-1][1]] -= dur
            # The trace prints microseconds to 10 significant digits.
            nested = nested and start + dur <= stack[-1][0] + 0.01
        else:
            covered += dur
        self_us[e["name"]] += dur
        counts[e["name"]] += 1
        stack.append((start + dur, e["name"]))
    return ({k: v / 1e6 for k, v in self_us.items()}, counts, covered / 1e6,
            nested)


def per_layer(wl, traced, untraced_walls, probes):
    m = {name: 0.0 for name in LAYER_UNITS}
    spans, counts, covered, program_covered = (
        defaultdict(float), defaultdict(int), 0.0, 0.0)
    nested = True
    for path in traced.traces:
        s, c, cov, ok = span_self_times(path)
        for k, v in s.items():
            spans[k] += v
        for k, v in c.items():
            counts[k] += v
        covered += cov
        nested = nested and ok
        program_covered += span_self_times(path, program_only=True)[2]
    for name, secs in spans.items():
        m[SPAN_METRICS.get(name, "trace.other.self_s")] += secs
    wall = traced.wall
    m["trace.wall_s"] = wall
    m["trace.unattributed_share"] = (wall - covered) / wall
    # The same without the harness's spans: what spans inside the program
    # (ROADMAP item 1b) have left to cover.
    m["trace.program_unattributed_share"] = (wall - program_covered) / wall
    m["trace.overhead_s"] = wall - median(untraced_walls)
    pace = [pace_s(q) for p in traced.parts for q in p["pace"]]
    m["pace.sample_ms.p50"] = 1e3 * median(pace)
    m["local_train.calls"] = counts["local_train"]
    m["local_train.share"] = spans["local_train"] / wall
    final = traced.parts[-1]["counters"]  # sim counters survive the resume
    m["wire.frames"] = final["wire.encode.frames"]
    m["wire.bytes"] = final["wire.encode.bytes"]
    decoded = final["wire.decode.frames"]
    if decoded:
        m["wire.accept_ratio"] = (decoded - final["scenario.frames_rejected"]) / decoded
    hits = sum(p["counters"]["dir.profile.hits"] for p in traced.parts)
    misses = sum(p["counters"]["dir.profile.misses"] for p in traced.parts)
    if hits + misses:
        m["net.dir.profile.hit_ratio"] = hits / (hits + misses)
    records = [rec for p in traced.parts for rec in p["records"]]
    ratio = sum(r[10] for r in records) / sum(r[9] for r in records)
    m["async.buffered_ratio" if "--exec" in wl["flags"] else "fl.included_ratio"] = ratio
    m["ckpt.bytes"] = sum(p["ckpt_bytes"] for p in traced.parts)
    m["ckpt.disk_mb"] = traced.ckpt_disk / 1e6
    m["events.bytes"] = len(traced.events)
    m.update(probes)
    # Every second of the traced wall is either some layer's self time or
    # unattributed. That holds when the spans nest; a span outliving its
    # parent would count the overlap twice.
    self_total = sum(v for k, v in m.items() if k in SPAN_METRICS.values()
                     or k == "trace.other.self_s")
    balance = self_total + m["trace.unattributed_share"] * wall - wall
    return m, nested and abs(balance) <= 1e-6 * wall


# ---------------------------------------------------------------- main

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def measure(args, harness, gluefl, work):
    wl = WORKLOADS[args.workload]
    rounds = int(flag(wl, "--rounds"))
    reps, traced, n = [], None, 0
    # Repetition i runs seeds[i % len(seeds)]: --seed itself, then seeds
    # derived from it far outside the range of seeds given by hand. A
    # traced run compares its traced and untraced repetitions, so both run
    # --seed.
    seeds = [args.seed + (i << 32)
             for i in range(1 if args.trace else wl.get("seeds", 1))]

    def rep(**kw):
        nonlocal n
        n += 1
        return run_rep(harness, wl, seeds[(n - 1) % len(seeds)],
                       work / f"rep-{n}", **kw)

    t0 = time.monotonic()
    if args.trace:
        reps.append(rep())
        traced = rep(traced=True)
    else:
        # Start another cycle of repetitions (one per seed) only while it is
        # expected to finish inside --seconds, so a run's length stays close
        # to --seconds and every seed gets the same number of repetitions.
        cycle = len(seeds)
        while len(reps) < wl["min_reps"] or len(reps) % cycle or (
                time.monotonic() - t0) * (len(reps) + cycle) / len(reps) <= args.seconds:
            reps.append(rep())
    checked = reps + ([traced] if traced else [])
    complete = [r for r in checked if r.complete]
    if not complete:
        raise BenchError("every repetition failed: " + checked[0].problem)
    first = {}
    for r in complete:
        if first.setdefault(r.seed, signature(r)) != signature(r):
            r.fail("result differs from the first repetition with the same seed")
    cli_problem = cli_mismatch(complete[0], *reference_run(
        gluefl, wl, complete[0].seed, work / "cli"))
    if cli_problem:
        for r in checked:
            r.fail(cli_problem)
    attempted = rounds * len(checked)
    failed = rounds * sum(bool(r.problem) for r in checked)
    problems = sorted({r.problem for r in checked if r.problem})

    timed = [r for r in reps if r.complete] or complete
    e2e, notes = end_to_end(wl, timed)
    e2e["failed_share"] = failed / attempted

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f" over seeds {sorted({r.seed for r in checked})}  trace {args.trace}")
    print(f"end-to-end (untraced; times paced to a {PACE_REF_S * 1e3:g} ms"
          " pace sample unless .raw):")
    for name, unit in UNITS.items():
        value = fmt(e2e[name]) if name in e2e else "n/a"
        note = notes.get(name, "" if name in e2e else "no crash/resume here")
        print(f"  {name:<16} {value:>14} {unit:<6} {note}")
    print("checks: " + ("all passed" if not problems else "; ".join(problems)))

    correct = not problems
    if args.trace:
        if not traced.complete:
            raise BenchError("traced repetition failed: " + traced.problem)
        pdir = work / "probe"
        pdir.mkdir()
        argv = [harness, "probe", "--dataset", flag(wl, "--dataset"),
                "--model", flag(wl, "--model"), "--strategy", flag(wl, "--strategy"),
                "--out", pdir / "probe.json"]
        if spawn(argv, pdir / "probe.log")[0] != 0:
            raise BenchError("layer probes failed: "
                             + (pdir / "probe.log").read_text())
        layers, balanced = per_layer(wl, traced, [r.wall for r in timed],
                                     load_json(pdir / "probe.json"))
        correct = correct and balanced
        print("per-layer (traced repetition; self time = span minus child spans):")
        for name in sorted(layers):
            print(f"  {name:<30} {fmt(layers[name]):>14} {LAYER_UNITS[name]}")
        print("attribution: layer self times + unattributed "
              + ("= traced wall" if balanced else "DO NOT add up to the traced wall"))
    listed = load_json(CONTRACT)["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    def on_signal(signum, _frame):
        raise BenchError(f"interrupted by signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    work = BUILD / "runs" / str(os.getpid())
    try:
        harness, gluefl = build()
        deadline = time.monotonic() + MEASURE_LIMIT_S
        shutil.rmtree(work, ignore_errors=True)
        result = measure(args, harness, gluefl, work)
    except Exception as e:  # any failure: no result line, nonzero exit
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
