"""rigidpadic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload series-orbit --seed 1 --seconds 9 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one client, closed loop: the next operation starts
when the previous one has returned.

``--trace 0`` reports the end-to-end metrics.  Set-up (imports once, then
context, inputs, fixture files and warm-up) is repeated ``SETUP_REPS`` times,
once before the first cycle and then after each of the next (or after the
last, for a run with fewer cycles), and its median reported.  A run is a
fixed number of whole cycles, about ``--seconds`` of scaled operation time
(``workloads.cycles``), so a seed fixes how many operations are attempted
and how many fail; every execution of every operation is a latency sample.
Times are scaled to the reference host speed by a probe run between
operations (see ``HostSpeed``); the unscaled figures go to the run record.

``--trace 1`` reports the per-layer metrics.  One cycle runs three times
on the same inputs: untraced (checks and the time base), traced (spans
around each layer's entry points) and profiled (cProfile).  The operation
count is fixed, so counts repeat exactly for a seed; the traced and
profiled counts of the same functions must match.

``--workload all`` runs the four workloads one after another, each in its
own process, and ends with a table of every metric per workload.

Every operation's result is checked outside the timed interval.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("series-orbit", "piecewise-act", "membership-ladder", "cli-files")
SETUP_REPS = 5
#: operation time after which a run stops before its next cycle
MAX_TIMED_S = 120.0
#: integer rounds of one probe
PROBE_ROUNDS = 3000
#: the probe's median on the reference host in its fast state
PROBE_REF_S = 0.9e-3
#: operation time between two probes
PROBE_EVERY_S = 0.02


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _probe_step(x: int, i: int) -> int:
    return (x >> (i & 31)) & 0xFFFF


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python integer work.

    The work calls nothing of the library and allocates no object the
    cyclic garbage collector tracks, so the program under test cannot
    change what it costs; only the host's speed can.
    """
    modulus = 5 ** 40
    x, acc = 7, 0
    t0 = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        x = x * 1103515245 % modulus + i
        acc += _probe_step(x, i)
    return time.perf_counter() - t0


class HostSpeed:
    """Operation times, raw and scaled to the reference host speed.

    The reference host (a shared 2-vCPU virtual machine) switches between
    a fast and a slow state every one to a few seconds, and the share of
    time it spends slow changes over minutes.  The slow state runs
    pure-Python code up to 1.9 times slower, and ``time.process_time``
    moves with it.  A probe of fixed work therefore runs between operations,
    at most every ``PROBE_EVERY_S`` of operation time, and each operation's
    time is multiplied by ``PROBE_REF_S`` over the mean of the two probe
    readings around it.  The probe runs outside the timed interval.  Over
    whole cycles of `membership-ladder`, this took the spread of cycle
    times from 26% to 3%.
    """

    def __init__(self):
        self.last = probe()
        self.pending: list = []
        self.since = 0.0
        self.raw: list = []
        self.scaled: list = []

    def add(self, dt: float) -> None:
        self.pending.append(dt)
        self.since += dt
        if self.since >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = probe()
        factor = PROBE_REF_S * 2 / (self.last + now)
        self.raw += self.pending
        self.scaled += [dt * factor for dt in self.pending]
        self.pending, self.since, self.last = [], 0.0, now


def bracketed(fn):
    """Run fn once between two probes; (raw seconds, scaled seconds, result)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    return dt, dt * PROBE_REF_S * 2 / (before + probe()), result


def load_library():
    """Import the library from this checkout's src/; (import seconds raw and
    scaled, workloads module, tracing module)."""
    if not (SRC / "rigidpadic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rigidpadic sources under {SRC}")
    sys.path.insert(0, str(SRC))

    def load():
        import rigidpadic
        import tracing
        import workloads
        return rigidpadic, workloads, tracing

    probe()  # the first probe pays for its own warm-up
    raw, scaled, (rigidpadic, workloads, tracing) = bracketed(load)
    if Path(rigidpadic.__file__).resolve().parent != SRC / "rigidpadic":
        raise SystemExit(f"perfbench: imported rigidpadic from {rigidpadic.__file__}")
    return (raw, scaled), workloads, tracing


def run_record(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Attempted and failed operations, and the digest of the first cycle.

    A failure is known, and leaves the run correct, when it is an expected
    crash (``op.known_crash``) or a check failure marked ``Known`` whose
    defect has not yet reached its per-cycle limit (``KNOWN_PER_CYCLE``).
    Every other failure makes the run incorrect.
    """

    def __init__(self, cycle_len: int, limits: dict):
        self.cycle_len = cycle_len
        self.limits = limits
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.known_seen: set = set()
        self.in_cycle: dict = {}
        self.unexpected: list = []
        self.hasher = hashlib.sha256()

    def record(self, op, result, exc, canonical, check: bool) -> None:
        if self.attempted < self.cycle_len:
            shown = f"raised {type(exc).__name__}" if exc else canonical(result)
            self.hasher.update(repr(shown).encode("utf-8"))
        if self.attempted % self.cycle_len == 0:
            self.in_cycle = {}
        self.attempted += 1
        if exc is not None:
            problem = f"uncaught {type(exc).__name__}: {exc}"
        elif check:
            problem = op.check(result)
        else:
            return
        if problem is None:
            return
        self.failed += 1
        defect = getattr(problem, "defect", None)
        if defect is not None:
            seen = self.in_cycle[defect] = self.in_cycle.get(defect, 0) + 1
            if seen > self.limits[defect]:
                problem = f"{problem} ({defect}: {seen} in one cycle, limit {self.limits[defect]})"
                defect = None
        if (exc is not None and op.known_crash) or defect is not None:
            self.known += 1
            self.known_seen.add(f"{op.kind}: {problem}")
        elif len(self.unexpected) < 20:
            self.unexpected.append(f"{op.kind}: {problem}")

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()[:16]

    @property
    def correct(self) -> bool:
        return not self.unexpected


def execute(op, before=None, after=None):
    """Time one operation; a raised exception is returned, not propagated."""
    result = exc = None
    if before:
        before()
    t0 = time.perf_counter()
    try:
        result = op.fn()
    except Exception as err:  # counted as a failed operation; the run goes on
        exc = err
    dt = time.perf_counter() - t0
    if after:
        after()
    return dt, result, exc


def set_up(wl, workload: str, seed: int, fixtures_root: str):
    """Context, inputs, fixture files and warm-up; the operations."""
    from rigidpadic.padic import PadicContext

    ctx = PadicContext(**wl.CONTEXT)
    ops = wl.build(workload, ctx, seed, tempfile.mkdtemp(dir=fixtures_root))
    kinds = set()
    for op in ops:  # the first operation of each kind fills the lazy caches
        if op.kind not in kinds:
            kinds.add(op.kind)
            execute(op)
    return ops


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def summarize(times, setup_s):
    """ops_per_s, latency_p50_ms, latency_p90_ms and setup_s of one run."""
    ordered = sorted(times)
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_p90_ms": percentile(ordered, 0.9)[0] * 1e3,
        "setup_s": setup_s,
    }


def measure(wl, workload, seed, seconds, fixtures_root, import_s):
    """The end-to-end metrics of one untraced run.

    Every execution of every operation is a sample: ops_per_s is all
    executions over their summed time, p50 and p90 are taken over all of
    them.  A fixed number of whole cycles runs, so each run has the designed
    mix, and two runs with one seed attempt the same operations.
    """
    def one_setup():
        return set_up(wl, workload, seed, fixtures_root)

    raw_setup, scaled_setup, ops = bracketed(one_setup)
    setups = [(raw_setup, scaled_setup)]
    gc.collect()
    tally = Tally(len(ops), wl.KNOWN_PER_CYCLE)
    clock = HostSpeed()
    timed = 0.0
    cycles = 0
    while cycles < wl.cycles(workload, seconds) and timed < MAX_TIMED_S:
        for op in ops:
            dt, result, exc = execute(op)
            timed += dt
            tally.record(op, result, exc, wl.canonical, check=True)
            clock.add(dt)
        clock.flush()
        cycles += 1
        # the other set-ups run between cycles, outside the timed interval,
        # so their median does not rest on one moment of the host
        if len(setups) < SETUP_REPS:
            setups.append(bracketed(one_setup)[:2])
    while len(setups) < SETUP_REPS:
        setups.append(bracketed(one_setup)[:2])
    metrics = summarize(clock.scaled, import_s[1] + statistics.median(s for _, s in setups))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    beyond = percentile(sorted(clock.scaled), 0.9)[1]
    extra = {
        "failed_ratio": tally.failed / tally.attempted,
        "samples": len(clock.scaled),
        "samples_beyond_p90": beyond,
        "cycles": cycles,
        "timed_s": timed,
        "unscaled": summarize(clock.raw, import_s[0] + statistics.median(r for r, _ in setups)),
        "import_s": import_s[0],
        "setup_reps_s": [r for r, _ in setups],
    }
    return tally, metrics, extra, None


def trace_run(wl, tracing, workload, seed, fixtures_root):
    """The per-layer metrics: one cycle untraced, traced, then profiled."""
    ops = set_up(wl, workload, seed, fixtures_root)
    gc.collect()

    tally = Tally(len(ops), wl.KNOWN_PER_CYCLE)
    untraced = HostSpeed()
    for op in ops:
        dt, result, exc = execute(op)
        untraced.add(dt)
        tally.record(op, result, exc, wl.canonical, check=True)
    untraced.flush()

    tracer = tracing.Tracer()
    traced_tally = Tally(len(ops), wl.KNOWN_PER_CYCLE)
    traced = HostSpeed()
    tracer.install([wl])
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            dt, result, exc = execute(op)
            traced.add(dt)
            traced_tally.record(op, result, exc, wl.canonical, check=False)
        traced.flush()
    finally:
        tracer.uninstall()

    prof = cProfile.Profile()
    profiled_tally = Tally(len(ops), wl.KNOWN_PER_CYCLE)
    for op in ops:
        _, result, exc = execute(op, prof.enable, prof.disable)
        profiled_tally.record(op, result, exc, wl.canonical, check=False)

    metrics = tracing.span_metrics(tracer.spans)
    padic_metrics, cross, top = tracing.profile_metrics(prof)
    metrics.update(padic_metrics)
    metrics["trace.overhead_ratio"] = sum(traced.scaled) / sum(untraced.scaled)

    for name, count in cross.items():
        if metrics[name] != count:
            tally.unexpected.append(f"{name}: {metrics[name]} traced, {count} profiled")
    for label, other in (("traced", traced_tally), ("profiled", profiled_tally)):
        if other.digest != tally.digest:
            tally.unexpected.append(f"{label} pass changed the outputs")
    extra = {
        "untraced_s": sum(untraced.raw),
        "traced_s": sum(traced.raw),
        "spans": len(tracer.spans),
        "profile_top": top,
    }
    return tally, metrics, extra, tracer.spans


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, one after another, then a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    first = next(iter(results.values()))
    rows = list(first["metrics"])
    print("\n" + " ".join(["metric".ljust(28)] + [n.rjust(18) for n in results]))
    for metric in rows:
        unit = first["metrics"][metric]["unit"]
        cells = [f"{r['metrics'][metric]['value']:.6g}".rjust(18) for r in results.values()]
        print(" ".join([f"{metric} [{unit}]".ljust(28)] + cells))
    if not args.trace:
        cells = [f"{r['failed'] / r['attempted']:.6g}".rjust(18) for r in results.values()]
        print(" ".join(["failed_ratio [1]".ljust(28)] + cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    import_s, wl, tracing = load_library()
    OUT.mkdir(exist_ok=True)
    fixtures_root = tempfile.mkdtemp(prefix="fixtures-", dir=OUT)
    try:
        if args.trace:
            tally, metrics, extra, spans = trace_run(
                wl, tracing, args.workload, args.seed, fixtures_root)
        else:
            tally, metrics, extra, spans = measure(
                wl, args.workload, args.seed, args.seconds, fixtures_root, import_s)
    finally:
        shutil.rmtree(fixtures_root, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    differ = set(units) ^ set(metrics)
    if differ:
        raise SystemExit(f"perfbench: metrics and BENCHMARK.json differ on {sorted(differ)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args.workload, args.seed, args.trace, args.seconds)
    record.update({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_failures": tally.known,
        "known_defects": sorted(tally.known_seen),
        "unexpected_failures": tally.unexpected,
        "digest": tally.digest,
        "metrics": metrics,
        **extra,
    })
    if spans is not None:
        write_spans(OUT / f"{stem}.spans.jsonl", spans)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(" ".join(f"{k}={record[k]}" for k in
                   ("workload", "seed", "trace", "python", "nproc", "commit")))
    print(f"cpu={record['cpu']}  digest={tally.digest}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if not args.trace:
        print(f"failed_ratio {extra['failed_ratio']} 1  ({tally.failed}/{tally.attempted}, "
              f"{tally.known} from known defects)")
        print(f"samples {extra['samples']} executions ({extra['samples_beyond_p90']} beyond p90) "
              f"in {extra['cycles']} cycles")
        for name, value in extra["unscaled"].items():
            print(f"unscaled {name} {value} {units[name]}")
    else:
        for row in extra["profile_top"]:
            print(f"profile {row['function']} {row['tottime_s']:.3f}s {row['share']:.1%}")
    for problem in tally.unexpected:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
