"""gathernoc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid|kernel|replay --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck         # every workload, tiny size
    python3 perfbench/run.py --write-reference   # re-record reference.json

Run it from the root of a source checkout; it imports gathernoc from
``src/``.  The workload runs in this (single-threaded) interpreter for about
``--seconds`` seconds of repetitions.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

from calibrate import Calibrator

# single-threaded numeric libraries; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 12345
# fresh interpreters timed for setup_s; one more runs first to compile bytecode
SETUP_PROBES = 11

END_TO_END = (
    ("wall_s", "s"),
    ("ru_wall_s", "s"),
    ("gather_wall_s", "s"),
    ("flit_hops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)


def _checkout_ok() -> bool:
    return (ROOT / "src" / "gathernoc" / "__init__.py").is_file()


def git_commit() -> str:
    """Commit of the checkout, read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def measure_setup(name: str, seed: int, quick: bool, probes: int,
                  cal: Calibrator) -> tuple[float, float]:
    """Median seconds from interpreter start to configs built (setup_s), in
    host and in reference seconds.  A calibration chunk runs before and
    after each probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    cmd += ["--quick"] if quick else []
    times = []
    first = cal.measure()
    for i in range(probes + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            times.append(elapsed)
        cal.measure()
    host = median(times)
    return host, cal.scale(host, first, len(cal.chunks) - 1)


class Rep:
    """One repetition of a workload: host time (calibration chunks left
    out), operations, failures.

    Only summaries are kept, so memory does not grow with the number of
    repetitions and ``peak_rss_mb`` does not depend on host speed."""

    def __init__(self, wall: float, paused: float, ops: list, failed: set[str],
                 layer_metrics=None):
        self.wall = wall
        self.paused = paused
        self.op_seconds = [(op.key, op.mode, op.seconds, op.chunk) for op in ops]
        self.flit_hops = sum(op.stats.counter_totals["link_traversal"] for op in ops)
        self.failed = failed
        self.layer_metrics = layer_metrics

    def mode_seconds(self, mode: str) -> float:
        return sum(s for _, m, s, _ in self.op_seconds if m == mode)

    def scaled(self, seconds: float, cal: Calibrator) -> float:
        """Host seconds of this repetition in reference seconds, by the
        chunks run before its operations and the one after the last."""
        chunks = [c for *_, c in self.op_seconds]
        return cal.scale(seconds, min(chunks), max(chunks) + 1) if chunks else seconds


def repeat(budget: float, one, min_reps: int):
    """Call ``one()`` at least ``min_reps`` times, then until the next call
    would end after ``budget`` seconds."""
    reps: list[Rep] = []
    start = perf_counter()
    while True:
        reps.append(one())
        if (len(reps) >= min_reps
                and perf_counter() - start + median(r.wall + r.paused for r in reps) > budget):
            return reps


def run_workload(args) -> int:
    from spans import Tracer, instrumented, median_metrics, per_layer_metrics, rep_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](quick=args.quick)
    reference = json.loads(REFERENCE.read_text())[wl.scale][wl.name]
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    tracer = Tracer()
    traced_spans = []

    def one(untraced_wall=None, missing=frozenset()) -> Rep:
        tracer.reset()
        t0 = perf_counter_ns()
        extra = wl.run(args.seed, outdir)
        wall = (perf_counter_ns() - t0) / 1e9 - tracer.paused_s
        layer = None
        if untraced_wall is not None:
            layer = rep_layer_metrics(tracer, wall, untraced_wall, missing)
            traced_spans.append({"wall_s": wall, "spans": _relative(tracer.spans, t0)})
        failed = wl.failed_ops(tracer.ops, extra, outdir, reference)
        return Rep(wall, tracer.paused_s, tracer.ops, failed, layer)

    traced: list[Rep] = []
    try:
        if args.trace:
            # half the time untraced, as the baseline for trace.overhead_s
            wl.prepare(args.seed)
            budget = args.seconds / 2
            with instrumented(tracer, layers=False):
                reps = repeat(budget, one, 1)
            untraced_wall = median(r.wall for r in reps)
            with instrumented(tracer, layers=True) as missing:
                traced = repeat(budget, lambda: one(untraced_wall, missing), 1)
        else:
            # a calibration chunk runs before and after every set-up probe
            # and every operation
            with Calibrator() as cal:
                setup_s = measure_setup(wl.name, args.seed, args.quick,
                                        2 if args.quick else SETUP_PROBES, cal)
                wl.prepare(args.seed)
                tracer.before_op = cal.measure
                with instrumented(tracer, layers=False):
                    reps = repeat(args.seconds, one, 1 if args.quick else 2)
                cal.measure()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    all_reps = reps + traced
    attempted = len(wl.expected_ops) * len(all_reps)
    failed = sum(len(r.failed) for r in all_reps)
    host = {}
    if args.trace:
        measured = median_metrics([r.layer_metrics for r in traced])
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        # Medians over the repetitions, in reference seconds: each repetition
        # is scaled by the calibration chunks run during it; see calibrate.py
        # and NOTES.md.
        host = {
            "wall_s": median(r.wall for r in reps),
            "ru_wall_s": median(r.mode_seconds("ru") for r in reps),
            "gather_wall_s": median(r.mode_seconds("gather") for r in reps),
            "flit_hops_per_s": median(r.flit_hops / r.wall for r in reps),
            "setup_s": setup_s[0],
            "chunks_s": cal.chunks,
        }
        measured = {
            "wall_s": median(r.scaled(r.wall, cal) for r in reps),
            "ru_wall_s": median(r.scaled(r.mode_seconds("ru"), cal) for r in reps),
            "gather_wall_s": median(r.scaled(r.mode_seconds("gather"), cal) for r in reps),
            "flit_hops_per_s": median(r.flit_hops / r.scaled(r.wall, cal) for r in reps),
            "setup_s": setup_s[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": measured[name], "unit": units[name]}
               for name in units if name in measured}
    absent = [name for name in units if name not in measured]

    facts = machine_facts()
    record = {
        "workload": wl.name, "why": wl.why, "scale": wl.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": facts,
        "reps": [{"wall_s": r.wall, "paused_s": r.paused, "failed": sorted(r.failed),
                  "ops": [[key, seconds] for key, _, seconds, _ in r.op_seconds]}
                 for r in all_reps],
        "metrics": metrics, "absent": absent, "host": host,
    }
    stem = f"{wl.name}-{wl.scale}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        trace_doc = {"workload": wl.name, "machine": facts, "per_layer": metrics,
                     "absent": absent, "span_fields": ["name", "start_ns", "end_ns",
                                                       "parent", "op"],
                     "reps": traced_spans}
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace_doc, separators=(",", ":")))

    print(f"# workload {wl.name} ({wl.scale}): {wl.why}")
    print(f"# machine: {json.dumps(facts)}")
    print(f"# repetitions: {len(reps)} untraced, {len(traced)} traced; "
          f"operations attempted {attempted}, failed {failed}")
    for name in sorted({k for r in all_reps for k in r.failed}):
        print(f"# FAILED operation: {name}")
    if absent:
        print(f"# absent (instrumented call no longer exists): {', '.join(absent)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _relative(spans: list[list], t0_ns: int) -> list[list]:
    """Spans as [name, start, end, parent, op], times relative to ``t0_ns``."""
    return [[s[0], s[1] - t0_ns, s[2] - t0_ns, s[3], s[4]] for s in spans]


def write_reference() -> int:
    """Record every operation's statistics and the grid files at the
    reference seed, at full and quick scale."""
    from spans import Tracer, instrumented
    from workloads import WORKLOADS, signature

    OUT.mkdir(exist_ok=True)
    reference: dict = {}
    for quick in (False, True):
        for name, cls in WORKLOADS.items():
            wl = cls(quick=quick)
            wl.prepare(REFERENCE_SEED)
            tracer = Tracer()
            outdir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
            try:
                with instrumented(tracer, layers=False):
                    extra = wl.run(REFERENCE_SEED, outdir)
                ops = {op.key: signature(op.stats) for op in tracer.ops} | extra
                entry = {"ops": dict(sorted(ops.items()))}
                if name == "grid":
                    entry["files"] = {f: (outdir / f).read_text() for f in wl.file_names()}
                failed = wl.failed_ops(tracer.ops, extra, outdir, entry)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
            if failed:
                print(f"{name} ({wl.scale}): operations failed, nothing written: "
                      f"{sorted(failed)}", file=sys.stderr)
                return 1
            reference.setdefault(wl.scale, {})[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def selfcheck() -> int:
    """Run every workload once at tiny size, traced and untraced, and check
    the wiring, the metric names and that the reference check catches a
    changed statistic and a changed file."""
    from spans import Tracer, instrumented, per_layer_metrics
    from workloads import WORKLOADS

    problems: list[str] = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["end_to_end"]] != [n for n, _ in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end names differ from run.py")
    if [m["name"] for m in bench["per_layer"]] != [n for n, _, _ in per_layer_metrics()]:
        problems.append("BENCHMARK.json per_layer names differ from spans.py")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    expected = {0: {n for n, _ in END_TO_END}, 1: {n for n, _, _ in per_layer_metrics()}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {proc.stdout[-800:]}")
            wrong = set(result["metrics"]) ^ expected[trace]
            if wrong:
                problems.append(f"{tag}: missing or unexpected metrics {sorted(wrong)}")
            print(f"selfcheck: {tag}: attempted {result['attempted']}, failed {result['failed']}")

    reference = json.loads(REFERENCE.read_text())["quick"]
    OUT.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        wl = cls(quick=True)
        wl.prepare(7)
        tracer = Tracer()
        outdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT))
        try:
            with instrumented(tracer, layers=False):
                extra = wl.run(7, outdir)
            # failed_ops consumes the grid files, so each check rewrites them
            files = {f.name: f.read_text() for f in outdir.iterdir()}

            def check() -> set[str]:
                for fname, text in files.items():
                    (outdir / fname).write_text(text)
                return wl.failed_ops(tracer.ops, extra, outdir, reference[name])

            if check():
                problems.append(f"{name}: clean outputs flagged as failed")
            victim = tracer.ops[0]
            victim.stats.hops += 1
            if check() != {victim.key}:
                problems.append(f"{name}: a changed hop count was not caught")
            victim.stats.hops -= 1
            if files:
                first = sorted(files)[0]
                files[first] += "\n"
                mesh = first.split("_")[1].split(".")[0]
                flagged = check()
                if not flagged or any(not k.startswith(mesh + "/") for k in flagged):
                    problems.append(f"{name}: a changed result file was not caught")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        print(f"selfcheck: {name}: reference check catches changed outputs")

    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("grid", "kernel", "replay"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny input sizes (self-check scale)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not _checkout_ok():
        print(f"no gathernoc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selfcheck:
        return selfcheck()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
