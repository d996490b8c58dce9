"""In-memory span tracer and the instrumentation that feeds it.

Spans are recorded around calls into gathernoc by replacing, for the
duration of a ``with instrumented(...)`` block, the module and class
attributes those calls resolve at run time.  No file of the package is
changed.  Every run wraps the operation boundary (``run_convolution``), so
per-operation host time and statistics are always known; a traced run also
wraps the layer calls listed in ``_layer_targets``.
"""
from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

# span record fields, kept as a list for cheap per-cycle recording
NAME, START, END, PARENT, OP, CHILD_NS, CYCLES = range(7)

MODES = ("ru", "gather")

# Per-layer metrics split by collection mode, with unit and direction.
MODE_METRICS = (
    ("network.step_s", "s", "lower"),
    ("network.steps", "count", "lower"),
    ("network.step_us", "us", "lower"),
    ("network.arbitrate_s", "s", "lower"),
    ("network.commit_s", "s", "lower"),
    ("network.node_phase_s", "s", "lower"),
    ("network.flit_hops", "count", "lower"),
    ("network.packets", "count", "lower"),
    ("network.timeout_packets", "count", "lower"),
    ("network.congestion_cycles", "cycles", "lower"),
    ("systolic.loop_s", "s", "lower"),
    ("systolic.schedule_s", "s", "lower"),
    ("systolic.rounds", "count", "lower"),
    ("systolic.rounds_simulated", "count", "lower"),
    ("systolic.replay_ratio", "ratio", "higher"),
    ("systolic.operands_s", "s", "lower"),
    ("systolic.oracle_s", "s", "lower"),
    ("systolic.oracle_checks", "count", "higher"),
    ("power.add_scaled_s", "s", "lower"),
    ("power.add_scaled_calls", "count", "lower"),
)
PLAIN_METRICS = (
    ("workload.layer_db_s", "s", "lower"),
    ("harness.run_s", "s", "lower"),
    ("harness.emit_s", "s", "lower"),
    ("analytic.estimate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{name}.{mode}", unit, better)
           for name, unit, better in MODE_METRICS for mode in MODES]
    return out + list(PLAIN_METRICS)


# Spans whose self time is reported as the metric "<span name>_s": per mode
# for spans inside an operation, without a mode for the others.
_MODE_SPANS = ("network.step", "network.arbitrate", "network.commit", "network.node_phase",
               "systolic.loop", "systolic.schedule", "systolic.operands", "systolic.oracle",
               "power.add_scaled")
_MODELESS_SPANS = ("workload.layer_db", "harness.run", "harness.emit", "analytic.estimate")


@dataclass
class OpRecord:
    """One finished simulated operation: ``mesh/model/layer/mode``."""

    key: str
    mode: str
    seconds: float
    stats: object          # gathernoc RunStats
    chunk: int | None      # index of the calibration chunk run just before


def op_key(layer, config, mode) -> str:
    mode = getattr(mode, "value", mode)
    return f"{config.rows}x{config.cols}/{layer.model}/{layer.layer}/{mode}"


class Tracer:
    """Spans of one repetition, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ops: list[OpRecord] = []
        self._stack: list[int] = []
        self._op: str | None = None
        # called before each operation, returning a value kept with it; the
        # host seconds it takes are summed in ``paused_s`` and left out of
        # the repetition
        self.before_op = None
        self.paused_s = 0.0

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.ops.clear()
        self.paused_s = 0.0

    def span(self, name: str, fn, cycles=None):
        """Wrap ``fn`` so each call records a span; ``cycles(args)`` is read
        before and after the call and its difference stored with the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, self._op, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            before = cycles(args) if cycles else 0
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                if cycles:
                    rec[CYCLES] = cycles(args) - before
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += rec[END] - rec[START]
        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` so its calls are counted per operation mode."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, _mode_of(self._op))] += 1
            return fn(*args, **kwargs)
        return wrapper

    def operation(self, fn):
        """Wrap ``run_convolution``: the span of one operation, whose
        statistics and host time are kept in ``ops``."""
        timed = self.span("systolic.loop", fn)

        def wrapper(layer, config, mode, *args, **kwargs):
            chunk = None
            if self.before_op is not None:
                t0 = time.perf_counter()
                chunk = self.before_op()
                self.paused_s += time.perf_counter() - t0
            key = op_key(layer, config, mode)
            outer, self._op = self._op, key
            t0 = time.perf_counter()
            try:
                stats = timed(layer, config, mode, *args, **kwargs)
            finally:
                self._op = outer
            self.ops.append(OpRecord(key, _mode_of(key), time.perf_counter() - t0, stats, chunk))
            return stats
        return wrapper


def _mode_of(op: str | None) -> str | None:
    return None if op is None else op.rsplit("/", 1)[1]


def _layer_targets():
    """(owner, attribute, span name, cycle reader) for a traced run."""
    from gathernoc import analytic, harness, network, power, systolic, workload

    net = network.MeshNetwork
    return [
        (workload, "builtin_layer_db", "workload.layer_db", None),
        (harness, "builtin_layer_db", "workload.layer_db", None),
        (harness, "run", "harness.run", None),
        (harness, "emit_results", "harness.emit", None),
        (harness, "improvement_pct", "analytic.estimate", None),
        (harness, "latency_gather", "analytic.estimate", None),
        (harness, "gather_collection_cycles", "analytic.estimate", None),
        (analytic.AnalyticParams, "for_run", "analytic.estimate", None),
        (systolic, "build_round_schedules", "systolic.schedule", None),
        (systolic, "round_accumulators", "systolic.operands", None),
        (systolic, "_check_oracle", "systolic.oracle", None),
        (power.ActivityCounters, "add_scaled", "power.add_scaled", None),
        # run_until_idle is the cycle loop; only step() advances the clock
        # inside it, so the clock delta is the number of cycles stepped
        (net, "run_until_idle", "network.step", lambda args: args[0].cycle),
        (net, "_arbitrate", "network.arbitrate", None),
        (net, "_commit", "network.commit", None),
        (net, "_node_phase", "network.node_phase", None),
    ]


@contextmanager
def instrumented(tracer: Tracer, layers: bool):
    """Install the operation wrapper, plus the layer spans if ``layers``.

    Yields the set of span names whose target no longer exists; the metrics
    built from them are reported absent.
    """
    from gathernoc import harness, systolic

    saved = []

    def patch(owner, attr, replacement) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    op_wrapper = tracer.operation(systolic.run_convolution)
    patch(systolic, "run_convolution", op_wrapper)
    patch(harness, "run_convolution", op_wrapper)
    missing: set[str] = set()
    if layers:
        for owner, attr, name, cycles in _layer_targets():
            if not hasattr(owner, attr):
                missing.add(name)
                continue
            patch(owner, attr, tracer.span(name, getattr(owner, attr), cycles))
        if hasattr(systolic, "partial_conv_oracle"):
            patch(systolic, "partial_conv_oracle",
                  tracer.count("oracle_checks", systolic.partial_conv_oracle))
        else:
            missing.add("oracle_checks")
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[tuple[str, str | None], float]:
    """Self seconds per (span name, mode): duration minus direct children."""
    out: dict = defaultdict(float)
    for rec in spans:
        out[(rec[NAME], _mode_of(rec[OP]))] += (rec[END] - rec[START] - rec[CHILD_NS]) / 1e9
    return out


def rep_layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                      missing: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    own = self_times(tracer.spans)
    inclusive: dict = defaultdict(float)
    calls: Counter = Counter()
    cycles: Counter = Counter()
    covered_ns = 0
    for rec in tracer.spans:
        key = (rec[NAME], _mode_of(rec[OP]))
        inclusive[key] += (rec[END] - rec[START]) / 1e9
        calls[key] += 1
        cycles[key] += rec[CYCLES]
        if rec[PARENT] < 0:
            covered_ns += rec[END] - rec[START]

    out: dict[str, float] = {}
    for span in _MODE_SPANS:
        if span not in missing:
            for mode in MODES:
                out[f"{span}_s.{mode}"] = own.get((span, mode), 0.0)
    for span in _MODELESS_SPANS:
        if span not in missing:
            out[f"{span}_s"] = sum((v for (name, _), v in own.items() if name == span), 0.0)

    for mode in MODES:
        ops = [op for op in tracer.ops if op.mode == mode]
        stats = [op.stats for op in ops]
        if "network.step" not in missing:
            steps = cycles[("network.step", mode)]
            out[f"network.steps.{mode}"] = steps
            out[f"network.step_us.{mode}"] = (
                inclusive[("network.step", mode)] / steps * 1e6 if steps else 0.0)
        out[f"network.flit_hops.{mode}"] = sum(s.counter_totals["link_traversal"] for s in stats)
        out[f"network.packets.{mode}"] = sum(s.packets for s in stats)
        out[f"network.timeout_packets.{mode}"] = sum(s.timeout_packets for s in stats)
        out[f"network.congestion_cycles.{mode}"] = sum(sum(s.delta_measured) for s in stats)
        rounds = sum(s.rounds for s in stats)
        out[f"systolic.rounds.{mode}"] = rounds
        if "network.step" not in missing:
            # one run_until_idle call per simulated round plus the final drain
            simulated = calls[("network.step", mode)] - len(ops)
            out[f"systolic.rounds_simulated.{mode}"] = simulated
            out[f"systolic.replay_ratio.{mode}"] = (rounds - simulated) / rounds if rounds else 0.0
        if "oracle_checks" not in missing:
            out[f"systolic.oracle_checks.{mode}"] = tracer.counts[("oracle_checks", mode)]
        if "power.add_scaled" not in missing:
            out[f"power.add_scaled_calls.{mode}"] = calls[("power.add_scaled", mode)]

    uncovered = wall_s - covered_ns / 1e9
    out["trace.overhead_s"] = (wall_s - untraced_wall_s) + uncovered
    return out


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over repetitions."""
    return {name: median(rep[name] for rep in reps) for name in reps[0]}
