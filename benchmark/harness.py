"""Building blocks of the bmvsim benchmark: command mixes, the output check,
the closed-loop client, and the span tracer with its self-time arithmetic.

Everything here drives ``bmvsim.cli.main(argv)`` in-process and observes the
library from outside; nothing under ``src/`` is modified.  ``run.py`` is the
entry point.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

MODELS = ("fermion", "anyon", "bitantibit")
FORMATS = ("json", "csv", "text")

# Each workload is a fixed set of argv lists; the seed only decides the order
# in which a round visits them.  Rounds are always completed, so every
# command appears equally often and the median cannot flip between the
# cheap and the expensive members of a mix.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Per-call Python cost of the three small pinned protocols.
    "pinned": tuple(
        ("run", model, "--format", fmt, *steps)
        for model in MODELS
        for fmt in FORMATS
        for steps in ((), ("--trace-steps",))
    ),
    # Dense 2^8 x 2^8 gates and reductions plus 2^6 x 2^6 mediator reports.
    "large-mediator": tuple(
        ("run", "bitantibit", "--mediator-bits", "6", "--format", fmt) for fmt in FORMATS
    ),
    # Observable enumeration (Gram-Schmidt) and the span analyzer.
    "tomography": tuple(("tomography", "--k-max", "5", "--format", fmt) for fmt in FORMATS),
}

# Checked on every run but never timed: its 0.15 s commands would make any
# workload's median bimodal.
VERIFY_ALL = tuple(("verify-all", "--format", fmt) for fmt in FORMATS)

# What the end of a passing report looks like in each format.
PASS_SUFFIX = {
    "json": b'"pass": true\n}\n',
    "csv": b"pass,pass,true\r\n",
    "text": b"RESULT: PASS\n",
}


def import_cli(root: Path):
    """Import ``bmvsim.cli`` from ``root/src``, and from nowhere else."""
    src = root / "src"
    if not (src / "bmvsim" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/bmvsim not found; run from the root of a bmvsim checkout")
    sys.path.insert(0, str(src))
    import bmvsim.cli

    if Path(bmvsim.cli.__file__).resolve().parent != (src / "bmvsim").resolve():
        raise SystemExit(f"error: bmvsim was imported from {bmvsim.cli.__file__}, not {src}")
    return bmvsim.cli


def command_key(argv) -> str:
    return " ".join(argv)


def rounds(workload: str, seed: int):
    """Endless seeded sequence of rounds, each a permutation of the mix."""
    mix = list(WORKLOADS[workload])
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.sample(mix, len(mix))


# ---------------------------------------------------------------------------
# output check


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_output(argv, code: int, data: bytes, golden: dict[str, str]) -> str | None:
    """None if the command's report is right, otherwise why it is not."""
    if code != 0:
        return f"exit code {code}"
    fmt = argv[argv.index("--format") + 1]
    if not data.endswith(PASS_SUFFIX[fmt]):
        return "report does not pass"
    want = golden.get(command_key(argv))
    if want is None:
        return "no golden report"
    if digest(data) != want:
        return "report differs from golden bytes"
    return None


@dataclass
class Tally:
    """Checked commands and the ones that failed the output check."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, argv, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{command_key(argv)}: {reason}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# the closed loop


class Client:
    """One client with one command in flight; every report is checked."""

    def __init__(self, cli, out_path: Path, golden: dict[str, str], tally: Tally):
        self.cli = cli
        self.out_path = out_path
        self.golden = golden
        self.tally = tally

    def command(self, argv) -> float:
        """Run one command, check its report, and return its wall time in s."""
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            # Looked up on every call so that the tracer's shim is used.
            code = self.cli.main([*argv, "--out", str(self.out_path)])
        except Exception as exc:  # a crash is a failed command, not a stop
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.tally.record(argv, f"raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        self.tally.record(argv, check_output(argv, code, data, self.golden))
        return elapsed

    def warm_up(self, workload: str) -> None:
        """One untimed pass over the mix, in its listed order.

        The first commands of a process run slower while the allocator's
        thresholds settle.  A fixed pass, not a time budget, keeps the
        allocation history and so the peak RSS the same from run to run.
        """
        for argv in WORKLOADS[workload]:
            self.command(argv)

    def window(self, seq, seconds: float) -> Window:
        """Whole rounds from ``seq`` until ``seconds`` have passed."""
        window = Window([], [])
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            round_start = time.perf_counter()
            window.latencies.extend(self.command(argv) for argv in next(seq))
            window.rounds.append(time.perf_counter() - round_start)
        return window


@dataclass
class Window:
    latencies: list[float]  # wall time of each command, in s
    rounds: list[float]  # wall time of each round, in s; every round is the whole mix

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3

    @property
    def cmds_per_s(self) -> float:
        """Throughput of the median round.

        A median over rounds rather than a count over the whole window, so
        that a slow spell on a shared machine moves it no more than it moves
        the median command time.
        """
        return len(self.latencies) / len(self.rounds) / statistics.median(self.rounds)


# Lowest to highest; the tail is the highest one with >= 10 samples beyond it.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies, and the median is
    reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            chosen = pct
    if chosen == 50.0:
        return chosen, statistics.median(ordered)
    rank = min(n - 1, int(n * chosen / 100.0))
    return chosen, ordered[rank]


# ---------------------------------------------------------------------------
# tracing


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def _out_mb(args, result) -> float:
    # Array results: bytes from the array size; rendered reports are ASCII,
    # so their length in characters is their length in bytes.
    size = result.nbytes if hasattr(result, "nbytes") else len(result)
    return size / 1e6


# Public functions timed by the traced run, per module, with the extra
# counters taken from their arguments or results.  The end-to-end metric
# each should move, and on which workload:
#   statecore    cmds_per_s, cmd_p50_ms, peak_rss_mb on large-mediator;
#                in_span on tomography; flat on pinned
#   bit_antibit  cmds_per_s, peak_rss_mb on large-mediator
#   witness      cmd_p50_ms, cmds_per_s on pinned; flat elsewhere
#   fermion_ssr  cmd_p50_ms on tomography; swaps and traces on pinned
#   ising_anyon  pinned only
#   acceptance   cmd_p50_ms on pinned (model_checks); run_all via verify-all
#   cli          cmds_per_s on large-mediator (json rendering), then pinned
TRACED: dict[str, dict[str, tuple | None]] = {
    "statecore": {
        "partial_trace": ("in_mb", lambda args, result: args[0].nbytes / 1e6),
        "dyad": ("out_mb", _out_mb),
        "tensor": None,
        "in_span": None,
        "is_density": None,
    },
    "bit_antibit": {
        "swap_bits": ("out_mb", _out_mb),
        "validate_state": None,
        "run_bit_antibit_protocol": None,
    },
    "witness": {
        "uncorrelated_test": ("pairs", lambda args, result: len(result.correlations)),
        "purity": None,
    },
    "fermion_ssr": {
        "fermionic_swap": None,
        "fermionic_partial_trace": None,
        "word_matrix": None,
        "enumerate_physical_observables": ("kept", lambda args, result: len(result)),
        "count_scaling_check": None,
        "run_fermion_protocol": None,
    },
    "ising_anyon": {"change_partition": None, "trace_mediator": None, "run_anyon_protocol": None},
    "acceptance": {"model_checks": None, "run_all": None},
    "cli": {
        "main": None,
        "build_run_report": None,
        "build_tomography_report": None,
        "render_json": ("out_mb", _out_mb),
        "render_csv": ("out_mb", _out_mb),
        "render_text": None,
    },
}


class Tracer:
    """Timing shims around the TRACED functions, installed from outside.

    Modules bind functions by name (``from .statecore import partial_trace``)
    and ``cli.RENDERERS`` holds the renderers by value, so every module
    attribute and every dict entry holding the original function object is
    replaced, and restored on exit.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def shim(self, name: str, fn, stat=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if stat is not None:
                key = f"{name}.{stat[0]}"
                counters[key] = counters.get(key, 0.0) + stat[1](args, result)
            return result

        return traced

    def __enter__(self):
        package = [mod for key, mod in sys.modules.items() if key == "bmvsim" or key.startswith("bmvsim.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"bmvsim.{module_name}"]
            for fn_name, stat in functions.items():
                original = getattr(module, fn_name)
                wrapped = self.shim(f"{module_name}.{fn_name}", original, stat)
                for mod in package:
                    self._replace(vars(mod), original, wrapped)
                    for value in list(vars(mod).values()):
                        if isinstance(value, dict):
                            self._replace(value, original, wrapped)
        return self

    def _replace(self, namespace: dict, original, wrapped) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                self._undo.append((namespace, key, value))
                namespace[key] = wrapped

    def __exit__(self, *exc):
        for namespace, key, value in reversed(self._undo):
            namespace[key] = value
        self._undo.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted((spans[c] for c in children.get(index, ())), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((span.end - span.start) - covered)
    return result


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """``<module>.<function>.{calls,self_s}`` plus the shims' counters."""
    metrics: dict[str, float] = {}
    for module_name, functions in TRACED.items():
        for fn_name, stat in functions.items():
            name = f"{module_name}.{fn_name}"
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
            if stat is not None:
                metrics[f"{name}.{stat[0]}"] = counters.get(f"{name}.{stat[0]}", 0.0)
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += own
    # Observables kept by the Gram-Schmidt sweep per candidate word built.
    enumerate_name = "fermion_ssr.enumerate_physical_observables"
    words = sum(
        1
        for span in spans
        if span.name == "fermion_ssr.word_matrix"
        and span.parent >= 0
        and spans[span.parent].name == enumerate_name
    )
    kept = metrics.pop(f"{enumerate_name}.kept")
    metrics[f"{enumerate_name}.kept_per_word"] = kept / words if words else 0.0
    return metrics
