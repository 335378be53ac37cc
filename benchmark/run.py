"""The bmvsim benchmark.

Run from the root of a bmvsim checkout:

    python3 benchmark/run.py --workload pinned --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 1

One single-threaded client drives ``bmvsim.cli.main(argv)`` in a closed loop
(one command in flight) over the workload's command mix, in an order the seed
decides, and checks every report against the golden digests in
``golden.json``.  ``verify-all`` is checked on every run but not timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics instead: an untraced window, then a traced
window of the same length (half of ``--seconds`` each) whose spans give each
layer's calls and self time, then the bit/anti-bit and observable-enumeration
scaling curves.  Human readable lines come first; the last line of standard
output is one JSON object.  Results and spans are also written under
``.bench_out/``.

``capture_golden.py`` records ``golden.json``; ``test_harness.py`` holds the
harness self-tests (``python3 -m pytest -q benchmark/test_harness.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed for setup_s, half before the timed window and half
# after it, so that one slow spell of a shared machine does not decide it.
# One more is started first, untimed, to warm the file and byte-code caches.
SETUP_SPAWNS = 12
SETUP_CODE = "import time\nimport bmvsim.cli\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"

# Scaling curves.  A point whose dense estimate does not fit in the available
# memory is skipped, and so is every point after one that hit the time cap.
BIT_ANTIBIT_KS = range(2, 9)
ENUMERATE_KS = range(1, 6)
POINT_CAP_S = 30.0
LIVE_MATRICES = 4
# The peak is the child's VmHWM: unlike ru_maxrss it is not carried over
# from the parent's image across exec.
POINT_CODE = """\
import time
from bmvsim.bit_antibit import run_bit_antibit_protocol
start = time.perf_counter()
run_bit_antibit_protocol({k})
wall = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(wall, peak_kb)
"""


@dataclass(frozen=True)
class Skipped:
    """A scaling point that was not run, and why."""

    reason: str


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_seconds(spawns: int) -> list[float]:
    """Wall times from spawning an interpreter to ``import bmvsim.cli`` returning."""
    samples = []
    for _ in range(spawns):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=child_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout) - start)
    return samples


# ---------------------------------------------------------------------------
# environment block


def blas() -> tuple[str, int | None]:
    """Name and version of numpy's BLAS, and its thread count if it reports one."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return name, None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "blas" in line.split()[-1].lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, getter()
    return name, None


def source_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def environment(seed: int) -> dict:
    import numpy as np

    blas_name, blas_threads = blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src.lines": source_lines(),
    }


# ---------------------------------------------------------------------------
# scaling curves


def available_bytes() -> int:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) * 1024
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def bit_antibit_curve() -> dict[str, object]:
    """Wall time and peak RSS of run_bit_antibit_protocol(k), each k in a fresh process."""
    points: dict[str, object] = {}
    skip = None
    for k in BIT_ANTIBIT_KS:
        name = f"bit_antibit.protocol.k{k}"
        estimate = (1 << (k + 4)) ** 2 * 16 * LIVE_MATRICES
        if skip is None and estimate > available_bytes():
            skip = f"dense estimate {estimate / 1e6:.0f} MB exceeds available memory"
        if skip is None:
            try:
                done = subprocess.run(
                    [sys.executable, "-c", POINT_CODE.format(k=k)],
                    env=child_env(), capture_output=True, text=True, check=True, timeout=POINT_CAP_S,
                )
            except subprocess.TimeoutExpired:
                skip = f"k={k} exceeded the {POINT_CAP_S:g} s cap"
            else:
                wall, peak_kb = done.stdout.split()
                points[f"{name}.wall_s"] = float(wall)
                points[f"{name}.peak_mb"] = int(peak_kb) / 1024
                continue
        points[f"{name}.wall_s"] = points[f"{name}.peak_mb"] = Skipped(skip)
    return points


def enumerate_curve(fermion_ssr) -> dict[str, object]:
    """Wall time of enumerate_physical_observables on a full k-mode register."""
    points: dict[str, object] = {}
    skip = None
    for k in ENUMERATE_KS:
        name = f"fermion_ssr.enumerate.k{k}.wall_s"
        if skip is not None:
            points[name] = Skipped(skip)
            continue
        start = time.perf_counter()
        fermion_ssr.enumerate_physical_observables(k, range(1, k + 1))
        points[name] = time.perf_counter() - start
        if points[name] > POINT_CAP_S:
            skip = f"k={k} exceeded the {POINT_CAP_S:g} s cap"
    return points


# ---------------------------------------------------------------------------
# runs


def plain_run(client: harness.Client, workload: str, seq, seconds: float) -> dict[str, float]:
    """End-to-end metrics, with tracing off."""
    import_seconds(1)
    setup = import_seconds(SETUP_SPAWNS // 2)
    for argv in harness.VERIFY_ALL:
        client.command(argv)
    client.warm_up(workload)
    window = client.window(seq, seconds)
    setup += import_seconds(SETUP_SPAWNS - len(setup))
    return {
        "setup_s": statistics.median(setup),
        "cmd_p50_ms": window.p50_ms,
        "cmds_per_s": window.cmds_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": 1.0 - client.tally.fail_ratio,
    }


def traced_run(client: harness.Client, workload: str, seq, seconds: float, spans_path: Path) -> dict[str, object]:
    """Per-layer metrics from a traced window, and the scaling curves.

    The measured time is split evenly between an untraced and a traced window.
    """
    client.warm_up(workload)
    untraced = client.window(seq, seconds / 2)
    with harness.Tracer() as tracer:
        for argv in harness.VERIFY_ALL:
            client.command(argv)
        traced = client.window(seq, seconds / 2)
    spans = tracer.spans
    spans_path.write_text(json.dumps([[s.name, s.start, s.end, s.parent] for s in spans]))

    metrics: dict[str, object] = harness.layer_metrics(spans, tracer.counters)
    pct, tail = harness.tail_latency(untraced.latencies)
    metrics["cli.cmd_tail_ms"] = tail * 1e3
    metrics["cli.cmd_tail_pct"] = pct
    metrics["cli.cmd_samples"] = len(untraced.latencies)
    metrics["trace.overhead_ratio"] = traced.cmds_per_s / untraced.cmds_per_s
    metrics.update(bit_antibit_curve())
    metrics.update(enumerate_curve(sys.modules["bmvsim.fermion_ssr"]))
    return metrics


def report(spec: list[dict], values: dict[str, object]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order, with their units."""
    metrics = {}
    for entry in spec:
        value = values[entry["name"]]
        if isinstance(value, Skipped):
            metrics[entry["name"]] = {"value": None, "unit": entry["unit"], "skipped": value.reason}
        else:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def run_workload(args) -> int:
    cli = harness.import_cli(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    client = harness.Client(cli, OUT_DIR / f"report-{os.getpid()}.out", harness.load_golden(), harness.Tally())
    seq = harness.rounds(args.workload, args.seed)
    env = environment(args.seed)
    try:
        if args.trace:
            values = traced_run(client, args.workload, seq, args.seconds, OUT_DIR / f"{stem}.spans.json")
            values["src.lines"] = env["src.lines"]
            metrics = report(spec["per_layer"], values)
        else:
            metrics = report(spec["end_to_end"], plain_run(client, args.workload, seq, args.seconds))
    finally:
        client.out_path.unlink(missing_ok=True)

    tally = client.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "environment": env, "fail_reasons": tally.reasons, "result": result},
        indent=2,
    ) + "\n")

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print("environment " + json.dumps(env))
    for name, metric in metrics.items():
        shown = metric.get("skipped") or f"{metric['value']:.6g} {metric['unit']}"
        print(f"  {name} = {shown}")
    print(f"  fail_ratio = {tally.fail_ratio:g} ({tally.failed} of {tally.attempted} checked commands)")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps(result))
    return 0


def run_all_workloads(args) -> int:
    """Every workload in its own process, so that peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
