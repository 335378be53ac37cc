"""Command-line interface: run a protocol, the tomography analyzer, or the
full acceptance suite, emitting deterministic JSON/CSV/text reports.

Exit codes: 0 all expectations met, 1 expectation mismatch, 2 usage error,
3 I/O error.  The tolerance defaults to 1e-10, may be set by the BMV_EPS
environment variable, and is overridden by --eps; it must lie in (0, 1e-6].
Reports contain no timestamps, so identical invocations produce identical
bytes.  Complex numbers serialize as [re, im] pairs and matrices as
row-major nested arrays.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .acceptance import (
    RUNNERS,
    local_product_basis,
    model_checks,
    nondecomposable_target,
    run_all,
)
from .fermion_ssr import count_scaling_check
from .ising_anyon import AnyonState
from .statecore import EPS, in_span
from .witness import ProtocolTrace, WitnessReport

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

MODELS = tuple(RUNNERS)

# `run bitantibit --mediator-bits k` costs what its report holds, 2k + 2
# mediator matrices of 4^k entries.  Peak RSS and wall time per command, json /
# text, on a 2-vCPU Xeon: k = 6 44 / 33 MiB, 0.37 / 0.33 s; k = 7 83 / 41 MiB,
# 0.52 / 0.34 s; k = 8 257 / 69 MiB, 1.25 / 0.31 s.  Above the 30 MiB of the
# interpreter the json peak grows about 4x per k, so k = 9 would take about
# 1 GiB, the memory budget: a larger k is rejected before it allocates.
MAX_MEDIATOR_BITS = 8


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def format_array(a, level: int | None = None) -> str:
    """A complex array as JSON nested lists of [re, im] pairs.

    With ``level`` None the bytes are those of compact ``json.dumps``; with an
    int they are those of ``json.dumps(..., indent=2)`` for an array that sits
    ``level`` containers deep.  Each distinct float64 bit pattern is formatted
    once by json itself (so -0.0, NaN and Infinity match); protocol values are
    exact rationals or multiples of 1/sqrt(2), so there are only a few.
    """
    a = np.asarray(a, dtype=complex)
    values = np.stack((a.real, a.imag), axis=-1)
    shape, rank = values.shape, values.ndim
    flat = values.reshape(-1).view(np.uint64)
    bits = np.unique(flat)
    texts = np.array([json.dumps(x) for x in bits.view(np.float64).tolist()], dtype=object)
    # After element i, `closing[i]` axes end: its pair, then its row, ...
    closing = np.zeros(values.size, dtype=np.uint8)
    block = 1
    for length in reversed(shape):
        block *= length
        closing[block - 1 :: block] += 1
    if level is None:
        comma, pad = ", ", [""] * (rank + 1)
    else:
        comma, pad = ",", ["\n" + "  " * (level + depth) for depth in range(rank + 1)]

    def opens(depth: int) -> str:
        return "".join("[" + pad[d + 1] for d in range(depth, rank))

    def closes(depth: int) -> str:
        return "".join(pad[d] + "]" for d in reversed(range(depth, rank)))

    # seps[c] follows an element after which c axes end; only the last ends all
    seps = [closes(rank - c) + comma + pad[rank - c] + opens(rank - c) for c in range(rank)]
    seps.append(closes(0))
    out = np.empty(2 * values.size, dtype=object)
    out[0::2] = texts[np.searchsorted(bits, flat)]  # cheaper than unique's return_inverse
    out[1::2] = np.array(seps, dtype=object)[closing]
    return opens(0) + "".join(out.tolist())


def _witness_dict(report: WitnessReport) -> dict:
    return {
        "purity": report.purity,
        "uncorrelated": report.uncorrelated,
        "entangled": report.entangled,
        "violating_pair": list(report.violating_pair) if report.violating_pair else None,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "max_violation": report.max_violation,
        "correlations": [
            [row.index_a, row.index_b, row.expect_a, row.expect_b, row.expect_product]
            for row in report.correlations
        ],
    }


def _state_dict(state) -> dict:
    if isinstance(state, AnyonState):
        return {"partition": state.shape.value, "amplitudes": state.amps}
    return {"amplitudes": state}


# ---------------------------------------------------------------------------
# report builders


def build_run_report(trace: ProtocolTrace, eps: float, trace_steps: bool) -> dict:
    checks = model_checks(trace, eps)
    steps = []
    for step in trace.steps:
        entry: dict = {"label": step.label}
        if trace_steps:
            entry["state"] = _state_dict(step.state)
            entry["matter"] = step.matter
        steps.append(entry)
    return {
        "meta": {"tool": "bmvsim", "version": __version__, "eps": eps},
        "model": trace.model,
        "steps": steps,
        "mediator_states": np.stack([step.mediator for step in trace.steps]),
        "marginals": {"rho_q1": trace.summary["rho_q1"], "rho_q2": trace.summary["rho_q2"]},
        "witness": _witness_dict(trace.report),
        "expected": [
            {"name": c.name, "expected": c.expected, "actual": c.actual, "pass": c.passed}
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
    }


def build_tomography_report(k_max: int, eps: float) -> dict:
    rows = count_scaling_check(k_max)
    decomposable, residual = in_span(nondecomposable_target(), local_product_basis(), eps)
    counts_ok = all(match for *_, match in rows)
    passed = counts_ok and (not decomposable) and residual > eps
    return {
        "meta": {"tool": "bmvsim", "version": __version__, "eps": eps},
        "command": "tomography",
        "counts": [
            {"k": k, "count": count, "expected": expected, "match": match}
            for k, count, expected, match in rows
        ],
        "span_check": {
            "observable": "pair annihilator + pair creator on modes 2,3 of 5",
            "residual": residual,
            "decomposable": decomposable,
        },
        "pass": passed,
    }


def build_verify_report(eps: float) -> dict:
    results = run_all(eps)
    return {
        "meta": {"tool": "bmvsim", "version": __version__, "eps": eps},
        "command": "verify-all",
        "criteria": [
            {"index": r.index, "name": r.name, "pass": r.passed, "detail": r.detail}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------
# rendering


def _holds_array(value) -> bool:
    if isinstance(value, (dict, list, tuple)):
        return any(map(_holds_array, value.values() if isinstance(value, dict) else value))
    return isinstance(value, np.ndarray)


def _dump(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` for a value ``level`` containers deep."""
    if isinstance(value, np.ndarray):
        return format_array(value, level)
    if not _holds_array(value):
        # json escapes newlines in strings: each one it writes starts an indented line
        return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)
    if isinstance(value, dict):
        items = (f"{json.dumps(key)}: {_dump(sub, level + 1)}" for key, sub in value.items())
        first, last = "{", "}"
    else:
        items = (_dump(sub, level + 1) for sub in value)
        first, last = "[", "]"
    pad = "\n" + "  " * (level + 1)
    return first + pad + ("," + pad).join(items) + "\n" + "  " * level + last


def render_json(report: dict) -> str:
    return _dump(report, 0) + "\n"


def _csv_rows(report: dict) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, sub in enumerate(value):
                walk(f"{prefix}[{i}]", sub)
        else:
            text = format_array(value) if isinstance(value, np.ndarray) else json.dumps(value)
            rows.append((prefix.split(".")[0], prefix, text))

    walk("", report)
    return rows


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["section", "key", "value"])
    writer.writerows(_csv_rows(report))
    return buf.getvalue()


def render_text(report: dict) -> str:
    lines = [f"bmvsim {report['meta']['version']} (eps={report['meta']['eps']:g})"]
    if "model" in report:
        lines.append(f"model: {report['model']}")
        lines.append(f"steps: {', '.join(step['label'] for step in report['steps'])}")
        w = report["witness"]
        lines.append(
            f"witness: purity={w['purity']:.10g} uncorrelated={w['uncorrelated']} entangled={w['entangled']}"
        )
        if w["violating_pair"]:
            lines.append(
                f"  max violation at pair {tuple(w['violating_pair'])}: lhs={w['lhs']:.10g} rhs={w['rhs']:.10g}"
            )
        for check in report["expected"]:
            status = "PASS" if check["pass"] else "FAIL"
            lines.append(f"[{status}] {check['name']}: expected {check['expected']}, actual {check['actual']}")
    elif report.get("command") == "tomography":
        lines.append("k  count  2^(2k-1)  match")
        for row in report["counts"]:
            lines.append(f"{row['k']}  {row['count']}  {row['expected']}  {row['match']}")
        sc = report["span_check"]
        lines.append(f"span residual: {sc['residual']:.10g} (decomposable={sc['decomposable']})")
    elif report.get("command") == "verify-all":
        for crit in report["criteria"]:
            status = "PASS" if crit["pass"] else "FAIL"
            lines.append(f"[{status}] {crit['index']:2d} {crit['name']}: {crit['detail']}")
    lines.append("RESULT: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def _emit(report: dict, fmt: str, out: str | None) -> int:
    """Write the report; the exit code says whether it was written and passed."""
    text = RENDERERS[fmt](report)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if report["pass"] else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument handling


def _resolve_eps(value: float | None) -> float:
    if value is None:
        env = os.environ.get("BMV_EPS")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise UsageError(f"BMV_EPS is not a number: {env!r}") from None
    if value is None:
        return EPS
    if not (0.0 < value <= 1e-6):
        raise UsageError(f"eps must lie in (0, 1e-6], got {value:g}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmvsim",
        description="Simulate entanglement mediation by locally classical mediators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one mediation protocol and check its expectations")
    run.add_argument("model_pos", nargs="?", choices=MODELS, metavar="model",
                     help="fermion | anyon | bitantibit")
    run.add_argument("--model", choices=MODELS, dest="model_flag")
    run.add_argument("--mediator-bits", type=int, default=None,
                     help=f"mediator register size (bitantibit only, 2 to {MAX_MEDIATOR_BITS}, default 2)")
    run.add_argument("--format", choices=sorted(RENDERERS), default="text")
    run.add_argument("--out", default=None, help="write the report to this path")
    run.add_argument("--trace-steps", action="store_true", help="include per-step states")
    run.add_argument("--eps", type=float, default=None)

    tomo = sub.add_parser("tomography", help="observable counting and the span analyzer")
    tomo.add_argument("--k-max", type=int, default=4)
    tomo.add_argument("--format", choices=sorted(RENDERERS), default="text")
    tomo.add_argument("--out", default=None)
    tomo.add_argument("--eps", type=float, default=None)

    verify = sub.add_parser("verify-all", help="run every acceptance criterion")
    verify.add_argument("--format", choices=sorted(RENDERERS), default="text")
    verify.add_argument("--out", default=None)
    verify.add_argument("--eps", type=float, default=None)

    return parser


def cmd_run(args) -> int:
    if (args.model_pos is None) == (args.model_flag is None):
        raise UsageError("give the model exactly once (positionally or via --model)")
    model = args.model_pos or args.model_flag
    options = {}
    if args.mediator_bits is not None:
        if model != "bitantibit":
            raise UsageError("--mediator-bits applies to the bitantibit model only")
        if args.mediator_bits < 2:
            raise UsageError("--mediator-bits must be at least 2")
        if args.mediator_bits > MAX_MEDIATOR_BITS:
            raise UsageError(
                f"--mediator-bits must be at most {MAX_MEDIATOR_BITS}: the report would "
                "need more than 1 GiB"
            )
        options["mediator_bits"] = args.mediator_bits
    eps = _resolve_eps(args.eps)
    try:
        trace = RUNNERS[model](eps=eps, **options)
        report = build_run_report(trace, eps, args.trace_steps)
    except ValueError as exc:
        print(f"expectation failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    return _emit(report, args.format, args.out)


def cmd_tomography(args) -> int:
    if args.k_max > 5:
        raise UsageError("state space too large: k_max must be at most 5")
    if args.k_max < 1:
        raise UsageError("k_max must be at least 1")
    eps = _resolve_eps(args.eps)
    return _emit(build_tomography_report(args.k_max, eps), args.format, args.out)


def cmd_verify_all(args) -> int:
    eps = _resolve_eps(args.eps)
    return _emit(build_verify_report(eps), args.format, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "tomography":
            return cmd_tomography(args)
        return cmd_verify_all(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
