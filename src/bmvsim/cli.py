"""Command-line interface: run a protocol, the tomography analyzer, or the
full acceptance suite, emitting deterministic JSON/CSV/text reports.

Exit codes: 0 all expectations met, 1 expectation mismatch, 2 usage error,
3 I/O error; a crash raises out of ``main``, a traceback and no report.  The
tolerance defaults to 1e-10, may be set by the BMV_EPS environment variable,
and is overridden by --eps; it must lie in [1e-12, 1e-6], since below
``statecore.EPS_MIN`` = 1e-12 rounding would decide the verdicts.  Reports
contain no timestamps, so identical invocations produce identical bytes.
Complex numbers serialize as [re, im] pairs and matrices as row-major nested
arrays.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from bisect import bisect_left
from collections.abc import Iterator
from functools import cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .acceptance import RUNNERS, model_checks, run_all, span_check
from .fermion_ssr import MAX_COUNT_MODES, count_scaling_check
from .ising_anyon import AnyonState
from .statecore import EPS, EPS_MIN
from .witness import CorrelationTable, ProtocolTrace, WitnessReport

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

MODELS = tuple(RUNNERS)

# `run bitantibit --mediator-bits k` holds 2k + 2 dense mediator matrices of
# 4^k complex entries, one zero-filled stack written only at the support's
# entries.  Its report is streamed to its destination, so json, csv and text
# peak alike, at what the protocol holds.  Peak RSS and wall time per command,
# json / csv / text, fresh process, median of 5 (3 at k = 9), on a 2-vCPU
# Xeon: k = 8 52 / 52 / 52 MiB, 0.16 / 0.16 / 0.18 s; k = 9 89 / 85 / 85 MiB,
# 0.23 / 0.20 / 0.18 s.  k = 10 would hold a stack of about 350 MiB (22
# matrices of 16 MiB) and write a json file of about 1 GiB (4x the 262 MB of
# k = 9): a larger k is rejected before it allocates.
MAX_MEDIATOR_BITS = 9


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


@cache
def _separators(shape: tuple[int, ...], level: int | None) -> tuple[str, tuple[str, ...]]:
    """JSON nested lists for a row-major array of ``shape``, ``level``
    containers deep (None: compact): the text before its first element and
    the text after each element.  Computed once per (shape, level) and
    shared by every caller, so the separators are a tuple."""
    rank = len(shape)
    if level is None:
        comma, pad = ", ", [""] * (rank + 1)
    else:
        comma, pad = ",", ["\n" + "  " * (level + depth) for depth in range(rank + 1)]
    # After element i, `closing[i]` axes end: its innermost list, then the next ...
    closing = [0]
    for length in reversed(shape):
        closing *= length
        closing[-1] += 1

    def opens(depth: int) -> str:
        return "".join("[" + pad[d + 1] for d in range(depth, rank))

    def closes(depth: int) -> str:
        return "".join(pad[d] + "]" for d in reversed(range(depth, rank)))

    # seps[c] follows an element after which c axes end; only the last ends all
    seps = [closes(rank - c) + comma + pad[rank - c] + opens(rank - c) for c in range(rank)]
    seps.append(closes(0))
    return opens(0), tuple(seps[c] for c in closing)


def _interleave(head: str, items: list[str], seps: tuple[str, ...]) -> list[str]:
    parts = [head] * (2 * len(items) + 1)
    parts[1::2] = items
    parts[2::2] = seps
    return parts


# The report values that only the json and csv renderers turn into text.
_ARRAYS = (np.ndarray, CorrelationTable)


def _array_parts(a, level: int | None, texts: dict) -> list[str]:
    """A complex array of rank >= 1 as JSON nested lists of [re, im] pairs, or
    a correlation table as its JSON rows (``_table_parts``), in pieces.

    With ``level`` None the joined pieces are the bytes of compact
    ``json.dumps``; with an int they are those of ``json.dumps(..., indent=2)``
    for an array that sits ``level`` containers deep.  The leaf is one row of
    the last axis, read as the bits of its interleaved re, im floats from a
    uint64 view of the array: each distinct row, keyed by those bits (so -0.0 and
    0.0, and NaN payloads, stay apart), is formatted once, its floats written by
    json itself, and the rows are joined with the separators of the outer axes.
    Protocol matrices are sparse with exact rational or 1/sqrt(2) entries: most
    rows are all +0.0, found by one test of their bits, and share one text, and
    the others repeat, also across matrices, as a caller passes one ``texts``
    dict to the calls for all arrays of a report.
    """
    if isinstance(a, CorrelationTable):
        return _table_parts(a, level)
    a = np.ascontiguousarray(a, dtype=complex)
    rank = a.ndim - 1  # axes outside a row
    rows = a.view(np.uint64).reshape(-1, 2 * a.shape[-1])  # each row's re, im float64 bits
    row_level = None if level is None else level + rank
    row_head, row_seps = _separators((a.shape[-1], 2), row_level)
    # a row's text depends only on its level and its bytes, whose count fixes its length
    known = texts.setdefault(row_level, {})
    # the rows with no bit set, all +0.0, share one text; only the others are keyed
    picks = rows.any(axis=1).nonzero()[0].tolist()
    zero = _row_text(bytes(8 * rows.shape[1]), known, row_head, row_seps) if len(picks) < len(rows) else ""
    leaves = [zero] * len(rows)
    for i in picks:
        leaves[i] = _row_text(rows[i].tobytes(), known, row_head, row_seps)
    head, seps = _separators(a.shape[:rank], level)
    return _interleave(head, leaves, seps)


def _row_text(key: bytes, known: dict, head: str, seps: tuple[str, ...]) -> str:
    """The JSON text of the row whose float64 bytes are ``key``, formatted once per key."""
    text = known.get(key)
    if text is None:
        # json writes no ", " inside a float
        floats = json.dumps(np.frombuffer(key).tolist())[1:-1].split(", ")
        text = known[key] = "".join(_interleave(head, floats, seps))
    return text


def _table_parts(table: CorrelationTable, level: int | None) -> list[str]:
    """The correlation table as the JSON rows [i, j, Tr(A_i rho), Tr(B_j rho),
    Tr(A_i B_j rho)], in pieces laid out as ``_array_parts`` lays out an
    array.  Every number is written by one json.dumps call, each expectation
    of one set once."""
    na, nb = table.expect_product.shape
    if not na * nb:
        return ["[]"]
    count = max(na, nb)
    numbers = [*range(count), *table.expect_a.tolist(), *table.expect_b.tolist()]
    numbers += table.expect_product.ravel().tolist()
    # json writes no ", " inside a number
    texts = np.array(json.dumps(numbers)[1:-1].split(", "), dtype=object)
    pair = np.arange(na * nb)
    i, j = np.divmod(pair, nb)
    cells = texts[np.stack((i, j, count + i, count + na + j, count + na + nb + pair), axis=1)]
    head, seps = _separators(cells.shape, level)
    return _interleave(head, cells.ravel().tolist(), seps)


def _witness_dict(report: WitnessReport) -> dict:
    return {
        "purity": report.purity,
        "uncorrelated": report.uncorrelated,
        "entangled": report.entangled,
        "violating_pair": list(report.violating_pair) if report.violating_pair else None,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "max_violation": report.max_violation,
        "correlations": report.correlations,
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
        "mediator_states": [step.mediator for step in trace.steps],
        "marginals": {"rho_q1": trace.marginals[0], "rho_q2": trace.marginals[1]},
        "witness": _witness_dict(trace.report),
        "expected": checks,
        "pass": all(c["pass"] for c in checks),
    }


def build_tomography_report(k_max: int, eps: float) -> dict:
    rows = count_scaling_check(k_max)
    decomposable, residual, span_ok = span_check(eps)
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
        "pass": all(match for *_, match in rows) and span_ok,
    }


def build_verify_report(eps: float) -> dict:
    criteria = run_all(eps)
    return {
        "meta": {"tool": "bmvsim", "version": __version__, "eps": eps},
        "command": "verify-all",
        "criteria": criteria,
        "pass": all(c["pass"] for c in criteria),
    }


# ---------------------------------------------------------------------------
# rendering


def _scalar_text(value) -> str:
    """``json.dumps(value)``, written as json writes it without a call of its
    own for the scalars a report holds: a str by json's ASCII escaper, an
    exact int or a finite exact float by its repr, and True, False and None
    by name.  Anything else, a NaN or infinite float, a numpy scalar, a list,
    or a type json refuses, goes to ``json.dumps``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _json_parts(value, level: int | None, texts: dict, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out`` in pieces: the bytes of
    ``json.dumps(value, indent=2)`` for a value ``level`` containers deep, or
    with ``level`` None those of compact ``json.dumps``.  Arrays and
    correlation tables are written by ``_array_parts``, which shares ``texts``
    among them; tuples are written as lists, a key that is not a string is
    refused, and any other value is written by ``_scalar_text``.  It recurses
    as a module function: a nested function that calls itself is a reference
    cycle."""
    if isinstance(value, _ARRAYS):
        out += _array_parts(value, level, texts)
    elif isinstance(value, (dict, list, tuple)) and value:
        is_dict = isinstance(value, dict)
        if is_dict and not all(isinstance(key, str) for key in value):
            raise TypeError(f"report keys must be str: {list(value)!r}")
        inner = None if level is None else level + 1
        pad = "" if level is None else "\n" + "  " * inner
        lead = ("{" if is_dict else "[") + pad
        for key, item in value.items() if is_dict else enumerate(value):
            out.append((lead + encode_basestring_ascii(key) + ": ") if is_dict else lead)
            _json_parts(item, inner, texts, out)
            lead = ", " if level is None else "," + pad
        out.append(("" if level is None else "\n" + "  " * level) + ("}" if is_dict else "]"))
    else:
        out.append(_scalar_text(value))


def render_json(report: dict) -> list[str]:
    """``json.dumps(report, indent=2)`` in pieces, the arrays of one report
    sharing their row texts."""
    out: list[str] = []
    _json_parts(report, 0, {}, out)
    out.append("\n")
    return out


def _csv_rows(value, texts: dict, prefix: str = "") -> Iterator[tuple[str, str, list[str]]]:
    """The (section, key, value pieces) rows of a report, its array cells
    sharing the row texts ``texts``.  It recurses as a module function: a
    nested function that calls itself is a reference cycle, which would keep
    each report's rows alive until a gc pass."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _csv_rows(sub, texts, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, sub in enumerate(value):
            yield from _csv_rows(sub, texts, f"{prefix}[{i}]")
    else:
        yield prefix.split(".")[0], prefix, _cell_parts(value, texts)


def _cell_parts(value, texts: dict) -> list[str]:
    """The compact json text of a value, in pieces: an array or a list of
    arrays, such as the mediator states, in those of ``_json_parts``, and one
    piece for any other json value."""
    items = value if isinstance(value, list) and value else [value]
    if all(isinstance(item, _ARRAYS) for item in items):
        parts: list[str] = []
        _json_parts(value, None, texts, parts)
        return parts
    return [_scalar_text(value)]


def _csv_quote(cell: str) -> str:
    """A cell under the excel dialect's minimal quoting: one that holds a
    comma, a quote or a line break is quoted, with its quotes doubled."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_line(section: str, key: str, value: list[str]) -> list[str]:
    """One record in pieces.  A value of more than one piece is an array's
    text, which never holds a quote or a line break: it is quoted as it
    stands, if it holds a comma."""
    if len(value) == 1:
        value = [_csv_quote(value[0])]
    elif any("," in piece for piece in value):
        value = ['"', *value, '"']
    return [_csv_quote(section), ",", _csv_quote(key), ",", *value, "\r\n"]


def render_csv(report: dict) -> list[str]:
    """The report as csv records in pieces, the arrays of one report sharing
    their row texts, as in ``render_json``."""
    out = ["section,key,value\r\n"]
    for row in _csv_rows(report, {}):
        out += _csv_line(*row)
    return out


def render_text(report: dict) -> list[str]:
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
    return [line + "\n" for line in lines]


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


# Reports are written in chunks of at least this many characters, joined from
# the renderer's pieces: the text layer encodes what it is given in one piece,
# so neither the report text nor an encoded copy of it is ever held whole.
# Writing the k = 6 json report (2.9 MB, render included, median of 60 on a
# 2-vCPU Xeon) took 6.1 / 5.1 / 4.2 / 3.7 / 5.9 ms in chunks of 4 KiB / 16 KiB /
# 64 KiB / 256 KiB / 1 MiB.  256 KiB saves about 0.5 ms there, but a chunk
# of 64 KiB holds fewer than 64 Ki characters plus the longest piece (a 25.6 K
# row at k = 9 json): below malloc's 128 KiB threshold for a fresh mapping.
_WRITE_SLICE = 1 << 16


def _chunks(pieces: list[str], size: int) -> Iterator[str]:
    """The joined text of ``pieces`` in chunks, each ending with the first piece
    that brings it to ``size`` characters (a bisection on the running lengths),
    and the rest last.  No chunk is empty, and each but the last holds at least
    ``size`` characters and fewer than ``size`` plus the longest piece."""
    ends = [0, *accumulate(map(len, pieces))]  # ends[i]: the length of pieces[:i]
    start = 0
    while ends[start] < ends[-1]:
        stop = min(bisect_left(ends, ends[start] + size, start + 1), len(pieces))
        yield "".join(pieces[start:stop])
        start = stop


def _emit(report: dict, fmt: str, out: str | None) -> int:
    """Write the report; the exit code says whether it was written and passed.
    The report is rendered whole before the first write, so a render error
    writes nothing."""
    chunks = _chunks(RENDERERS[fmt](report), _WRITE_SLICE)
    try:
        if out is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if out is None:
            # what stdout still buffers goes nowhere, so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
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
    if not (EPS_MIN <= value <= 1e-6):
        raise UsageError(f"eps must lie in [{EPS_MIN:g}, 1e-6], got {value:g}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in
    it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="bmvsim",
        description="Simulate entanglement mediation by locally classical mediators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=sorted(RENDERERS), default="text")
    report.add_argument("--out", default=None, help="write the report to this path")
    report.add_argument("--eps", type=float, default=None,
                        help=f"tolerance of every verdict ({EPS_MIN:g} to 1e-6, default {EPS:g})")

    run = sub.add_parser("run", parents=[report],
                         help="run one mediation protocol and check its expectations")
    run.add_argument("model_pos", nargs="?", choices=MODELS, metavar="model",
                     help="fermion | anyon | bitantibit")
    run.add_argument("--model", choices=MODELS, dest="model_flag")
    run.add_argument("--mediator-bits", type=int, default=None,
                     help=f"mediator register size (bitantibit only, 2 to {MAX_MEDIATOR_BITS}, default 2)")
    run.add_argument("--trace-steps", action="store_true", help="include per-step states")

    tomo = sub.add_parser("tomography", parents=[report], help="observable counting and the span analyzer")
    tomo.add_argument("--k-max", type=int, default=4, help=f"largest register size (1 to {MAX_COUNT_MODES}, default 4)")

    sub.add_parser("verify-all", parents=[report], help="run every acceptance criterion")
    return parser


def cmd_run(args) -> dict:
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
                f"--mediator-bits must be at most {MAX_MEDIATOR_BITS}: at k = 10 the "
                "mediators would hold about 350 MiB, and a json report about 1 GiB"
            )
        options["mediator_bits"] = args.mediator_bits
    eps = _resolve_eps(args.eps)
    return build_run_report(RUNNERS[model](eps=eps, **options), eps, args.trace_steps)


def cmd_tomography(args) -> dict:
    if args.k_max > MAX_COUNT_MODES:
        raise UsageError(f"state space too large: k_max must be at most {MAX_COUNT_MODES}")
    if args.k_max < 1:
        raise UsageError("k_max must be at least 1")
    return build_tomography_report(args.k_max, _resolve_eps(args.eps))


# Each command checks its own arguments, then the tolerance, and returns its report.
COMMANDS = {
    "run": cmd_run,
    "tomography": cmd_tomography,
    "verify-all": lambda args: build_verify_report(_resolve_eps(args.eps)),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        report = COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(report, args.format, args.out)


if __name__ == "__main__":
    sys.exit(main())
