"""The report renderers against the stdlib ``json`` encoder and ``csv`` writer.

``cli._array_parts`` writes complex arrays and the witness's correlation
table straight from numpy, and ``cli.render_csv`` quotes its cells itself;
every renderer returns its report as a list of pieces, compared here joined.
The oracle is the encoding they replaced: arrays turned into nested lists of
[re, im] pairs (``pairs``), the table into its rows (``table_rows``), and the
whole report passed through ``json.JSONEncoder(indent=2)``, or ``json.dumps``
per csv cell and the rows through ``csv.writer``.
"""

import csv
import gc
import io
import json
import tracemalloc

import numpy as np
import pytest

from bmvsim import cli
from bmvsim.acceptance import RUNNERS
from bmvsim.statecore import EPS
from bmvsim.witness import CorrelationTable

PLANTED = (-0.0, 0.0, 5e-324, 1e-5, 1e16, 1 / 3, float("nan"), float("inf"), float("-inf"))
SHAPES = [(1,), (5,), (1, 1), (1, 4), (3, 1), (4, 4), (1, 1, 1), (2, 1, 3), (3, 4, 2)]


# ---------------------------------------------------------------------------
# the oracle


def pairs(a) -> list:
    """A complex array as nested lists of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def table_rows(table: CorrelationTable) -> list:
    """A correlation table as its rows [i, j, Tr(A_i rho), Tr(B_j rho), Tr(A_i B_j rho)]."""
    ea, eb, eab = table.expect_a.tolist(), table.expect_b.tolist(), table.expect_product.tolist()
    return [[i, j, ea[i], eb[j], eab[i][j]] for i in range(len(ea)) for j in range(len(eb))]


def to_lists(value):
    """The report with every array replaced by its ``pairs`` lists and the
    correlation table by its rows."""
    if isinstance(value, np.ndarray):
        return pairs(value)
    if isinstance(value, CorrelationTable):
        return table_rows(value)
    if isinstance(value, dict):
        return {key: to_lists(sub) for key, sub in value.items()}
    if isinstance(value, list):
        return [to_lists(sub) for sub in value]
    return value


def oracle_json(report: dict) -> str:
    return json.JSONEncoder(indent=2).encode(to_lists(report)) + "\n"


def oracle_csv(report: dict) -> str:
    rows = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, sub in enumerate(value):
                walk(f"{prefix}[{i}]", sub)
        else:
            rows.append((prefix.split(".")[0], prefix, json.dumps(value)))

    walk("", to_lists(report))
    return stdlib_csv(rows)


def stdlib_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["section", "key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


ORACLES = {"json": oracle_json, "csv": oracle_csv}


# ---------------------------------------------------------------------------
# the formatter


def format_array(a, level=None) -> str:
    return "".join(cli._array_parts(a, level, {}))


def random_array(rng, shape):
    """Seeded complex values: random floats, repeats, and planted values."""
    pool = np.concatenate([PLANTED, rng.normal(size=3)])
    size = int(np.prod(shape))
    parts = []
    for _ in range(2):
        part = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size=size)
        repeat = rng.random(size) < 0.5
        part[repeat] = rng.choice(pool, size=int(repeat.sum()))
        part[rng.integers(size)] = rng.choice(PLANTED)  # at least one, whatever the size
        parts.append(part.reshape(shape))
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = parts
    return a


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_format_array_matches_json(shape):
    rng = np.random.default_rng(sum(shape) * 100 + len(shape))
    for _ in range(20):
        a = random_array(rng, shape)
        assert format_array(a) == json.dumps(pairs(a))
        indented = json.dumps(pairs(a), indent=2)
        for level in range(5):
            assert format_array(a, level) == indented.replace("\n", "\n" + "  " * level)


def test_format_array_planted_values():
    a = np.empty(len(PLANTED), dtype=complex)
    a.real, a.imag = PLANTED, PLANTED[::-1]
    text = format_array(a)
    assert text == json.dumps(pairs(a))
    for token in ("-0.0", "5e-324", "1e-05", "1e+16", "0.3333333333333333", "NaN", "Infinity", "-Infinity"):
        assert token in text


def assert_matches_json(a):
    assert format_array(a) == json.dumps(pairs(a))
    indented = json.dumps(pairs(a), indent=2)
    for level in range(5):
        assert format_array(a, level) == indented.replace("\n", "\n" + "  " * level)


NAN, INF = float("nan"), float("inf")
# a NaN with a payload: the same text as NaN, a different bit pattern
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]


def _rows(*rows) -> np.ndarray:
    return np.array(rows, dtype=complex)


ROW_CASES = {
    "all-equal rows": np.full((5, 3), 0.5 - 0.25j),
    "all-equal rows, 3-d": np.full((3, 4, 2), 1 / np.sqrt(2)),
    "zero then negative zero": _rows([0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [complex(0.0, -0.0), 1.0]),
    "negative zero then zero": _rows([-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]),
    "nan then inf": _rows([NAN, 0.0], [INF, 0.0], [NAN, 0.0], [-INF, 0.0], [complex(0.0, NAN), 0.0]),
    "inf then nan payloads": _rows([INF, 1.0], [NAN_PAYLOAD, 1.0], [NAN, 1.0], [INF, 1.0]),
    "length-1 last axis": _rows([0.5], [-0.0], [0.5], [NAN], [0.0]),
    "length-1 last axis, 3-d": np.array([[[0.5], [0.5]], [[-0.0], [0.5]], [[0.5], [0.5]]], dtype=complex),
    "vector": np.array([0.5, 0.0, -0.0, 0.5, NAN, INF, 0.0], dtype=complex),
    "length-1 vector": np.array([complex(-0.0, 0.0)]),
    # rows of +0.0 only are found by their bits and share one text
    "all +0.0 rows": np.zeros((4, 3), dtype=complex),
    "all +0.0 rows, 3-d": np.zeros((2, 3, 2), dtype=complex),
    "+0.0 vector": np.zeros(3, dtype=complex),
    "+0.0 rows among -0.0 rows": _rows([0.0, 0.0], [-0.0, 0.0], [0.0, 0.0], [complex(0.0, -0.0), 0.0], [0.0, 0.0]),
    "sparse diagonal": np.diag([0.5, 0.0, -0.0, 0.5]).astype(complex),
    "sparse stack, 3-d": np.stack([np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)), np.diag([0.0, 0.0, -0.0])]).astype(complex),
    "no zero entry": np.full((3, 2), complex(0.25, -1.5)),
}


@pytest.mark.parametrize("a", ROW_CASES.values(), ids=ROW_CASES.keys())
def test_format_array_row_dedup(a):
    # rows equal under == but not bit for bit (-0.0 and 0.0) must stay apart
    assert_matches_json(a)


def test_arrays_sharing_row_texts_match_json():
    # one texts dict for every array of a report, as render_json passes it:
    # the +0.0 row text of one level must not serve another, nor a -0.0 row
    cases = [*ROW_CASES.values(), np.zeros((2, 4), dtype=complex), np.full((2, 4), complex(-0.0, 0.0))]
    texts: dict = {}
    for level in (None, 0, 1, 3, None, 2):
        for a in cases:
            indented = json.dumps(pairs(a), indent=None if level is None else 2)
            expected = indented if level is None else indented.replace("\n", "\n" + "  " * level)
            assert "".join(cli._array_parts(a, level, texts)) == expected


def test_separators_are_shared_and_immutable():
    # one (head, seps) value per (shape, level) serves every caller, so no
    # caller may change it for the next
    head, seps = cli._separators((3, 4), 1)
    assert cli._separators((3, 4), 1)[1] is seps
    assert isinstance(head, str) and isinstance(seps, tuple) and len(seps) == 12


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_renders_of_one_report_are_byte_equal(fmt):
    # a render with the separators cached writes the bytes of one without
    trace = RUNNERS["bitantibit"](eps=EPS, mediator_bits=4)
    report = cli.build_run_report(trace, EPS, True)
    cli._separators.cache_clear()
    first = "".join(cli.RENDERERS[fmt](report))
    assert cli._separators.cache_info().currsize
    assert "".join(cli.RENDERERS[fmt](report)) == first


def _table(na, nb, values) -> CorrelationTable:
    """A table whose expectations are ``values`` in order, cycled as needed."""
    flat = np.resize(np.array(values, dtype=float), na + nb + na * nb)
    return CorrelationTable(flat[:na], flat[na : na + nb], flat[na + nb :].reshape(na, nb))


def _random_table(seed, na, nb) -> CorrelationTable:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=na + nb + na * nb) * 10.0 ** rng.integers(-20, 20, size=na + nb + na * nb)
    planted = rng.random(values.size) < 0.3
    values[planted] = rng.choice(PLANTED, size=int(planted.sum()))
    return _table(na, nb, values)


TABLE_CASES = {
    "planted": _table(4, 5, PLANTED),
    "planted, reversed": _table(3, 3, PLANTED[::-1]),
    "random 16x16": _random_table(16, 16, 16),
    "random 3x7": _random_table(37, 3, 7),
    "one row": _table(1, 1, (1 / 3, -0.0, 5e-324)),
    "one A": _table(1, 4, PLANTED),
    "empty": _table(0, 0, ()),
    "empty A": _table(0, 16, PLANTED),
    "empty B": _table(4, 0, PLANTED),
}


@pytest.mark.parametrize("table", TABLE_CASES.values(), ids=TABLE_CASES.keys())
def test_correlation_table_matches_json(table):
    rows = table_rows(table)
    assert len(rows) == len(table)
    assert format_array(table) == json.dumps(rows)
    indented = json.dumps(rows, indent=2)
    for level in range(4):
        assert format_array(table, level) == indented.replace("\n", "\n" + "  " * level)


def test_compact_array_text_needs_no_csv_escaping():
    # render_csv quotes an array cell around its pieces without doubling quotes
    rng = np.random.default_rng(11)
    arrays = [*ROW_CASES.values(), *TABLE_CASES.values(), *(random_array(rng, shape) for shape in SHAPES)]
    for a in arrays:
        text = format_array(a)
        assert not any(ch in text for ch in '"\r\n'), text


def test_correlation_table_planted_values():
    text = format_array(TABLE_CASES["planted"])
    tokens = ("[0, 0, ", "[3, 4, ", "-0.0", "5e-324", "1e+16", "0.3333333333333333", "NaN", "Infinity", "-Infinity")
    assert all(token in text for token in tokens)


# ---------------------------------------------------------------------------
# the json renderer


SLOTS = ("\0array", 'a"\0array')


def _planted_report() -> dict:
    """Arrays at the top level, as list items and in dicts in lists, among
    empty containers and strings holding line breaks, NUL characters or quotes."""
    rng = np.random.default_rng(7)
    matrix = random_array(rng, (2, 2))
    return {
        "vector": random_array(rng, (3,)),
        "matrix": matrix,
        "again": [matrix, {"deeper": [matrix, matrix[::-1]]}],  # the same rows at other levels
        "text": "two\nlines\n",
        "empty": {},
        "none": [],
        "items": [random_array(rng, (1,)), TABLE_CASES["random 3x7"], "a\nb", random_array(rng, (2, 1, 3))],
        "nested": [
            {"stack": random_array(rng, (2, 2, 2)), "table": TABLE_CASES["empty"], "keys\n": {}},
            {"rows": [TABLE_CASES["one row"], {"deep": random_array(rng, (4, 4)), "list": []}]},
            [],
        ],
        "last": TABLE_CASES["planted"],
        # subtrees with no array, at each depth
        "plain": {"list": [1, -0.0, {"deep": ["x\ny", None, True, 1e16]}], "empty": [{}, []], "tuple": (2.5, "z")},
        "plain at depth": [{"rows": [[0.5, NAN], {"k": "v"}], "matrix": np.eye(2)}, [{"a": [1, [2, [3]]]}]],
        # strings a renderer that wrote a placeholder for each array would mistake for one
        "slot": SLOTS[0],
        "slots": [*SLOTS, np.eye(2)],
        SLOTS[1]: {SLOTS[0]: random_array(rng, (2,))},
    }


def test_render_json_matches_oracle_on_planted_report():
    for report in (_planted_report(), {}, {"a": []}):
        assert "".join(cli.render_json(report)) == oracle_json(report)
        compact: list[str] = []
        cli._json_parts(report, None, {}, compact)
        assert "".join(compact) == json.dumps(to_lists(report))


def test_render_json_tuples_are_lists_and_keys_are_strings():
    # no report holds either; json would write a tuple as a list and coerce
    # some keys to strings, where render_json refuses every key that is not one
    report = {"pair": (0, 1), "arrays": (np.eye(2), (TABLE_CASES["one row"], ())), "lists": [(), (1.5,)]}
    as_lists = {"pair": [0, 1], "arrays": [np.eye(2), [TABLE_CASES["one row"], []]], "lists": [[], [1.5]]}
    assert "".join(cli.render_json(report)) == oracle_json(as_lists)
    for key in (1, 1.5, True, None, (1, 2)):
        for report in ({"ok": {key: 1}}, {"ok": [np.eye(2), [{"a": {key: 1}}]]}, {"plain": [{"a": [{key: 1}]}]}):
            with pytest.raises(TypeError, match="keys must be str"):
                cli.render_json(report)
            with pytest.raises(TypeError, match="keys must be str"):
                cli._json_parts(report, None, {}, [])


def test_render_json_refuses_other_objects():
    # numpy floats are floats; numpy ints are neither an array nor a json value
    assert "".join(cli.render_json({"x": np.float64(0.5)})) == oracle_json({"x": 0.5})
    with pytest.raises(TypeError, match="int64"):
        cli.render_json({"x": np.int64(1)})


class Text(str):
    pass


SCALARS = (
    # str: non-ASCII, quotes, backslashes and control characters, a subclass
    "", "plain", "café", "☃ \U0001f600", 'say "hi"', "back\\slash", "\0\x01\x1f\x7f", "tab\tline\nret\r",
    Text('sub "class"\n'),
    # int, and float at its edges
    0, -1, 7, 2**70, -(2**70),
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 1 / 3, 0.1, 1.5e-7,
    float("nan"), float("inf"), float("-inf"),
    True, False, None,
    np.float64(0.5), np.float64(-0.0), np.float64("nan"), np.float64("inf"),
    # not scalars: the csv cells hand these on to json
    [0, 5], [], ("a", 1.5),
)


@pytest.mark.parametrize("value", SCALARS, ids=repr)
def test_scalar_text_matches_json_dumps(value):
    assert cli._scalar_text(value) == json.dumps(value)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), np.bool_(False), object()], ids=repr)
def test_scalar_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value)
    with pytest.raises(TypeError) as got:
        cli._scalar_text(value)
    assert str(got.value) == str(want.value)


def test_csv_array_cells_share_one_row_text_dict(monkeypatch):
    # as in render_json, every array of one report reads and fills one dict
    dicts = []
    real = cli._array_parts

    def recorded(a, level, texts):
        dicts.append(texts)
        return real(a, level, texts)

    monkeypatch.setattr(cli, "_array_parts", recorded)
    report = cli.build_run_report(RUNNERS["bitantibit"](eps=EPS), EPS, True)
    for render in (cli.render_json, cli.render_csv):
        dicts.clear()
        render(report)
        assert len(dicts) > 10 and all(texts is dicts[0] for texts in dicts)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rendering_leaves_no_cycle_holding_the_report(fmt):
    # a reference cycle that holds a report's arrays or row texts keeps them
    # until a gc pass; an in-process client then grows its peak RSS
    def render_and_drop():
        report = {"matrix": np.eye(256, dtype=complex), "items": [{"table": TABLE_CASES["random 16x16"]}]}
        cli.RENDERERS[fmt](report)

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        render_and_drop()
        held = tracemalloc.get_traced_memory()[0]
        gc.collect()
        freed_by_gc = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert freed_by_gc < 64 * 1024


# ---------------------------------------------------------------------------
# the csv renderer


def _reports():
    for model in RUNNERS:
        for steps in (False, True):
            yield f"run {model} steps={steps}", cli.build_run_report(RUNNERS[model](eps=EPS), EPS, steps)
    for k in (3, 4, 5, 6):
        trace = RUNNERS["bitantibit"](eps=EPS, mediator_bits=k)
        yield f"run bitantibit k={k}", cli.build_run_report(trace, EPS, False)
    for k_max in range(1, 6):
        yield f"tomography k_max={k_max}", cli.build_tomography_report(k_max, EPS)
    yield "verify-all", cli.build_verify_report(EPS)


def test_csv_matches_stdlib_writer_on_every_report():
    for name, report in _reports():
        rows = [(section, key, "".join(value)) for section, key, value in cli._csv_rows(report, {})]
        assert "".join(cli.render_csv(report)) == stdlib_csv(rows), name


# cells the excel dialect quotes, and some it does not; every row has three
# cells, so csv.writer's quoted lone empty field never arises
PLANTED_CELLS = (",", '"', "\r", "\n", '""', "", "\r\n", "a,b", 'say "hi"', " lead", "plain", "[1, 2]")


def test_csv_planted_cells_match_stdlib_writer():
    # keys reach the section and key cells raw; values reach the value cell
    # through json.dumps, which adds quotes and escapes line breaks
    report = {cell: cell for cell in PLANTED_CELLS}
    report["nested,"] = {f"{a}{b}": [a, b] for a in PLANTED_CELLS for b in PLANTED_CELLS}
    report["list"] = [{cell: i} for i, cell in enumerate(PLANTED_CELLS)]
    # array cells: quoted when they hold a comma, as all but empty tables do
    report["arrays"] = {
        "table": TABLE_CASES["one row"],
        "empty table": TABLE_CASES["empty"],
        "list": [np.eye(2), TABLE_CASES["empty"], np.eye(2)[::-1], np.eye(3)],
        "list of an empty table": [TABLE_CASES["empty"]],
    }
    assert "".join(cli.render_csv(report)) == oracle_csv(report)
    rows = [(a, b, c) for a in PLANTED_CELLS for b in PLANTED_CELLS for c in PLANTED_CELLS[::-1]]
    lines = [piece for a, b, c in rows for piece in cli._csv_line(a, b, [c])]
    assert "".join(cli.render_csv({}) + lines) == stdlib_csv(rows)


# ---------------------------------------------------------------------------
# reports the golden set does not cover


def _variant(model, mediator_bits=None, trace_steps=False):
    argv = ["run", model]
    options = {}
    if mediator_bits is not None:
        argv += ["--mediator-bits", str(mediator_bits)]
        options["mediator_bits"] = mediator_bits
    if trace_steps:
        argv.append("--trace-steps")
    return pytest.param(argv, options, trace_steps, id=" ".join(argv[1:]))


VARIANTS = [
    *(_variant("bitantibit", k) for k in (3, 4, 5)),
    _variant("bitantibit", 6, trace_steps=True),
    *(_variant(model, trace_steps=True) for model in RUNNERS),
]


@pytest.mark.parametrize("argv, options, trace_steps", VARIANTS)
def test_report_matches_oracle(argv, options, trace_steps, tmp_path):
    report = cli.build_run_report(RUNNERS[argv[1]](eps=EPS, **options), EPS, trace_steps)
    for fmt, oracle in ORACLES.items():
        out = tmp_path / f"report.{fmt}"
        assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == oracle(report).encode("ascii")


@pytest.mark.parametrize("steps", [[], ["--trace-steps"]], ids=["", "steps"])
def test_text_report_formats_no_array(monkeypatch, tmp_path, steps):
    def refuse(*args, **kwargs):
        raise AssertionError("a text report formatted an array")

    monkeypatch.setattr(cli, "_array_parts", refuse)
    out = tmp_path / "report.txt"
    argv = ["run", "bitantibit", "--mediator-bits", "6", "--format", "text", *steps]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text().endswith("RESULT: PASS\n")
