"""Input files are decoded by one reader, ``cli.read_input``: the float64
bits it yields, and the exit-2 outcome of every file it refuses."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zygdist import cli
from zygdist.cli import EXIT_INPUT, EXIT_OK, InputError, load_function, load_measure, main, read_input

SRC = Path(__file__).resolve().parent.parent / "src"


def _function(values="0, 1, 0", head='"depth": 1', tail="") -> str:
    return f'{{"schema": "zygdist/1", "kind": "function", {head}, "values": [{values}]{tail}}}'


def _measure(masses="0.5, 0.5", head='"dim": 1, "depth": 1', tail="") -> str:
    return f'{{"schema": "zygdist/1", "kind": "measure", {head}, "masses": [{masses}]{tail}}}'


def _run(tmp_path, capsys, raw: bytes, command="seminorm") -> tuple[int, str]:
    """Exit code and stderr of ``command`` on the input file ``raw``."""
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    code = main([command, "--in", str(path), "--out", os.devnull])
    return code, capsys.readouterr().err


def _refused(tmp_path, capsys, raw: bytes, command="seminorm") -> str:
    """The one ``error:`` line of a file that exits 2."""
    code, err = _run(tmp_path, capsys, raw, command)
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command, file", [("seminorm", _function), ("measure", _measure)])
def test_the_unaltered_files_load(tmp_path, capsys, command, file):
    raw = file(tail=', "metadata": {"note": "plain"}').encode()
    assert _run(tmp_path, capsys, raw, command) == (EXIT_OK, "")


# ---------------------------------------------------------------------------
# nesting


def _nested(levels: int) -> str:
    return "[" * levels + "]" * levels


def test_a_hundred_thousand_open_brackets_exit_2(tmp_path, capsys):
    err = _refused(tmp_path, capsys, b"[" * 100_000)
    assert err.startswith("error: input is not valid JSON: ")


def test_nesting_past_the_limit_exits_2_and_at_it_loads(tmp_path, capsys):
    limit = cli._MAX_NESTING
    # the document itself is one level: metadata nests limit - 1 more
    at = _function(tail=f', "metadata": {_nested(limit - 1)}').encode()
    assert _run(tmp_path, capsys, at) == (EXIT_OK, "")
    past = _function(tail=f', "metadata": {_nested(limit)}').encode()
    err = _refused(tmp_path, capsys, past)
    assert err == f"error: input is not valid JSON: it nests more than {limit} levels deep\n"


def test_brackets_inside_strings_do_not_nest(tmp_path, capsys):
    note = json.dumps("[{" * 3000 + '\\"[')
    raw = _function(tail=f', "metadata": {{"note": {note}}}').encode()
    assert _run(tmp_path, capsys, raw) == (EXIT_OK, "")


def test_a_valid_file_nested_past_the_decoder_stack_exits_2(tmp_path):
    # orjson 3.8 recurses once per level and overflows the C stack on
    # balanced nesting this deep; a child process keeps a crash out of the
    # test run and shows as a signal in its return code
    path = tmp_path / "deep.json"
    path.write_text(_function(tail=f', "metadata": {_nested(300_000)}'))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-m", "zygdist.cli", "seminorm", "--in", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert child.returncode == EXIT_INPUT
    assert child.stderr.startswith("error: input is not valid JSON: ")
    assert child.stderr.count("\n") == 1 and child.stdout == ""


class _SlowDigest:
    """A sha256 whose update outlasts the decoding of a small file."""

    def __init__(self):
        self._digest = hashlib.sha256()

    def update(self, data):
        time.sleep(0.02)
        self._digest.update(data)

    def hexdigest(self):
        return self._digest.hexdigest()


def test_reads_leave_no_thread_running(tmp_path, monkeypatch):
    # the digest's helper thread is joined on every return and refusal
    monkeypatch.setattr(cli, "hashlib", SimpleNamespace(sha256=_SlowDigest))
    before = threading.active_count()
    path = tmp_path / "input.json"
    path.write_text(_function())
    _, digest = read_input(str(path))
    assert threading.active_count() == before
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    for raw in (
        _function(tail=f', "metadata": {_nested(cli._MAX_NESTING)}'),
        _function("0, 1,"),
        _function().replace("zygdist/1", "zygdist/2"),
    ):
        path.write_text(raw)
        with pytest.raises(InputError):
            read_input(str(path))
        assert threading.active_count() == before


# ---------------------------------------------------------------------------
# a depth too large for the data


_HUGE_DEPTHS = [2**40, 10**19, 10**20]


@pytest.mark.parametrize("depth", _HUGE_DEPTHS)
def test_a_huge_function_depth_exits_2(tmp_path, capsys, depth):
    raw = _function(head=f'"depth": {depth}')
    _refused(tmp_path, capsys, raw.encode())
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="values length 3 must be span"):
            load_function(json.loads(raw))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("depth", _HUGE_DEPTHS)
def test_a_huge_measure_depth_exits_2(tmp_path, capsys, dim, depth):
    raw = _measure(head=f'"dim": {dim}, "depth": {depth}')
    _refused(tmp_path, capsys, raw.encode(), "measure")
    tracemalloc.start()
    try:
        message = rf"masses length 2 must equal 2\^\(dim\*depth\) = 2\^{dim * depth}$"
        with pytest.raises(InputError, match=message):
            load_measure(json.loads(raw))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_a_small_depth_keeps_its_length_message():
    payload = json.loads(_measure(head='"dim": 1, "depth": 3'))
    with pytest.raises(InputError, match=r"= 8$"):
        load_measure(payload)


# ---------------------------------------------------------------------------
# encoding: UTF-8 without a byte order mark, strict JSON

_TEXT = _function(tail=', "metadata": {"note": "caf\\u00e9"}')
_ENCODINGS = {
    "invalid-utf-8": _function(tail=', "metadata": {"note": "caf\udcff"}').encode(
        "utf-8", "surrogateescape"
    ),
    "utf-8-bom": b"\xef\xbb\xbf" + _TEXT.encode(),
    "utf-16": _TEXT.encode("utf-16"),
    "utf-32": _TEXT.encode("utf-32"),
    "lone-surrogate": _function(tail=', "metadata": {"note": "\\ud800"}').encode(),
}


@pytest.mark.parametrize("raw", _ENCODINGS.values(), ids=_ENCODINGS)
def test_files_not_in_utf_8_exit_2(tmp_path, capsys, raw):
    err = _refused(tmp_path, capsys, raw)
    assert err.startswith("error: input is not valid JSON: ")


def test_the_same_text_in_utf_8_loads(tmp_path, capsys):
    assert _run(tmp_path, capsys, _TEXT.encode()) == (EXIT_OK, "")


_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]


@pytest.mark.parametrize("token", _TOKENS)
@pytest.mark.parametrize(
    "command, file", [("seminorm", _function), ("measure", _measure)], ids=["values", "masses"]
)
def test_non_finite_tokens_exit_2(tmp_path, capsys, command, file, token):
    raw = file(f"0, {token}, 0" if file is _function else f"0.5, {token}")
    err = _refused(tmp_path, capsys, raw.encode(), command)
    assert err.startswith("error: input is not valid JSON: ")


# a boolean converts to exactly 0.0 or 1.0, so it hides among those values
_BOOLEANS = {
    "false-among-zeros": ("0.0, 0.0, 0.0, false, 0.0, 0.0, 0.0, 0.0", "0.0"),
    "true-beside-ones": ("1.0, 1.0, true, 1.0, 0.5, 0.5, 0.5, 0.5", "1.0"),
}


@pytest.mark.parametrize("entries, last", _BOOLEANS.values(), ids=_BOOLEANS)
def test_booleans_among_equal_numbers_exit_2(tmp_path, capsys, entries, last):
    # eight masses; a function file takes one more value
    raw = _function(f"{entries}, {last}", head='"depth": 3')
    assert _refused(tmp_path, capsys, raw.encode()) == "error: values must be an array of numbers\n"
    raw = _measure(entries, head='"dim": 1, "depth": 3')
    assert _refused(tmp_path, capsys, raw.encode(), "measure") == "error: masses must be an array of numbers\n"


def test_number_arrays_are_writable_contiguous_float64():
    samples = cli._number_array([0, 1, 0.5, -2, 1.0, 0.0], "values")
    assert samples.dtype == np.float64 and samples.ndim == 1
    assert samples.flags.writeable and samples.flags.c_contiguous
    assert samples.tolist() == [0.0, 1.0, 0.5, -2.0, 1.0, 0.0]


# integers outside [-2^63, 2^64) decode as floats, which no integer field takes
_WIDE = {
    "left=2^64": (f'"depth": 1, "left": {2**64}', "left endpoint"),
    "left=-2^63-1": (f'"depth": 1, "left": {-(2**63) - 1}', "left endpoint"),
    "depth=2^64": (f'"depth": {2**64}', "depth must be"),
}


@pytest.mark.parametrize("head, message", _WIDE.values(), ids=_WIDE)
def test_integers_past_64_bits_exit_2(tmp_path, capsys, head, message):
    err = _refused(tmp_path, capsys, _function(head=head).encode())
    assert message in err


def test_integers_inside_64_bits_stay_integers(tmp_path, capsys):
    for left in (2**64 - 1, -(2**63)):
        raw = _function(head=f'"depth": 1, "left": {left}')
        (tmp_path / "input.json").write_text(raw)
        payload, _ = read_input(str(tmp_path / "input.json"))
        assert load_function(payload).left == left


# ---------------------------------------------------------------------------
# the float64 bits, against the standard library's decoder


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _halfway(bits: int) -> str:
    """The exact decimal halfway between a double and the next one up: a tie
    that must round to the even neighbour."""
    with localcontext() as context:
        context.prec = 1600  # a double's decimal has at most 767 digits
        return str((Decimal(_double(bits)) + Decimal(_double(bits + 1))) / 2)


_INF_BITS = 0x7FF0000000000000
_SMALL_BITS = 0x7EF0000000000000  # 2^1008: sixteen masses times 2^4 stay finite
# unsigned: the function files negate them
_SPECIAL = [
    "0", "0.0", "5e-324", "4.9406564584124654e-324", "2.225073858507201e-308", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "9007199254740993", "0.30000000000000004", "1e23",
    "8.98846567431158e+307", "1.7976931348623157e+308", _halfway(0), _halfway(1),
    _halfway(0x000FFFFFFFFFFFFF), _halfway(0x4340000000000000),
]


def _texts(top: int) -> st.SearchStrategy[str]:
    """Number texts of magnitude below ``_double(top)`` (or about 1e301):
    reprs of random bit patterns, decimals of 20 to 31 digits, exact ties and
    integers."""
    reprs = st.integers(0, top - 1).map(lambda b: repr(_double(b)))
    long = st.builds(
        lambda m, point, e: (f"{str(m)[0]}.{str(m)[1:]}" if point else str(m)) + f"e{e}",
        st.integers(10**19, 10**31 - 1),
        st.booleans(),
        st.integers(-370, 270),
    )
    ties = st.integers(0, top - 2).map(_halfway)
    ints = st.integers(0, 2**70).map(str)
    special = st.sampled_from([t for t in _SPECIAL if float(t) < _double(top)])
    return st.one_of(special, reprs, long, ties, ints)


def _signed(texts):
    return st.tuples(st.booleans(), texts).map(lambda p: ("-" if p[0] else "") + p[1])


def _file(kind, head, texts) -> str:
    key = "values" if kind == "function" else "masses"
    return '{"schema": "zygdist/1", "kind": "%s", %s, "%s": [%s]}' % (kind, head, key, ", ".join(texts))


@st.composite
def _files(draw):
    """A function file of signed number texts, or a measure file of
    non-negative ones."""
    if draw(st.booleans()):
        depth = draw(st.integers(1, 4))
        size = 2**depth + 1
        texts = draw(st.lists(_signed(_texts(_INF_BITS)), min_size=size, max_size=size))
        return _file("function", f'"depth": {depth}', texts)
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(1, 4 // dim))
    cells = 1 << (dim * depth)
    masses = _texts(_SMALL_BITS) | st.just("-0.0")  # -0.0 is not negative
    texts = draw(st.lists(masses, min_size=cells, max_size=cells))
    return _file("measure", f'"dim": {dim}, "depth": {depth}', texts)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_files())
@example(text=_file("function", '"depth": 5', _SPECIAL + ["-" + t for t in _SPECIAL] + ["1"]))
# integer and float zeros and ones only: every entry has its type read
@example(text=_file("function", '"depth": 3', ["0", "1", "0.0", "1.0", "-0", "-0.0", "1", "0", "1.0"]))
@example(text=_file("measure", '"dim": 2, "depth": 1', ["0", "1.0", "0.0", "1"]))
def test_decoded_samples_have_the_bits_of_the_stdlib_decoder(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    payload, _ = read_input(str(path))
    if payload["kind"] == "function":
        samples, key = load_function(payload).values, "values"
    else:
        samples, key = load_measure(payload).masses.reshape(-1), "masses"
    oracle = np.asarray(json.loads(text)[key], dtype=np.float64)
    assert samples.shape == oracle.shape
    assert (samples.view(np.uint64) == oracle.view(np.uint64)).all()
