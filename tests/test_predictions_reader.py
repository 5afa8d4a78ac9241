"""The columnar prediction-log reader against the row loop it falls back to.

``io._columnar_predictions`` parses only the canonical form and returns None
for anything else; ``io._looped_predictions`` reads every file and is the only
code that raises.  Wherever the columnar reader returns arrays they must be
the loop's, dtypes included, and ``read_predictions`` must give exactly what
the loop alone gives: the same arrays or the same error text.
"""

import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import animals_space
from hierkit import io
from hierkit.cli import run
from hierkit.io import read_predictions
from hierkit.labelspace import write_labelspace
from hierkit.metrics import PredictionLog

ROOT = Path(__file__).resolve().parents[1]
HEADER = b"epoch,example_id,true_label,pred_label\n"
SETTINGS = settings(max_examples=300, deadline=None, database=None)


@pytest.fixture
def loop_calls(monkeypatch):
    """Paths handed to the row loop during the test."""
    calls = []
    loop = io._looped_predictions

    def spy(path):
        calls.append(path)
        return loop(path)

    monkeypatch.setattr(io, "_looped_predictions", spy)
    return calls


def _outcome(path, columnar: bool):
    """read_predictions' arrays and label count, or its error text."""
    with pytest.MonkeyPatch.context() as mp:
        if not columnar:
            mp.setattr(io, "_columnar_predictions", lambda path: None)
        try:
            log = read_predictions(path)
        except ValueError as e:
            return str(e)
    return (log.epochs, log.example_ids, log.true_labels, log.pred_labels, log.label_count)


def _assert_same(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, str):
        assert a == b
        return
    for x, y in zip(a[:4], b[:4]):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert a[4] == b[4]


def _assert_paths_agree(path) -> None:
    fast = io._columnar_predictions(path)
    if fast is not None:
        for x, y in zip(fast, io._looped_predictions(path)):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
    _assert_same(_outcome(path, columnar=True), _outcome(path, columnar=False))


# ------------------------------------------------------- generated logs

_ascii_id = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                  blacklist_characters=","), max_size=12)
# mostly plausible, sometimes 18-19 digits, sometimes zero-padded
_number = st.tuples(st.one_of(st.integers(0, 7), st.integers(0, 10**19)), st.integers(0, 3))


def _field(number) -> bytes:
    value, pad = number
    return b"0" * pad + str(value).encode()


@st.composite
def canonical_logs(draw, number=_number) -> bytes:
    keys = draw(st.lists(st.tuples(st.integers(1, 4), _ascii_id), min_size=1, max_size=10,
                         unique=True))
    lines = []
    for epoch, ident in keys:
        true, pred = draw(number), draw(number)
        lines.append(b",".join([str(epoch).encode(), ident.encode(), _field(true),
                                _field(pred)]) + b"\n")
    return HEADER + b"".join(lines)


# byte strings a mutation inserts anywhere in the file
_INSERTS = [b"\r", b"\n", b"\r\n", b"+", b" ", b"_", b",", b"-", b"0", b"\x00", b"\xff",
            b"\t", "é".encode(), "٣".encode(), b"0" * 19, b"99999999999999999999"]


@st.composite
def mutated_logs(draw, number=_number, inserts=_INSERTS) -> bytes:
    data = draw(canonical_logs(number))
    for at in draw(st.lists(st.integers(0, 10**6), max_size=2)):  # delete a byte
        at %= len(data)
        data = data[:at] + data[at + 1:]
    for insert, at in draw(st.lists(st.tuples(st.sampled_from(inserts), st.integers(0, 10**6)),
                                    max_size=3)):
        at %= len(data) + 1
        data = data[:at] + insert + data[at:]
    body = data.split(b"\n")[1:-1]
    if body and draw(st.booleans()):  # repeat a row, often a duplicate key
        data += draw(st.sampled_from(body)) + b"\n"
    if draw(st.booleans()):
        data = data[:-1]  # drop the final newline
    return data


@SETTINGS
@given(data=canonical_logs())
def test_canonical_logs_take_the_fast_path(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "canonical.csv"
    path.write_bytes(data)
    rows = [line.split(b",") for line in data.splitlines()[1:]]
    longest = max(len(f) for row in rows for f in (row[0], row[2], row[3]))
    assert (io._columnar_predictions(path) is None) == (longest > 18)
    _assert_paths_agree(path)


@SETTINGS
@given(data=mutated_logs())
def test_mutated_logs_agree_with_the_loop(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(data)
    _assert_paths_agree(path)


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("space") / "s2.tsv"
    write_labelspace(animals_space()[1], path)
    return path


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.one_of(canonical_logs(), mutated_logs()),
       command=st.sampled_from(["curves", "converge", "confusion"]))
def test_metrics_commands_exit_0_or_1(tmp_path_factory, space_file, data, command):
    base = tmp_path_factory.getbasetemp()
    path = base / "cli.csv"
    path.write_bytes(data)
    argv = ["metrics", command, "--log", str(path), "--labelspace", str(space_file)]
    argv += ["--epoch", "1"] if command == "confusion" else ["--random-iso", "--seed", "0"]
    assert run(argv + ["--out", str(base / "cli_out")]) in (0, 1)


# Labels below 10**4 and no inserted digits: without a label space the hyponym
# space has one entry per label, so every legitimate allocation stays small.
# test_cli.py covers huge labels in a memory-limited child.
_small_label = st.tuples(st.integers(0, 10**4 - 1), st.integers(0, 3))
_no_digits = [b for b in _INSERTS if not any(c.isdigit() for c in b.decode("utf-8", "replace"))]
_curve_flags = st.lists(st.sampled_from([
    ["--random-iso"], ["--seed", "0"], ["--seed", "x"], ["--fraction", "0.5"],
    ["--fraction", "nan"], ["--fraction", "-1"], ["--fraction", "inf"], ["--fraction", "x"],
    ["--epoch", "1"], ["--bogus"],
]), max_size=3)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.one_of(canonical_logs(_small_label), mutated_logs(_small_label, _no_digits)),
       command=st.sampled_from(["curves", "converge"]), flags=_curve_flags)
def test_metrics_without_labelspace_exit_0_1_or_2(tmp_path_factory, data, command, flags):
    base = tmp_path_factory.getbasetemp()
    path = base / "cli_bare.csv"
    path.write_bytes(data)
    argv = ["metrics", command, "--log", str(path), *sum(flags, [])]
    assert run(argv + ["--out", str(base / "cli_bare_out")]) in (0, 1, 2)


@pytest.mark.parametrize("label", [10**9, 10**17])
def test_confusion_of_a_huge_label_count_exits_1(tmp_path, capsys, label):
    """Without a label space the matrix is label_count squared: too large fails at once."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,a,0,%d\n" % label)
    assert run(["metrics", "confusion", "--log", str(path), "--epoch", "1",
                "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# -------------------------------------------------- fallback triggers

FALLBACKS = {
    "crlf_line_ends": HEADER.replace(b"\n", b"\r\n") + b"1,a,0,0\r\n",
    "header_not_exact": b"epoch,example_id,true_label,pred_label,\n1,a,0,0,\n",
    "header_only": HEADER,
    "non_ascii_id": HEADER + "1,é,0,0\n".encode(),
    "control_byte_in_id": HEADER + b"1,a\tb,0,0\n",
    "invalid_utf8": HEADER + b"1,\xff,0,0\n",
    "nul_in_id": HEADER + b"1,a\x00,0,0\n1,a,0,0\n",
    "no_final_newline": HEADER + b"1,a,0,0",
    "unterminated_line_without_commas": HEADER + b"1,a,0,0\n7",
    "blank_line": HEADER + b"1,a,0,0\n\n1,b,0,0\n",
    "two_commas": HEADER + b"1,a,0\n",
    "four_commas": HEADER + b"1,a,b,0,0\n",
    "empty_label": HEADER + b"1,a,,0\n",
    "plus_sign": HEADER + b"+1,a,0,0\n",
    "leading_space": HEADER + b"1,a, 5,0\n",
    "underscore": HEADER + b"1,a,1_0,0\n",
    "unicode_digit": HEADER + "1,a,٣,0\n".encode(),
    "negative_label": HEADER + b"1,a,-1,0\n",
    "nineteen_digits": HEADER + b"1,a,0000000000000000005,0\n",
    "beyond_int64": HEADER + b"1,a,99999999999999999999,0\n",
    "epoch_zero": HEADER + b"0,a,0,0\n",
    "duplicate_key": HEADER + b"1,a,0,0\n1,b,0,0\n1,a,1,1\n",
}


@pytest.mark.parametrize("data", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_fallback_reaches_the_loop(tmp_path, loop_calls, data):
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    assert io._columnar_predictions(path) is None
    try:
        read_predictions(path)
    except ValueError:
        pass
    assert loop_calls == [path]


@pytest.mark.parametrize("body", [
    b"1,,0,0\n2,,1,1\n",                                     # empty ids: <U1
    b"2,b,3,1\n1,a a,0,2\n2,a a,1,1\n",                      # epochs not grouped
    b"1,~!x y.z-#'/\\,007,000\n",                            # punctuation, zero padding
    b"999999999999999999,longer than eight bytes,123456789012345678,1\n",
    b"1,eight by,0,0\n1,eight byt,0,0\n1,eight bytes,0,0\n",  # differ past word 1
])
def test_canonical_files_skip_the_loop(tmp_path, loop_calls, body):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + body)
    assert io._columnar_predictions(path) is not None
    fast = _outcome(path, columnar=True)
    assert loop_calls == []
    _assert_same(fast, _outcome(path, columnar=False))


@pytest.mark.parametrize("seed", [0, 3])
def test_bench_logs_take_the_fast_path(tmp_path, monkeypatch, loop_calls, seed):
    """The log of the benchmark's `logs` workload, input sets 0 and 3."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen, stages, workloads = (importlib.import_module(m) for m in ("gen", "stages", "workloads"))
    shapes = workloads.SHAPES["full"]
    inp, out = tmp_path / "in", tmp_path / "out"
    gen.generate("logs", shapes, seed, inp)
    for name, argv in stages.cli_stages("logs", shapes, seed, inp, out)[:2]:
        assert run([str(a) for a in argv] + ["--out", str(out / name)]) == 0
    log = read_predictions(out / "predictions" / "predictions.csv")
    assert loop_calls == []
    assert len(log) == shapes["log_epochs"] * shapes["log_examples"]


# ------------------------------------------- errors the loop now names

def test_nul_in_id_names_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,a,0,0\n\n1,a\x00b,0,0\n")
    with pytest.raises(ValueError, match=r"p\.csv:4: example_id contains a NUL"):
        read_predictions(path)


@pytest.mark.parametrize("reader, data, line", [
    (io.read_predictions, HEADER + b"1,a,0,0\r\n1,b\xff,0,0\n", 3),
    (io.read_features, b"label,f0\n0,1.0\n\n1,\xc3\n", 4),
    (io.read_distance_matrix, b",0\n0,0\xe2\x82\n", 2),
], ids=["predictions", "features", "distance_matrix"])
def test_invalid_utf8_names_path_and_line(tmp_path, reader, data, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"bad\.csv:{line}: invalid UTF-8 byte 0x"):
        reader(path)


def test_invalid_utf8_in_hierarchy_via_cli(tmp_path, capsys):
    edges, classes, groups = tmp_path / "edges.tsv", tmp_path / "classes.tsv", tmp_path / "g.tsv"
    edges.write_bytes(b"root\ta\rroot\tb\r\n# \xff\n")  # text mode: \r, \r\n end lines
    classes.write_text("0\ta\n1\tb\n")
    groups.write_text("g\ta\n")
    assert run(["labelspace", "build", "--hierarchy", str(edges), "--classes", str(classes),
                "--groups", str(groups), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {edges}:3: invalid UTF-8 byte 0xff" in capsys.readouterr().err


# ------------------------------------------------------ chunked reads

@pytest.fixture
def tiny_chunks(monkeypatch):
    """Reads of 5 bytes: nearly every line is split across reads, most span several."""
    monkeypatch.setattr(io, "_LOG_CHUNK_BYTES", 5)


def test_canonical_logs_in_tiny_chunks(tmp_path_factory, tiny_chunks):
    test_canonical_logs_take_the_fast_path(tmp_path_factory)


def test_mutated_logs_in_tiny_chunks(tmp_path_factory, tiny_chunks):
    test_mutated_logs_agree_with_the_loop(tmp_path_factory)


@pytest.mark.parametrize("data", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_fallback_in_tiny_chunks(tmp_path, loop_calls, tiny_chunks, data):
    test_fallback_reaches_the_loop(tmp_path, loop_calls, data)


def _chunked_outcome(path, monkeypatch, chunk: int):
    """The columnar reader's arrays with reads of ``chunk`` bytes, after checking
    that read_predictions agrees with the loop."""
    monkeypatch.setattr(io, "_LOG_CHUNK_BYTES", chunk)
    _assert_paths_agree(path)
    return io._columnar_predictions(path)


@pytest.mark.parametrize("body, chunk", [
    (b"1,a,0,0\n1,b,0,0\n", 12),                      # the 2nd line splits after "1,b,"
    (b"1,a,0,0\n2,b,1,1\n3,c,2,2\n", 8),              # each read ends one line exactly
    (b"1,%s,0,0\n2,b,1,1\n" % (b"x" * 50), 8),        # a line far longer than a read
], ids=["line_split_across_reads", "reads_on_line_ends", "line_longer_than_a_read"])
def test_lines_across_reads(tmp_path, monkeypatch, body, chunk):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + body)
    assert _chunked_outcome(path, monkeypatch, chunk) is not None


def test_duplicate_in_different_reads(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,a,0,0\n1,b,0,0\n2,a,0,0\n1,a,1,1\n")
    assert _chunked_outcome(path, monkeypatch, 8) is None
    with pytest.raises(ValueError, match=r"p\.csv:5: duplicate \(epoch, example_id\) "
                                         r"\(1, 'a'\), first seen at row 2"):
        read_predictions(path)


def test_id_width_from_the_longest_in_any_read(tmp_path, monkeypatch):
    """Short ids first, then one past an 8-byte word: the dtype is <U12 and the
    short ids, read into narrower padding, still compare as distinct."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,a,0,0\n1,b,1,1\n1,abcdefghijkl,2,2\n1,abcdefgh,3,3\n")
    ids = _chunked_outcome(path, monkeypatch, 8)[1]
    assert ids.dtype == np.dtype("<U12")
    assert ids.tolist() == ["a", "b", "abcdefghijkl", "abcdefgh"]


@pytest.mark.parametrize("data", [HEADER, HEADER + b"1,a,0,0\n1,b,0,0"],
                         ids=["header_only", "no_final_newline"])
def test_incomplete_logs_in_small_reads(tmp_path, monkeypatch, data):
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    assert _chunked_outcome(path, monkeypatch, 8) is None


def test_shortest_id_ends_a_read(tmp_path, monkeypatch):
    """Reads of 41 bytes end on a 1-byte id after a 26-byte one: the id gather
    of that line runs past the end of the read's bytes."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,abcdefghijklmnopqrstuvwxyz,0,0\n1,a,0,0\n"
                              b"2,abcdefghijklmnopqrstuvwxyz,1,1\n2,a,1,1\n")
    assert _chunked_outcome(path, monkeypatch, 41)[1].tolist() == [
        "abcdefghijklmnopqrstuvwxyz", "a", "abcdefghijklmnopqrstuvwxyz", "a"]


# ------------------------------------------------- the duplicate check

def test_key_collisions_reach_the_loop(tmp_path, monkeypatch, loop_calls):
    """With every (epoch, id) hashed to one key, a log of distinct pairs looks
    like one with repeats: it goes to the row loop, which reads it."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,a,0,0\n1,b,1,1\n2,a,2,2\n2,abcdefghijk,3,3\n")
    expected = io._columnar_predictions(path)
    monkeypatch.setattr(io, "_mix", lambda key: key.fill(7))
    assert io._columnar_predictions(path) is None
    log = read_predictions(path)
    assert loop_calls == [path]
    for x, y in zip((log.epochs, log.example_ids, log.true_labels, log.pred_labels), expected):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def test_duplicate_past_the_first_word(tmp_path):
    """Ids of 9 bytes that share their first 8: only the second word tells the
    repeat from the distinct id."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"1,abcdefghX,0,0\n1,abcdefghY,0,0\n1,abcdefghX,1,1\n")
    assert io._columnar_predictions(path) is None
    with pytest.raises(ValueError, match=r"p\.csv:4: duplicate \(epoch, example_id\) "
                                         r"\(1, 'abcdefghX'\), first seen at row 2"):
        read_predictions(path)


def test_ids_repeated_across_epochs_skip_the_loop(tmp_path, loop_calls):
    """The same 40 ids in each of 60 epochs: equal ids, distinct pairs."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"".join(b"%d,id-%d,%d,0\n" % (e, i, i)
                                       for e in range(1, 61) for i in range(40)))
    fast = _outcome(path, columnar=True)
    assert loop_calls == []
    _assert_same(fast, _outcome(path, columnar=False))


# ---------------------------------------------------- bounded memory

def _traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_log(tmp_path_factory):
    """200k records in the bench log's shape, 4 epochs of 50k ids `e0`... (<U6),
    and the file they make."""
    rng = np.random.default_rng(16)
    ids = np.array([f"e{i}" for i in range(50_000)])
    n = 4 * ids.size
    log = PredictionLog(epochs=np.repeat(np.arange(1, 5), ids.size),
                        example_ids=np.tile(ids, 4), true_labels=rng.integers(0, 1000, n),
                        pred_labels=rng.integers(0, 1000, n), label_count=1000)
    path = tmp_path_factory.mktemp("long") / "p.csv"
    io.write_predictions(log, path)
    return (log.epochs, log.example_ids, log.true_labels, log.pred_labels), path


# Blocks and reads are shrunk far below the 200k-record log, so that one of
# them is as small next to the log's arrays as it is on a full-size log.

def test_log_write_in_bounded_memory(tmp_path, monkeypatch, long_log):
    """The writer holds one block of formatted rows, not a list per column."""
    monkeypatch.setattr(io, "_LOG_BLOCK_ROWS", 4096)
    columns, expected = long_log
    log = PredictionLog(*columns, label_count=1000)
    path = tmp_path / "p.csv"
    _, peak = _traced_peak(lambda: io.write_predictions(log, path))
    assert peak < 0.5 * sum(a.nbytes for a in columns)
    assert path.read_bytes() == expected.read_bytes()


def test_log_read_in_bounded_memory(monkeypatch, long_log):
    """The columnar reader holds neither the whole file nor an object per
    record: besides its arrays, only the compact columns parsed per read."""
    monkeypatch.setattr(io, "_LOG_CHUNK_BYTES", 1 << 16)
    columns, path = long_log
    read, peak = _traced_peak(lambda: io._columnar_predictions(path))
    assert peak < 1.5 * sum(a.nbytes for a in read)
    for x, y in zip(read, columns):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
