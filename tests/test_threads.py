"""The one thread pool (``kernels._pooled``) and the one BLAS pin
(``kernels._one_blas_thread``).

The pin holds numpy's bundled OpenBLAS at one thread while anyone is inside and
restores the count when the last holder leaves, whatever happens inside.  Every
BLAS or LAPACK call whose result reaches an output runs inside it, at any shape,
so the CLI writes the same bytes in a child process at one BLAS thread and at
two, and at one thread the pin changes no byte.  ``ccc`` and ``nc3`` call no
BLAS, so they keep their bytes under every OpenBLAS kernel.  Where the OpenBLAS
symbols are absent the pin does nothing, and pooled tasks that call the BLAS run
serially.
"""

import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import hierkit
import hierkit.collapse as collapse
import hierkit.kernels as kernels
import hierkit.synth as synth
from hierkit.cli import run
from hierkit.collapse import (ClassifierHead, class_statistics, lift_to_superclass, nc1,
                              nc2_metrics)
from hierkit.io import write_features, write_head
from hierkit.manifold import FeatureSet
from hierkit.synth import default_trajectory_params, gen_etf, gen_hierarchical_trajectory

from _helpers import balanced_hierarchy

_ABSENT = "numpy's bundled OpenBLAS thread-count symbols are absent: there is no pin"


@pytest.fixture
def blas_threads():
    """The BLAS thread-count getter, with the count set to 2 for the test."""
    api = kernels._blas_thread_api()
    if not api:
        pytest.skip(_ABSENT)
    get, put = api
    before = get()
    put(2)
    yield get
    put(before)


@pytest.fixture
def pins(monkeypatch, blas_threads):
    """The BLAS thread count inside each ``_one_blas_thread`` entry that collapse
    and synth make, with the count set to 2 outside."""
    seen = []
    pin = kernels._one_blas_thread

    @contextmanager
    def spy():
        with pin():
            seen.append(blas_threads())
            yield

    monkeypatch.setattr(collapse, "_one_blas_thread", spy)
    monkeypatch.setattr(synth, "_one_blas_thread", spy)
    return seen


def _desk_stats(p=64, groups=3, per_group=20, per_class=20):
    """The first epoch of a desk-shaped trajectory, and its label space."""
    h, space, _ = balanced_hierarchy(groups, per_group)
    params = default_trajectory_params(epochs=2, dimension=p,
                                       examples_per_class=per_class, seed=3)
    f = gen_hierarchical_trajectory(h, space, params)[0]
    return f, space


def test_pin_holds_one_thread_and_restores_the_count_after_an_exception(blas_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with kernels._one_blas_thread():
            assert blas_threads() == 1
            raise RuntimeError("inside")
    assert blas_threads() == 2


def test_nested_holders_restore_the_count_once(blas_threads):
    with kernels._one_blas_thread():
        with kernels._one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_interleaved_threads_restore_the_count(blas_threads):
    # A enters, B enters, A leaves (B still holds), B leaves.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with kernels._one_blas_thread():
            a_in.set()
            b_in.wait(10)
        seen["after a"] = blas_threads()
        a_out.set()

    def b():
        a_in.wait(10)
        with kernels._one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen["b after a"] = blas_threads()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
        assert not t.is_alive()
    assert seen == {"after a": 1, "b after a": 1}
    assert blas_threads() == 2


def test_many_threads_entering_and_leaving_restore_the_count(blas_threads):
    # more threads than cores and a short switch interval: a lost update of the
    # holder count would leave the count at 1 or restore it while one is inside
    inside = []

    def hold():
        for _ in range(3000):
            with kernels._one_blas_thread():
                inside.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert inside == [1] * 24000
    assert kernels._pin_holders == 0
    assert blas_threads() == 2


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_pins_two_or_more_threads_and_restores_the_count(monkeypatch, blas_threads,
                                                              workers):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    counts = np.zeros(5, dtype=int)

    def task(i):
        counts[i] = blas_threads()

    kernels._pooled(task, range(5))
    assert (counts == (1 if workers > 1 else 2)).all()
    assert blas_threads() == 2


def test_pool_restores_the_count_after_a_failing_task(monkeypatch, blas_threads):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)

    def task(i):
        if i == 3:
            raise ValueError("item 3")

    with pytest.raises(ValueError, match="item 3"):
        kernels._pooled(task, range(6))
    assert blas_threads() == 2


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_raises_the_error_of_the_first_failing_item(monkeypatch, workers):
    # items 2 and 5 fail; a serial loop stops at 2, and so must every pool
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    done = []

    def task(i):
        if i in (2, 5):
            raise ValueError(f"item {i}")
        done.append(i)

    with pytest.raises(ValueError, match="^item 2$"):
        kernels._pooled(task, range(8))
    assert {0, 1} <= set(done)


def test_desk_shaped_calls_pin_and_restore_the_count(blas_threads, pins):
    f, space = _desk_stats()
    pins.clear()  # the trajectory's own qr
    stats = class_statistics(f)
    assert blas_threads() == 2
    lifted, _ = lift_to_superclass(stats, None, space)
    assert blas_threads() == 2
    nc1(stats)
    nc1(lifted)
    assert blas_threads() == 2
    assert pins == [1, 1, 1, 1]


def test_output_bearing_calls_pin_past_every_old_shape_rule(blas_threads, pins):
    # p = 129 and N = 60 * 35 = 2100 lie past every shape rule the pin once had
    def pinned(call, *args):
        pins.clear()
        out = call(*args)
        assert pins and set(pins) == {1}, call.__name__
        assert blas_threads() == 2
        return out

    f, space = pinned(_desk_stats, 129, 3, 20, 35)  # the trajectory's qr
    stats = pinned(class_statistics, f)
    pinned(lift_to_superclass, stats, None, space)
    pinned(nc1, stats)
    pinned(nc2_metrics, stats, ClassifierHead(stats.class_means, np.zeros(60)))
    pinned(gen_etf, 60, 129)


def test_pinned_calls_keep_their_bits(monkeypatch):
    f, space = _desk_stats()
    stats = class_statistics(f)
    lifted, _ = lift_to_superclass(stats, None, space)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_blas_threads", ())
        ref = class_statistics(f)
        ref_lifted, _ = lift_to_superclass(ref, None, space)
        ref_nc1 = (nc1(ref), nc1(ref_lifted))
    for a, b in ((stats, ref), (lifted, ref_lifted)):
        assert np.array_equal(a.sigma_w, b.sigma_w) and np.array_equal(a.sigma_b, b.sigma_b)
    assert (nc1(stats), nc1(lifted)) == ref_nc1


def test_absent_symbols_make_the_pin_a_no_op(monkeypatch):
    api = kernels._blas_thread_api()
    before = api[0]() if api else None
    monkeypatch.setattr(kernels, "_blas_threads", ())
    with kernels._one_blas_thread():
        if api:
            assert api[0]() == before
    assert kernels._pin_holders == 0


@pytest.mark.parametrize("absent", [False, True])
def test_ncc_log_is_serial_without_the_pin(monkeypatch, absent):
    if absent:
        monkeypatch.setattr(kernels, "_blas_threads", ())
    elif not kernels._blas_thread_api():
        pytest.skip(_ABSENT)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    threads = set()
    readout = synth.nearest_mean_labels

    def recording(f):
        threads.add(threading.get_ident())
        return readout(f)

    monkeypatch.setattr(synth, "nearest_mean_labels", recording)
    h, space, _ = balanced_hierarchy(2, 3)
    params = default_trajectory_params(epochs=6, dimension=8, examples_per_class=4, seed=1)
    synth.ncc_prediction_log(gen_hierarchical_trajectory(h, space, params))
    if absent:
        assert threads == {threading.get_ident()}
    else:
        assert threading.get_ident() not in threads


# ------------------------------------------- CLI bytes across threads and kernels

_CHILD = """
import ctypes, json, sys
from numpy._core import _multiarray_umath
import hierkit.kernels as kernels
from hierkit.cli import run

commands, dirs = json.loads(sys.argv[1]), sys.argv[2:]
for d, out in enumerate(dirs):
    if d:  # as if the symbols were absent: nothing is pinned
        kernels._blas_threads = ()
    for k, argv in enumerate(commands):
        assert run(argv + ["--out", f"{out}/{k}"]) == 0, argv
try:
    core = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
except AttributeError:  # not numpy's bundled OpenBLAS
    core = None
else:
    core.restype = ctypes.c_char_p
print(json.dumps(core().decode() if core else None))
"""


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The argv of five CLI runs at about 500 classes and p = 512, on inputs
    written once: ``nc compute`` with and without ``--labelspace``, ``manifold
    ccc``, ``synth features`` and ``synth etf``.  ``ccc`` and ``nc3`` come from
    the first three."""
    root = tmp_path_factory.mktemp("cli_inputs")
    groups, per_group, p, per_class = 24, 20, 512, 8  # S + C = 504 <= p
    c = groups * per_group
    edges, classes, grouping = [], [], []
    for g in range(groups):
        edges.append(f"root\tg{g}")
        grouping.append(f"g{g}\tg{g}")
        for j in range(per_group):
            edges.append(f"g{g}\tn{g * per_group + j}")
            classes.append(f"{g * per_group + j}\tn{g * per_group + j}")
    for name, lines in (("edges.tsv", edges), ("classes.tsv", classes),
                        ("groups.tsv", grouping)):
        (root / name).write_text("\n".join(lines) + "\n")
    tax = ["--hierarchy", str(root / "edges.tsv"), "--classes", str(root / "classes.tsv")]
    assert run(["labelspace", "build", *tax, "--groups", str(root / "groups.tsv"),
                "--out", str(root)]) == 0
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(c), per_class)
    x = rng.standard_normal((c, p))[labels] * 3 + rng.standard_normal((len(labels), p))
    write_features(FeatureSet(x, labels, c), root / "features.bin")
    write_head(ClassifierHead(rng.standard_normal((c, p)), rng.standard_normal(c)),
               root / "head.bin")
    (root / "traj.cfg").write_text(f"epochs=1\ndimension={p}\nexamples_per_class=2\n")
    nc = ["nc", "compute", "--features", str(root / "features.bin"),
          "--head", str(root / "head.bin")]
    space = ["--labelspace", str(root / "hypernyms.tsv")]
    return [nc, nc + space,
            ["manifold", "ccc", "--features", str(root / "features.bin"), *tax,
             "--k", "4", "--seed", "0"],
            ["synth", "features", *tax, *space, "--config", str(root / "traj.cfg"),
             "--seed", "1"],
            ["synth", "etf", "--class-count", "1000", "--dim", "1200"]]


def _child(tmp: Path, commands: list, dirs: list, **env) -> tuple:
    """Run ``commands`` through the CLI in a child process with ``env`` set, once
    into each of ``dirs`` (the second with nothing pinned).  Returns the core
    name OpenBLAS reports, or None, and for each dir its files' bytes by path."""
    src = str(Path(hierkit.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    dirs = [tmp / d for d in dirs]
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(commands), *map(str, dirs)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    files = [{f.relative_to(d).as_posix(): f.read_bytes()
              for f in sorted(d.rglob("*")) if f.is_file()} for d in dirs]
    return json.loads(proc.stdout.splitlines()[-1]), files


def test_cli_bytes_are_the_same_on_one_and_two_threads(tmp_path, cli_inputs):
    # The one-thread child also reruns every command with nothing pinned: at one
    # thread the pin may change no byte.
    if not kernels._blas_thread_api():
        pytest.skip(_ABSENT)
    _, (one, unpinned) = _child(tmp_path, cli_inputs, ["one", "unpinned"],
                                OPENBLAS_NUM_THREADS="1")
    _, (two,) = _child(tmp_path, cli_inputs, ["two"], OPENBLAS_NUM_THREADS="2")
    assert len(one) == 11  # five run.json, three nc_*.json, ccc.json and two .bin
    assert one == unpinned
    assert one == two


def test_ccc_and_nc3_are_the_same_under_every_openblas_kernel(tmp_path, cli_inputs):
    # ccc and nc3 are kernels._pair_dots sums, and their inputs call no BLAS
    runs = {}
    for kernel in ("", "Haswell", "Sandybridge"):
        env = {"OPENBLAS_CORETYPE": kernel} if kernel else {}
        runs[kernel] = _child(tmp_path, cli_inputs[:3], [kernel or "default"],
                              OPENBLAS_NUM_THREADS="1", **env)
    cores = {core for core, _ in runs.values()}
    if None in cores:
        pytest.skip("scipy_openblas_get_corename64_ is absent: not numpy's bundled "
                    "OpenBLAS, so OPENBLAS_CORETYPE cannot be seen to pick a kernel")
    if len(cores) == 1:
        pytest.skip(f"OPENBLAS_CORETYPE leaves the core at {cores.pop()}: not a "
                    "DYNAMIC_ARCH OpenBLAS, or this CPU runs none of those kernels")

    def kept(files):
        nc3 = {name: json.loads(data)["nc3"] for name, data in files.items()
               if name.startswith(("0/nc_", "1/nc_"))}
        return files["2/ccc.json"], nc3

    (_, (default,)), *others = runs.values()
    assert len(kept(default)[1]) == 3
    for core, (files,) in others:
        assert kept(files) == kept(default), core
