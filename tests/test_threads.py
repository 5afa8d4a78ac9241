"""The one thread pool (``kernels._pooled``) and the one BLAS pin
(``kernels._one_blas_thread``).

The pin holds numpy's bundled OpenBLAS at one thread while anyone is inside and
restores the count when the last holder leaves, whatever happens inside.  The
pinned library calls keep their bits: a child process at one BLAS thread and one
at two give the same bytes, pinned or not.  Where the OpenBLAS symbols are
absent the pin does nothing, and pooled tasks that call the BLAS run serially.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hierkit
import hierkit.collapse as collapse
import hierkit.kernels as kernels
import hierkit.synth as synth
from hierkit.collapse import class_statistics, lift_to_superclass, nc1
from hierkit.synth import default_trajectory_params, gen_hierarchical_trajectory

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
def pins(monkeypatch):
    """The ``pin`` argument of every ``_one_blas_thread`` call that collapse makes."""
    seen = []
    pin = kernels._one_blas_thread

    def recording(flag=True):
        seen.append(bool(flag))
        return pin(flag)

    monkeypatch.setattr(collapse, "_one_blas_thread", recording)
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


def test_unpinned_call_leaves_the_count(blas_threads):
    with kernels._one_blas_thread(False):
        assert blas_threads() == 2
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
    stats = class_statistics(f)
    assert blas_threads() == 2
    lifted, _ = lift_to_superclass(stats, None, space)
    assert blas_threads() == 2
    nc1(stats)
    nc1(lifted)
    assert blas_threads() == 2
    assert pins == [True, True, True, True]


def test_larger_shapes_are_not_pinned(blas_threads, pins):
    # p = 65 is past every rule; 2049 examples past class_statistics' rule
    f, space = _desk_stats(p=65)
    stats = class_statistics(f)
    lift_to_superclass(stats, None, space)
    nc1(stats)
    wide, _ = _desk_stats(p=64, groups=3, per_group=3, per_class=683)
    class_statistics(wide)
    assert pins == [False, False, False, False]
    assert blas_threads() == 2


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


# ------------------------------------ the pinned shapes at one and two threads

_CHILD = """
import hashlib, json
import numpy as np
import hierkit.kernels as kernels
from hierkit.collapse import class_statistics, lift_to_superclass, nc1
from hierkit.hierarchy import parse_hierarchy
from hierkit.labelspace import build_labelspace, parse_grouping
from hierkit.manifold import FeatureSet
from hierkit.synth import default_trajectory_params, gen_hierarchical_trajectory


def tree(groups, per_group):
    edges, classes, grouping = [], [], []
    for g in range(groups):
        edges.append(f"root\\tg{g}")
        grouping.append(f"g{g}\\tg{g}")
        for j in range(per_group):
            c = g * per_group + j
            edges.append(f"g{g}\\tn{c}")
            classes.append(f"{c}\\tn{c}")
    h = parse_hierarchy(edges, classes)
    return h, build_labelspace(h, parse_grouping(grouping), name="s")[0]


def trajectory(groups, per_group, p, per_class, epochs):
    h, s = tree(groups, per_group)
    params = default_trajectory_params(epochs=epochs, dimension=p,
                                       examples_per_class=per_class, seed=5)
    return gen_hierarchical_trajectory(h, s, params), s


def features(groups, per_group, p, per_class):
    c = groups * per_group
    rng = np.random.default_rng(c * p)
    labels = np.repeat(np.arange(c), per_class)
    x = rng.standard_normal((c, p))[labels] * 3 + rng.standard_normal((len(labels), p))
    return [FeatureSet(x, labels, c)], tree(groups, per_group)[1]


def digest(sets, s, statistics=True):
    out = hashlib.sha256()
    for f in sets:
        out.update(f.vectors.tobytes())
        if statistics:
            stats = class_statistics(f)
            lifted, _ = lift_to_superclass(stats, None, s)
            for a in (stats.sigma_w, stats.sigma_b, lifted.sigma_w, lifted.sigma_b,
                      np.array([nc1(stats), nc1(lifted)])):
                out.update(a.tobytes())
    return out.hexdigest()


def digests():
    return [
        digest(*trajectory(3, 20, 64, 20, 4)),  # the desk shape
        digest(*features(2, 32, 64, 32)),  # N = 2048, C = 64 and p = 64
        digest(*features(8, 256, 11, 1)),  # C = 2048 at p = 11
        digest(*trajectory(4, 31, 128, 2, 1), statistics=False),  # a 128 x 128 qr
        digest(*features(2, 50, 100, 10)),  # past every rule: the thread count shows here
    ]


pinned = digests()
kernels._blas_threads = ()  # as if the symbols were absent: nothing is pinned
print(json.dumps({"pinned": pinned, "unpinned": digests()}))
"""


def _child(threads: str) -> dict:
    src = str(Path(hierkit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_pinned_shapes_give_the_same_bytes_on_one_and_two_threads():
    # Each child computes every shape pinned where the rules say so, then with
    # nothing pinned: a pin may change no byte.  The shapes within the rules must
    # give the same bytes at one thread and at two; the last one, past them,
    # checks that no rule pins a shape whose bits follow the thread count.
    if not kernels._blas_thread_api():
        pytest.skip(_ABSENT)
    one, two = _child("1"), _child("2")
    assert one["pinned"] == one["unpinned"]
    assert two["pinned"] == two["unpinned"]
    assert one["pinned"][:4] == two["pinned"][:4]
