"""lift_to_superclass against a direct recomputation over superclass labels."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hierkit.collapse import class_statistics, lift_to_superclass
from hierkit.labelspace import LabelSpace
from hierkit.manifold import FeatureSet

_coord = st.floats(-100.0, 100.0, allow_subnormal=False)


@st.composite
def lift_inputs(draw):
    """Features with every class present and a partition of the classes."""
    c, p = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    counts = draw(arrays(np.int64, c, elements=st.integers(1, 5)))
    labels = np.repeat(np.arange(c), counts)[draw(st.permutations(range(counts.sum())))]
    x = draw(arrays(np.float64, (len(labels), p), elements=_coord))
    s_count = draw(st.integers(1, c))
    table = draw(arrays(np.int64, c, elements=st.integers(0, s_count - 1)))
    table[draw(st.permutations(range(c)))[:s_count]] = np.arange(s_count)
    return FeatureSet(x, labels, c), table, LabelSpace(name="s", table=table)


@settings(max_examples=150, deadline=None, database=None)
@given(lift_inputs())
def test_lift_matches_direct_superclass_statistics(inputs):
    f, table, space = inputs
    lifted, _ = lift_to_superclass(class_statistics(f), None, space)

    x, s_count = f.vectors, space.superclass_count
    class_means = np.array([x[f.labels == k].mean(axis=0) for k in range(f.class_count)])
    means = np.array([class_means[table == k].mean(axis=0) for k in range(s_count)])
    dev_w = x - means[table[f.labels]]
    dev_b = means - x.mean(axis=0)
    # each entry is a sum of products of coordinates: 1e-10 of their squared scale
    scale = max(1.0, float(np.abs(x).max()))
    np.testing.assert_array_equal(lifted.counts,
                                  np.bincount(table[f.labels], minlength=s_count))
    np.testing.assert_allclose(lifted.class_means, means, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(lifted.sigma_w, dev_w.T @ dev_w / len(x),
                               rtol=0, atol=1e-10 * scale**2)
    np.testing.assert_allclose(lifted.sigma_b, dev_b.T @ dev_b / s_count,
                               rtol=0, atol=1e-10 * scale**2)
