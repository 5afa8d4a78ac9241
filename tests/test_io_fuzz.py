"""Fuzzed binary headers and payloads: every reader fails only with ValueError."""

import numpy as np
from hypothesis import given, settings, strategies as st

from hierkit.io import (DMAT_MAGIC, FEATURES_MAGIC, HEAD_MAGIC, read_distance_matrix,
                        read_features, read_head)

READERS = (read_features, read_distance_matrix, read_head)

# Header fields are drawn both small (plausible shapes) and anywhere in u64.
_field = st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None, database=None)
@given(magic=st.sampled_from([FEATURES_MAGIC, DMAT_MAGIC, HEAD_MAGIC]),
       header=st.lists(_field, max_size=3),
       payload=st.binary(max_size=128))
def test_readers_raise_only_value_error(tmp_path_factory, magic, header, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(magic + np.array(header, dtype="<u8").tobytes() + payload)
    for reader in READERS:
        try:
            reader(path)
        except ValueError:
            pass
