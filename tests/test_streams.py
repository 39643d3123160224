import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosync import Box, make_family
from monosync.engine import _BlockTable
from monosync.families import BoxNoise, FiniteNoise
from monosync.streams import hash64, stream_keys

from oracles import per_stream_table

MASK64 = 2**64 - 1
EDGE_IDS = [0, 2**32 - 1, 2**32]

seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3]),
    st.integers(0, 2**80),
)
labels = st.one_of(st.just(0), st.integers(0, MASK64), st.text(max_size=12))
ids = st.lists(st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, MASK64)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, label=labels, stream_ids=ids)
@example(seed=0, label=0, stream_ids=EDGE_IDS)
@example(seed=2**32, label="noise", stream_ids=[2**32, 5, 2**32 - 1, 0, MASK64])
@example(seed=2**64 - 1, label=2**64 - 1, stream_ids=[1])
@example(seed=2**64 + 7, label="", stream_ids=[])
def test_stream_keys_match_seed_sequence(seed, label, stream_ids):
    want = [
        np.random.SeedSequence([seed & MASK64, hash64(label), i]).generate_state(2, np.uint64)
        for i in stream_ids
    ]
    got = stream_keys(seed, label, stream_ids)
    assert got.dtype == np.uint64 and got.shape == (len(stream_ids), 2)
    assert got.tobytes() == np.array(want, dtype=np.uint64).reshape(-1, 2).tobytes()


NOISES = {
    "finite-q2": FiniteNoise((0.5, 0.5)),
    "finite-q3": FiniteNoise((0.2, 0.3, 0.5)),
    "box-dim1": make_family("slide1d").noise,
    "box-dim2": BoxNoise(Box([0.0, -1.0], [1.0, 2.5])),
    "box-dim3": BoxNoise(Box([-3.0, 0.25, 1.0], [0.5, 0.75, 9.0])),
}


@pytest.mark.parametrize("noise_id", sorted(NOISES))
@pytest.mark.parametrize("depths", [[3, 7, 9], [16, 32, 24, 19], [0, 5], [5, 4099, 9001]])
@pytest.mark.parametrize("stream_ids", [[7, 0, 2**32, 3], [5]])
def test_block_table_matches_per_stream_generators(noise_id, depths, stream_ids):
    noise = NOISES[noise_id]
    table = _BlockTable(noise, 2024, "gap-tail", stream_ids)
    for d in depths:
        table.ensure(d)
    want = per_stream_table(noise, 2024, "gap-tail", stream_ids, depths)
    assert table.values.shape == want.shape
    if isinstance(noise, FiniteNoise):
        assert table.values.dtype == np.uint8
        assert np.array_equal(table.values, want)
    else:
        assert table.values.tobytes() == want.tobytes()
