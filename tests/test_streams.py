import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosync import Box, EmpiricalMeasure, JOrder, clt, make_family, noise_at, sample_block, splitting, transport
from monosync.engine import _FILL_WORDS, _BlockTable
from monosync.families import BoxNoise, FiniteNoise
from monosync.streams import derive_seed, stream_generator

from oracles import finite_symbol, per_stream_table, single_stream

MASK64 = 2**64 - 1
EDGE_IDS = [0, 2**32 - 1, 2**32]

seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3]),
    st.integers(0, 2**80),
)
labels = st.one_of(st.just(0), st.integers(0, MASK64), st.text(max_size=12))
# runs of contiguous ids, the ends of the id range and repeats
id_lists = st.lists(
    st.one_of(st.sampled_from(EDGE_IDS + [MASK64 - 1, MASK64]), st.integers(0, MASK64), st.integers(0, 9)),
    max_size=8,
)

NOISES = {
    "finite-q2": FiniteNoise((0.5, 0.5)),
    "finite-q3": FiniteNoise((0.2, 0.3, 0.5)),
    "box-dim1": make_family("slide1d").noise,
    "box-dim2": BoxNoise(Box([0.0, -1.0], [1.0, 2.5])),
    "box-dim3": BoxNoise(Box([-3.0, 0.25, 1.0], [0.5, 0.75, 9.0])),
}
noises = st.sampled_from(sorted(NOISES)).map(NOISES.get)


def crossing_depths(noise, rows, name):
    """A depth list whose extensions end at the last value of a fill chunk or one value past it."""
    width = 1 if isinstance(noise, FiniteNoise) else noise.dim
    per = width * max(1, _FILL_WORDS // (4 * width * rows))  # counter blocks per chunk
    at = 4 * per // width  # the values of a first chunk
    return {"at-limit": [at], "past-limit": [at + 1], "at-then-past": [at, 2 * at + 1],
            "past-then-at": [at + 1, 2 * at + 1]}[name]


@pytest.mark.parametrize("noise_id", sorted(NOISES))
@pytest.mark.parametrize("depths", [
    [3, 7, 9], [16, 32, 24, 19], [0, 5], [5, 4099, 9001], [5000, 5016],
    "at-limit", "past-limit", "at-then-past", "past-then-at",
])
@pytest.mark.parametrize("stream_ids", [[7, 0, 1, 2**32, 3], [5]])
def test_block_table_matches_per_stream_generators(noise_id, depths, stream_ids):
    # every row against one Philox per (id, counter block) of the layout's definition
    noise = NOISES[noise_id]
    if isinstance(depths, str):
        depths = crossing_depths(noise, len(stream_ids), depths)
    table = _BlockTable(noise, 2024, "gap-tail", stream_ids)
    for d in depths:
        table.ensure(d)
    want = per_stream_table(noise, 2024, "gap-tail", stream_ids, max(depths))
    assert table.values.shape == want.shape
    if isinstance(noise, FiniteNoise):
        assert table.values.dtype == np.uint8
        assert np.array_equal(table.values, want)
    else:
        assert table.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_id", ["finite-q3", "box-dim3"])
def test_long_runs_are_cut_into_chunks(noise_id):
    # a run of more than _FILL_WORDS // 4 contiguous ids is filled a piece at a time
    noise = NOISES[noise_id]
    step = _FILL_WORDS // 4
    ids = range(2**64 - 2 * step - 3, 2**64)
    table = _BlockTable(noise, 8, "sync", ids)
    table.ensure(6)
    rows = [0, step - 1, step, 2 * step, len(ids) - 1]
    want = per_stream_table(noise, 8, "sync", [ids[r] for r in rows], 6)
    assert table.values[rows].tobytes() == want.astype(table.values.dtype).tobytes()


@settings(max_examples=100, deadline=None)
@given(noise=noises, seed=seeds, label=labels, ids=id_lists, depth=st.integers(0, 40))
@example(noise=NOISES["finite-q2"], seed=0, label="noise", ids=[MASK64 - 1, MASK64, 0, 1], depth=9)
@example(noise=NOISES["box-dim3"], seed=2**64, label=0, ids=[4, 3, 4, 5, 2**32, 2**32 + 1], depth=7)
def test_table_rows_are_their_one_row_tables(noise, seed, label, ids, depth):
    # runs of contiguous ids are filled together; a row does not depend on the others
    table = _BlockTable(noise, seed, label, ids)
    table.ensure(depth)
    for row, i in zip(table.values, ids):
        one = _BlockTable(noise, seed, label, [i])
        one.ensure(depth)
        assert row.tobytes() == one.values[0].tobytes()


@settings(max_examples=100, deadline=None)
@given(noise=noises, seed=seeds, ids=id_lists, depths=st.lists(st.integers(0, 600), min_size=1, max_size=6))
@example(noise=NOISES["box-dim3"], seed=1, ids=[0, 1, 2], depths=[1, 2, 3, 4, 5, 6, 7])
def test_any_ensure_sequence_equals_one_fill(noise, seed, ids, depths):
    table = _BlockTable(noise, seed, "sync", ids)
    for d in depths:
        table.ensure(d)
    once = _BlockTable(noise, seed, "sync", ids)
    once.ensure(max(depths))
    assert table.values.dtype == once.values.dtype
    assert table.values.tobytes() == once.values.tobytes()


@settings(max_examples=100, deadline=None)
@given(noise=noises, seed=seeds, stream_id=st.integers(-(2**65), 2**65), j=st.integers(0, 40))
@example(noise=NOISES["box-dim3"], seed=3, stream_id=MASK64, j=1)  # a value across two counter blocks
def test_noise_at_is_the_table_entry(noise, seed, stream_id, j):
    table = _BlockTable(noise, seed, "noise", [stream_id % 2**64])
    table.ensure(j + 1)
    got = np.asarray(noise_at(noise, seed, stream_id, j))
    assert got.tobytes() == table.values[0, j].astype(got.dtype).tobytes()


@settings(max_examples=100, deadline=None)
@given(noise=noises, seed=seeds, stream_id=st.one_of(st.integers(-(2**70), -1), st.integers(2**32, 2**70)))
@example(noise=NOISES["finite-q2"], seed=0, stream_id=-1)
@example(noise=NOISES["box-dim2"], seed=0, stream_id=2**64)
def test_sample_block_reduces_ids_mod_2_64(noise, seed, stream_id):
    got = sample_block(noise, seed, stream_id, 9, label="gap-fwd")
    want = sample_block(noise, seed, stream_id % 2**64, 9, label="gap-fwd")
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-(2**70), 2**70), label=labels)
@example(seed=-1, label="w1-floor")
def test_derive_seed_reduces_seeds_mod_2_64(seed, label):
    # as stream_generator and hash64 do, so a negative --seed runs every command
    assert derive_seed(seed, label) == derive_seed(seed % 2**64, label)
    assert derive_seed(-1, label) == derive_seed(2**64 - 1, label)


@settings(max_examples=100, deadline=None)
@given(noise=noises, seed=seeds, address=st.lists(labels, max_size=3), depth=st.integers(0, 40))
@example(noise=NOISES["box-dim3"], seed=5, address=["witness", 2**32], depth=5)
def test_address_without_ids_is_its_stream_generator(noise, seed, address, depth):
    table = _BlockTable(noise, seed, *address)
    table.ensure(depth)
    width = 1 if isinstance(noise, FiniteNoise) else noise.dim
    u = stream_generator(seed, *address).random((depth, width))
    if isinstance(noise, FiniteNoise):
        want = np.array([finite_symbol(x, noise.probs) for x in u[:, 0]], dtype=np.int64)
    else:
        want = noise.box.lo + u * (noise.box.hi - noise.box.lo)
    assert table.values.shape[0] == 1
    _assert_same(table.values[0], want)


@pytest.mark.parametrize("noise_id", sorted(NOISES))
@pytest.mark.parametrize("depths", [[3, 7, 9], [16, 32, 24, 19], [0, 5], [5, 4099]])
@pytest.mark.parametrize("address", [["push"], ["witness", 3], ["noise", 2**32 + 1]])
def test_one_row_table_matches_single_stream(noise_id, depths, address):
    noise = NOISES[noise_id]
    table = _BlockTable(noise, 2024, *address)
    for d in depths:
        table.ensure(d)
    assert table.values.shape[0] == 1
    _assert_same(table.values[0], single_stream(noise, 2024, address, max(depths)))


# the noise laws the consumers of one-stream draws are checked on: two symbols,
# three symbols of which one is never drawn, and 1-d and 2-d box parameters
STREAM_NOISES = {
    "finite-q2": FiniteNoise((0.5, 0.5)),
    "finite-q3-zero-mass": FiniteNoise((0.3, 0.0, 0.7)),
    "box-dim1": make_family("slide1d").noise,
    "box-dim2": NOISES["box-dim2"],
}


def _family(noise):
    """A 1-d family of ``noise``'s kind: affine maps for symbols, slide1d's body for parameters."""
    if isinstance(noise, FiniteNoise):
        q = noise.q
        params = {"mats": [[[0.5]]] * q, "offs": [[k / q] for k in range(q)]}
        return make_family("affine-general", probs=noise.probs, params=params)
    return make_family("slide1d", noise=noise)


def _assert_same(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.astype(got.dtype).tobytes()


@pytest.mark.parametrize("noise_id", sorted(STREAM_NOISES))
@pytest.mark.parametrize("stream_id", [0, 3, 2**32 - 1, 2**32, 2**40 + 7, MASK64, -1, -(2**33) - 5])
def test_sample_block_matches_single_stream(noise_id, stream_id):
    # the block is the one stream of replica id mod 2**64 of its label, so -1 is the stream 2**64 - 1
    noise = STREAM_NOISES[noise_id]
    block = sample_block(noise, 77, stream_id, 40, label="gap-fwd")
    _assert_same(block, per_stream_table(noise, 77, "gap-fwd", [stream_id % 2**64], 40)[0])
    if isinstance(noise, FiniteNoise):
        assert block.dtype == np.uint8


def _spy(monkeypatch, module, name, index):
    """Record argument ``index`` of every call to ``module.name``, and pass the call through."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(np.array(args[index]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("noise_id", sorted(STREAM_NOISES))
def test_push_forward_reads_the_push_stream(noise_id, monkeypatch):
    noise = STREAM_NOISES[noise_id]
    fam = _family(noise)
    seen = _spy(monkeypatch, transport, "_chain", 1)
    mu = EmpiricalMeasure.uniform(np.linspace(0.0, 1.0, 13)[:, None])
    transport.push_forward(fam, mu, 5, seed=31)
    want = single_stream(noise, 31, ["push"], 13 * 5)
    _assert_same(seen[0], want.reshape((13, 5) + want.shape[1:]))


@pytest.mark.parametrize("noise_id", sorted(STREAM_NOISES))
def test_poisson_chains_read_their_stream(noise_id, monkeypatch):
    # with no exact terms past P phi, the chains run from term 2 on
    monkeypatch.setattr(clt, "_EXACT_CAP", 0)
    noise = STREAM_NOISES[noise_id]
    fam = _family(noise)
    seen = _spy(monkeypatch, clt, "_chain", 1)
    pts = np.linspace(0.0, 1.0, 4)[:, None]
    terms = list(clt._terms(fam, lambda x: x[:, 0], pts, 6, 5, "poisson-chain", 9))
    assert len(terms) == 6
    want = single_stream(noise, 5, ["poisson-chain"], 5 * 9)
    # one row of the stream per step, read as one column per chain
    _assert_same(seen[0], np.swapaxes(want.reshape((5, 9) + want.shape[1:]), 0, 1))


@pytest.mark.parametrize("noise_id", sorted(STREAM_NOISES))
def test_splitting_witness_reads_one_stream_per_length(noise_id, monkeypatch):
    noise = STREAM_NOISES[noise_id]
    fam = _family(noise)
    seen = _spy(monkeypatch, splitting, "_split", 2)
    splitting.find_splitting_witness(fam, JOrder(1, frozenset([1])), 3, n_blocks=8, seed=12)
    assert seen
    for m, blocks in enumerate(seen, start=1):
        want = single_stream(noise, 12, ["witness", m], 8 * m)
        _assert_same(blocks, want.reshape((8, m) + want.shape[1:]))
