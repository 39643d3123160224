import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosync import Box, EmpiricalMeasure, JOrder, clt, make_family, sample_block, splitting, transport
from monosync import engine
from monosync.engine import _SHORT_FILL, _VECTOR_ROWS, _BlockTable
from monosync.families import BoxNoise, FiniteNoise
from monosync.streams import _philox_words, hash64, philox_uniforms, stream_generator, stream_keys

from oracles import per_stream_table, single_stream

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


@settings(max_examples=200, deadline=None)
@given(seed=seeds, address=st.lists(labels, max_size=3))
@example(seed=0, address=[])
@example(seed=5, address=["witness", 2**32])
@example(seed=2**64 - 1, address=["push"])
def test_stream_keys_of_one_stream_match_seed_sequence(seed, address):
    # an address with no trailing sequence of ids is one stream: one row
    want = np.random.SeedSequence([seed & MASK64] + [hash64(lab) for lab in address])
    got = stream_keys(seed, *address)
    assert got.dtype == np.uint64 and got.shape == (1, 2)
    assert got.tobytes() == want.generate_state(2, np.uint64).tobytes()


@pytest.mark.parametrize("stream_id", [0, 2**32 - 1, 2**32, MASK64])
@pytest.mark.parametrize("wrap", [list, lambda x: np.array(x, dtype=np.uint64)])
def test_stream_keys_of_one_id_match_the_vectorized_path(stream_id, wrap):
    # a sequence of one id is keyed by seed_sequence; with the id twice it is vectorized
    got = stream_keys(11, "gap-tail", wrap([stream_id]))
    want = stream_keys(11, "gap-tail", wrap([stream_id, stream_id]))[:1]
    assert got.dtype == np.uint64 and got.shape == (1, 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ids", [range(3), [0, 5, 2**32, MASK64], np.array([7, 2**40], dtype=np.uint64)])
def test_stream_keys_take_ids_after_several_labels(ids):
    # row i of a trailing sequence of ids is the one stream whose last label is ids[i]
    got = stream_keys(9, "witness", 3, ids)
    want = np.concatenate([stream_keys(9, "witness", 3, int(i)) for i in ids])
    assert got.tobytes() == want.tobytes()


key_words = st.one_of(st.sampled_from([0, MASK64]), st.integers(0, MASK64))
counters = st.one_of(
    st.integers(0, 2**20),
    st.sampled_from([2**64 - 2, 2**64 - 1, 2**128 - 1, 2**256 - 2, 2**256 - 1]),
    st.integers(0, 2**256 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.tuples(key_words, key_words), min_size=1, max_size=4),
    counter=counters,
    skip=st.integers(0, 3),
    count=st.integers(0, 40),
)
@example(keys=[(0, 0), (MASK64, MASK64), (0, MASK64)], counter=0, skip=0, count=9)
@example(keys=[(MASK64, 0)], counter=5, skip=1, count=4)
@example(keys=[(1, 2)], counter=7, skip=2, count=1)
@example(keys=[(3, MASK64)], counter=2**64 - 1, skip=3, count=13)
@example(keys=[(0, 0)], counter=2**256 - 1, skip=3, count=6)
def test_philox_words_match_numpy(keys, counter, skip, count):
    got = _philox_words(np.array(keys, dtype=np.uint64), 4 * counter + skip, count)
    assert got.dtype == np.uint64 and got.shape == (len(keys), count)
    for row, (k0, k1) in zip(got, keys):
        want = np.random.Philox(key=k0 + (k1 << 64), counter=counter).random_raw(skip + count)[skip:]
        assert row.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=seeds, label=labels, stream_ids=ids, start=st.integers(0, 300), count=st.integers(0, 70))
@example(seed=0, label="noise", stream_ids=EDGE_IDS + [MASK64], start=3, count=64)
def test_philox_uniforms_match_stream_generators(seed, label, stream_ids, start, count):
    got = philox_uniforms(stream_keys(seed, label, stream_ids), start, count)
    want = [stream_generator(seed, label, i).random(start + count)[start:] for i in stream_ids]
    assert got.dtype == np.float64 and got.shape == (len(stream_ids), count)
    assert got.tobytes() == np.array(want, dtype=float).reshape(len(stream_ids), count).tobytes()


NOISES = {
    "finite-q2": FiniteNoise((0.5, 0.5)),
    "finite-q3": FiniteNoise((0.2, 0.3, 0.5)),
    "box-dim1": make_family("slide1d").noise,
    "box-dim2": BoxNoise(Box([0.0, -1.0], [1.0, 2.5])),
    "box-dim3": BoxNoise(Box([-3.0, 0.25, 1.0], [0.5, 0.75, 9.0])),
}


def crossing_depths(noise, name):
    """A depth list whose extensions sit at the short-fill limit or one noise value past it."""
    width = 1 if isinstance(noise, FiniteNoise) else noise.dim
    at = _SHORT_FILL // width  # the longest extension, in values, that the vectorized fill takes
    return {"at-limit": [at], "past-limit": [at + 1], "at-then-past": [at, 2 * at + 1],
            "past-then-at": [at + 1, 2 * at + 1]}[name]


@pytest.mark.parametrize("noise_id", sorted(NOISES))
@pytest.mark.parametrize("depths", [
    [3, 7, 9], [16, 32, 24, 19], [0, 5], [5, 4099, 9001], [5000, 5016],
    "at-limit", "past-limit", "at-then-past", "past-then-at",
])
@pytest.mark.parametrize("stream_ids", [[7, 0, 2**32, 3], [5]])
def test_block_table_matches_per_stream_generators(noise_id, depths, stream_ids, monkeypatch):
    # a table this small always fills row by row; let the short extensions take the kernel
    monkeypatch.setattr(engine, "_VECTOR_ROWS", 1)
    noise = NOISES[noise_id]
    if isinstance(depths, str):
        depths = crossing_depths(noise, depths)
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


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of uniforms per row of each call the table fill makes to the vectorized kernel."""
    calls = []

    def spy(keys, start, count):
        calls.append(count)
        return philox_uniforms(keys, start, count)

    monkeypatch.setattr(engine, "philox_uniforms", spy)
    return calls


def test_long_fills_stay_per_row(kernel_calls):
    noise = NOISES["finite-q2"]
    _BlockTable(noise, 1, "clt-chain", range(1000)).ensure(10_000)
    assert kernel_calls == []
    table = _BlockTable(noise, 1, "noise", range(4096))
    table.ensure(16)
    table.ensure(32)
    # 4096 rows of 4 counter blocks each, a call per 4096 blocks, per extension
    assert kernel_calls == [16] * 8


@pytest.mark.parametrize("noise_id", sorted(NOISES))
def test_fill_choice_turns_at_the_short_fill_limit(noise_id, kernel_calls):
    noise = NOISES[noise_id]
    width = 1 if isinstance(noise, FiniteNoise) else noise.dim
    table = _BlockTable(noise, 3, "sync", range(_VECTOR_ROWS))
    table.ensure(crossing_depths(noise, "at-limit")[0])
    assert kernel_calls == [_SHORT_FILL // width * width]
    table.ensure(2 * _SHORT_FILL // width + 1)
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("rows", [1, 64, _VECTOR_ROWS - 1, _VECTOR_ROWS, 4096])
def test_fill_choice_needs_enough_rows(rows, kernel_calls):
    # below _VECTOR_ROWS rows the per-row fill is faster however short the extension
    table = _BlockTable(NOISES["finite-q2"], 3, "sync", range(rows))
    table.ensure(16)
    # 16 uniforms are 4 counter blocks per row, and a kernel call takes 4096 blocks
    assert kernel_calls == ([] if rows < _VECTOR_ROWS else [16] * -(-rows // 1024))


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
    # the id is reduced mod 2**64, so -1 is the stream 2**64 - 1
    noise = STREAM_NOISES[noise_id]
    block = sample_block(noise, 77, stream_id, 40, label="gap-fwd")
    _assert_same(block.values, single_stream(noise, 77, ["gap-fwd", stream_id % 2**64], 40))
    if isinstance(noise, FiniteNoise):
        assert block.values.dtype == np.uint8


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
