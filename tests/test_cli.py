import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosync import make_family, sync, transport
from monosync.cli import _CHOICES, _COMMANDS, EXIT_USAGE, _option, main
from monosync.engine import _BlockTable
from monosync.families import _default_probe
from monosync.streams import NOISE_LAYOUT
from oracles import reverse_rowwise


def run(args):
    return main(args)


def read_json(path):
    return json.loads(Path(path).read_text())


def test_check_splitting_verified(tmp_path):
    out = tmp_path / "a"
    code = run(["check-splitting", "--family", "cantor1d", "--m-max", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = read_json(out / "splitting.json")
    assert doc["verified"] and doc["m"] == 1
    assert (out / "manifest.json").exists()


def test_check_splitting_unverified_exit_2(tmp_path):
    code = run(["check-splitting", "--family", "rot2d", "--m-max", "2", "--seed", "1", "--out", str(tmp_path / "b")])
    assert code == 2


def test_verification_reports_count_saturated_rows(tmp_path):
    # clamped at 0.5, block 2's image [2/3, 1] crosses the clamp
    config = tmp_path / "clamped.json"
    config.write_text(json.dumps({"family": "cantor1d", "clamp": 0.5}))
    fam = make_family("cantor1d", clamp_bound=0.5)
    probe = _default_probe(fam)
    out = tmp_path / "split"
    assert run(["check-splitting", "--config", str(config), "--out", str(out)]) == 0
    doc = read_json(out / "splitting.json")
    assert (doc["m"], doc["verified"], doc["n_saturated"]) == (1, True, 1)
    # sigma decay: the replicas that saturated at any depth it imaged
    out = tmp_path / "sigma"
    args = ["sigma-decay", "--x", "0.1", "--replicas", "100", "--j-max", "4"]
    assert run(args + ["--config", str(config), "--out", str(out)]) == 0
    doc = read_json(out / "sigma_decay.json")
    j = doc["truncated_at"] or 4
    table = _BlockTable(fam.noise, 0, "sigma", range(100))
    table.ensure(j)
    sat = [reverse_rowwise(fam, table.values, [d] * 100, probe)[1] for d in range(1, j + 1)]
    assert doc["n_saturated"] == int(np.any(sat, axis=0).sum()) > 0
    assert doc["splitting"]["n_saturated"] == 1
    # sync rate: the replicas that saturated at any depth of the diameter series
    out = tmp_path / "sync"
    assert run(["sync-rate", "--config", str(config), "--out", str(out)]) == 0
    series = sync.diameter_series(fam, n_max=20, replicas=64, seed=0)
    assert read_json(out / "rate_fit.json")["n_saturated"] == int(series.saturated.sum()) > 0


def test_usage_errors_exit_1(tmp_path):
    assert run(["check-splitting", "--family", "nope", "--out", str(tmp_path / "c")]) == 1
    assert run(["check-splitting", "--no-such-flag", "1"]) == 1
    assert run(["no-such-command"]) == 1
    # a config produced by another command is rejected
    out = tmp_path / "d"
    run(["check-splitting", "--family", "cantor1d", "--out", str(out)])
    assert run(["sync-rate", "--config", str(out / "manifest.json"), "--out", str(tmp_path / "e")]) == 1


@pytest.mark.parametrize("args", [
    # the noise floor divides by the particle count and half-splits the reference
    ["w1-decay", "--family", "cantor1d", "--n-max", "2", "--n-particles", "0", "--ref-size", "64"],
    ["w1-decay", "--family", "cantor1d", "--n-max", "2", "--n-particles", "64", "--ref-size", "1"],
    # no sampled parameter is no evidence of monotonicity, not a pass
    ["check-monotone", "--family", "slide1d", "--n-alphas", "0"],
    # an exact scan of no block length has no report to write
    ["check-splitting", "--family", "cantor1d", "--m-max", "0"],
    # one replica leaves the path diagnostics without a sample variance
    ["clt", "--family", "cantor1d", "--n", "10", "--replicas", "1", "--mu-size", "64", "--grid-size", "16"],
])
def test_empty_sizes_are_usage_errors(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path / "u")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "u").exists()


_CLT_SMALL = ["--n", "20", "--replicas", "4", "--mu-size", "64", "--grid-size", "16"]


@pytest.mark.parametrize("args", [
    ["clt", "--family", "cantor1d", "--observable", "coord:abc", *_CLT_SMALL],
    ["clt", *_CLT_SMALL, {"family": "cantor1d", "observable": {"kind": "affine"}}],
    ["simulate", "--family", "cantor1d", "--x0", "abc"],
    ["check-splitting", {"family": "cantor1d", "J": [3]}],
    ["check-splitting", {"family": "cantor1d", "domain": {"lo": [1.0], "hi": [0.0]}}],
    ["check-splitting", {"family": ["cantor1d"]}],
    ["check-splitting", {"family": "cantor1d", "params": [1]}],
    # an option's value is typed as its default declares, from a config as from a flag
    ["stationary", {"family": "cantor1d", "n_samples": "abc"}],
    ["stationary", {"family": "cantor1d", "seed": "x"}],
    ["stationary", {"family": "cantor1d", "tol": None}],
    ["clt", *_CLT_SMALL, {"family": "cantor1d", "observable": 5}],
    ["stationary", {"family": "cantor1d", "n_samples": 64.9}],
    ["check-splitting", {"family": "cantor1d", "m_max": 2.5}],
    ["simulate", {"family": "cantor1d", "n": True}],
    ["clt", *_CLT_SMALL, {"family": "cantor1d", "dump_paths": "no"}],
    ["check-splitting", {"family": "cantor1d", "method": "bogus"}],
    ["simulate", {"family": "cantor1d", "direction": "sideways"}],
    ["stationary", "--family", "cantor1d", "--n-samples", "64.9"],
], ids=["observable-coord", "observable-affine", "x0", "J", "domain", "family-list", "params-list",
        "n_samples-text", "seed-text", "tol-null", "observable-int", "n_samples-fraction",
        "m_max-fraction", "n-bool", "dump_paths-text", "method-bogus", "direction-sideways",
        "n_samples-flag-fraction"])
def test_malformed_inputs_are_usage_errors(tmp_path, capsys, args):
    # parsed where they enter, so the run stops before it writes anything
    if isinstance(args[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args[-1]))
        args = args[:-1] + ["--config", str(config)]
    assert run(args + ["--out", str(tmp_path / "new" / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "new").exists()


def _wrong_values(name, default):
    """Config values that option ``name``, of default ``default``, must refuse."""
    kinds = [st.text(max_size=4).map(lambda t: t + "?"), st.none(),
             st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)]
    if name in _CHOICES:
        kinds += [st.booleans(), st.integers(), st.floats()]
    elif default is False:
        kinds += [st.integers(), st.floats()]
    elif isinstance(default, int):
        kinds += [st.booleans(), st.floats()]
    else:
        kinds += [st.booleans()]
    return st.one_of(kinds)


# every (command, option, default) whose value is typed before the run: the
# seed and each option but those a parser of their own reads (default None or text)
_TYPED_OPTIONS = [
    (command, name, default)
    for command, (_, _, options) in _COMMANDS.items()
    for name, default in {"seed": 0, **{k: _option(v)[0] for k, v in options.items()}}.items()
    if name in _CHOICES or not (default is None or isinstance(default, str))
]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=st.sampled_from(_TYPED_OPTIONS).flatmap(
    lambda c: st.tuples(st.just(c), _wrong_values(c[1], c[2]))))
def test_config_values_of_the_wrong_kind_are_usage_errors(case):
    # a new option whose default is mistyped, or a runner cast that bypasses
    # the typing, lets one of these through or raises something else
    (command, name, _), value = case
    with tempfile.TemporaryDirectory() as tmp:
        config, out, err = Path(tmp) / "config.json", Path(tmp) / "out", io.StringIO()
        config.write_text(json.dumps({"family": "cantor1d", name: value}))
        with contextlib.redirect_stderr(err):
            code = run([command, "--config", str(config), "--out", str(out)])
        assert code == EXIT_USAGE, (command, name, value)
        assert err.getvalue().startswith("usage error:")
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sigma-decay", "--family", "cantor1d", "--s", "2"],
    ["w1-decay", "--family", "cantor2d", "--n-particles", "100", "--ref-size", "200"],
], ids=["sigma-decay", "w1-decay"])
def test_runner_usage_error_takes_back_the_manifest(tmp_path, args):
    # the runner rejects its sizes after main wrote the manifest: the
    # manifest goes, and so do the directories the call made; a directory
    # that was there before keeps what it held, its manifest included
    fresh = tmp_path / "new" / "out"
    assert run(args + ["--out", str(fresh)]) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept"
    assert run(["stationary", "--family", "cantor1d", "--n-samples", "64", "--out", str(kept)]) == 0
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    assert run(args + ["--out", str(kept)]) == EXIT_USAGE
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_w1_decay_rejects_unpaired_sizes_before_sampling(tmp_path, capsys, monkeypatch):
    # exact matching (both sizes <= 512) pairs the points one to one, so
    # 300 particles against a 400-point reference is refused up front
    monkeypatch.setattr(transport, "pullback_sample", lambda *a, **k: pytest.fail("sampled the reference"))
    args = ["w1-decay", "--family", "cantor2d", "--n-max", "3", "--n-particles", "300", "--ref-size", "400"]
    assert run(args + ["--out", str(tmp_path / "w")]) == EXIT_USAGE
    assert "n_particles and ref_size must be equal" in capsys.readouterr().err


def test_check_monotone(tmp_path):
    assert run(["check-monotone", "--family", "cantor1d", "--seed", "2", "--out", str(tmp_path / "m")]) == 0
    assert run(["check-monotone", "--family", "rot2d", "--seed", "2", "--out", str(tmp_path / "r")]) == 2
    doc = read_json(tmp_path / "m" / "monotonicity.json")
    assert all(v["kind"] == "increasing" for v in doc["verdicts"])


def test_check_monotone_counts_saturated_pairs(tmp_path):
    # map 2 of cantor1d, x/3 + 2/3 >= 2/3, is clamped to 0.5 on every pair: the verdict
    # and the exit code stay those of the clamped map, and the count says why
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": "cantor1d", "clamp": 0.5}))
    assert run(["check-monotone", "--config", str(config), "--out", str(tmp_path / "m")]) == 2
    doc = read_json(tmp_path / "m" / "monotonicity.json")
    got = [(v["alpha"], v["kind"], v["n_saturated"], v["pairs_tested"]) for v in doc["verdicts"]]
    assert got == [(1, "increasing", 0, 200), (2, "neither", 200, 200)]


def test_simulate_csv_header_carries_seed(tmp_path):
    out = tmp_path / "sim"
    assert run([
        "simulate", "--family", "cantor1d", "--n", "10", "--x0", "0.5",
        "--direction", "reverse", "--seed", "7", "--out", str(out),
    ]) == 0
    lines = (out / "orbit.csv").read_text().strip().split("\n")
    assert lines[0] == "# seed=7"
    assert lines[1].startswith("step,x_1")


def test_sync_rate_artifacts(tmp_path):
    out = tmp_path / "sync"
    assert run([
        "sync-rate", "--family", "cantor1d", "--n-max", "15", "--replicas", "16",
        "--seed", "3", "--out", str(out),
    ]) == 0
    fit = read_json(out / "rate_fit.json")
    assert 0.32 <= fit["r_hat"] <= 0.35
    assert fit["boundedness"]["bounded"] is True
    lines = (out / "diam_series.csv").read_text().strip().split("\n")
    assert lines[0] == "# seed=3"


def test_overflowing_bound_cells_are_inf(tmp_path):
    # exp1d's fitted rate grows: c * r^n passes the largest float at n = 5
    out = tmp_path / "exp"
    assert run(["sync-rate", "--family", "exp1d", "--n-max", "6", "--replicas", "8", "--out", str(out)]) == 0
    fit = read_json(out / "rate_fit.json")
    cells = [line.rsplit(",", 1)[1] for line in (out / "diam_series.csv").read_text().splitlines()[2:]]
    assert cells[5:] == ["inf", "inf"]
    assert [float(c) for c in cells[:5]] == [fit["c_hat"] * fit["r_hat"] ** n for n in range(5)]


def test_sigma_decay_command(tmp_path):
    out = tmp_path / "sig"
    assert run([
        "sigma-decay", "--family", "cantor1d", "--m", "1", "--x", "0.3333333333333333",
        "--s", "1", "--j-max", "4", "--replicas", "400", "--seed", "5", "--out", str(out),
    ]) == 0
    doc = read_json(out / "sigma_decay.json")
    assert doc["splitting"]["verified"]
    assert doc["lambda_from_masses"] == pytest.approx(0.5)


def test_sigma_decay_masses_bound_is_per_block_of_m(tmp_path):
    # splitting holds at m' = 1 with masses 0.3 and 0.7: membership decays by at
    # most 0.7 a step, so by 0.7 ** 2 a block of m = 2 steps, lambda_bound's unit
    config = tmp_path / "skew.json"
    config.write_text(json.dumps({"family": "cantor1d", "probs": [0.3, 0.7]}))
    out = tmp_path / "sig"
    assert run([
        "sigma-decay", "--config", str(config), "--m", "2", "--x", "0.1", "--replicas", "4000",
        "--j-max", "6", "--seed", "2", "--out", str(out),
    ]) == 0
    doc = read_json(out / "sigma_decay.json")
    split = doc["splitting"]
    assert (split["m"], split["mass_a"], split["mass_b"]) == (1, 0.3, 0.7)
    assert doc["lambda_from_masses"] == (1.0 - 0.3) ** 2 == 0.48999999999999994
    assert doc["lambda_bound"] <= doc["lambda_from_masses"]


def test_stationary_command(tmp_path):
    out = tmp_path / "st"
    assert run([
        "stationary", "--family", "cantor1d", "--n-samples", "2000",
        "--seed", "11", "--out", str(out),
    ]) == 0
    doc = read_json(out / "stationary.json")
    assert abs(doc["mean"][0] - 0.5) < 0.05
    assert doc["n_saturated"] == 0
    assert (out / "stationary.csv").exists()


def test_forward_gap_command(tmp_path):
    out = tmp_path / "gap"
    assert run([
        "forward-gap", "--family", "cantor1d", "--n", "8", "--x0", "0.5",
        "--seed", "2", "--out", str(out),
    ]) == 0
    lines = (out / "forward_gap.csv").read_text().strip().split("\n")
    assert lines[1] == "n,gap,image_diam_bound,pullback_depth,saturated"
    assert len(lines) == 2 + 8


def test_w1_decay_command(tmp_path):
    out = tmp_path / "w1"
    assert run([
        "w1-decay", "--family", "cantor1d", "--n-max", "6", "--n-particles", "1024",
        "--ref-size", "1024", "--initial-point", "0", "--seed", "4", "--out", str(out),
    ]) == 0
    doc = read_json(out / "w1_fit.json")
    assert doc["fit"] is not None
    assert doc["floor"] > 0


@pytest.mark.parametrize(("args", "artifact"), [
    (["w1-decay", "--family", "cantor1d", "--n-max", "2", "--n-particles", "64", "--ref-size", "64"], "w1_decay.csv"),
    (["clt", "--family", "cantor1d", *_CLT_SMALL], "clt_report.json"),
], ids=["w1-decay", "clt"])
def test_negative_seed_is_its_residue_mod_2_64(tmp_path, args, artifact):
    # every stream and derived seed takes the root seed mod 2**64: the
    # artifacts differ only where they write the seed
    got = []
    for seed in ("-1", str(2**64 - 1)):
        path = tmp_path / seed / artifact
        assert run(args + ["--seed", seed, "--out", str(path.parent)]) == 0
        if path.suffix == ".json":
            got.append({k: v for k, v in read_json(path).items() if k != "seed"})
        else:
            got.append(path.read_text().split("\n", 1)[1])
    assert got[0] == got[1]


def test_flag_and_config_values_write_one_manifest(tmp_path):
    # a float option's integer is the float it stands for, from a flag or a config
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": "cantor1d", "tol": 1}))
    args = ["stationary", "--n-samples", "16"]
    assert run(args + ["--family", "cantor1d", "--tol", "1", "--out", str(tmp_path / "flag")]) == 0
    assert run(args + ["--config", str(config), "--out", str(tmp_path / "config")]) == 0
    manifests = [(tmp_path / d / "manifest.json").read_bytes() for d in ("flag", "config")]
    assert manifests[0] == manifests[1]
    assert read_json(tmp_path / "flag" / "manifest.json")["tol"] == 1.0


def test_clt_command(tmp_path):
    out = tmp_path / "clt"
    assert run([
        "clt", "--family", "cantor1d", "--observable", "coord:1", "--n", "1000",
        "--replicas", "500", "--mu-size", "1024", "--grid-size", "512",
        "--seed", "6", "--out", str(out),
    ]) == 0
    doc = read_json(out / "clt_report.json")
    assert doc["sigma2_mg"] == pytest.approx(0.25, rel=0.15)
    assert doc["seed"] == 6


def test_manifest_roundtrip_bytes(tmp_path):
    # slide1d's manifest holds a noise box, which family_from_config reads back
    cases = [
        (["sync-rate", "--family", "cantor1d", "--n-max", "12", "--replicas", "8", "--seed", "9"],
         ("manifest.json", "diam_series.csv", "rate_fit.json")),
        (["check-splitting", "--family", "slide1d", "--seed", "3"], ("manifest.json", "splitting.json")),
    ]
    for i, (args, names) in enumerate(cases):
        out_a = tmp_path / f"A{i}"
        out_b = tmp_path / f"B{i}"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run([args[0], "--config", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (args[0], name)


# Every manifest holds the family's config, the command, seed and noise layout,
# and each of the command's options, given or not: the keys --config replays.
_MANIFEST_COMMON = ["J", "clamp", "command", "domain", "family", "noise_layout", "probs", "seed", "strict_tol"]


# Each command's small-size flags, and the options its manifest records.
_MANIFEST_OPTIONS = {
    "check-monotone": (["--n-pairs", "20"], ["n_alphas", "n_pairs"]),
    "check-splitting": (["--m-max", "1"], ["m_max", "method", "n_blocks"]),
    "sigma-decay": (["--j-max", "2", "--replicas", "100"], ["j_max", "m", "replicas", "s", "x"]),
    "sync-rate": (["--n-max", "8", "--replicas", "8"], ["n_max", "replicas"]),
    "forward-gap": (["--n", "3"], ["n", "tail_tol", "x0"]),
    "stationary": (["--n-samples", "16"], ["n_max", "n_samples", "tol"]),
    "w1-decay": (["--n-max", "1", "--n-particles", "16", "--ref-size", "16"],
                 ["initial_point", "n_max", "n_particles", "ref_size"]),
    "clt": (["--n", "20", "--replicas", "10", "--mu-size", "32", "--grid-size", "16"],
            ["dump_paths", "grid_size", "mu_size", "n", "observable", "replicas", "tol"]),
    "simulate": (["--n", "5"], ["direction", "n", "stream_id", "x0"]),
}


@pytest.mark.parametrize("command", list(_MANIFEST_OPTIONS))
def test_manifest_records_every_option(tmp_path, command):
    args, options = _MANIFEST_OPTIONS[command]
    out = tmp_path / "m"
    assert run([command, *args, "--family", "cantor1d", "--out", str(out)]) == 0
    assert sorted(read_json(out / "manifest.json")) == sorted(_MANIFEST_COMMON + options)


def test_default_order_follows_the_declared_signs(tmp_path):
    # both maps are monotone in the order (+1, -1), not in the all-increasing one;
    # without J the family's declared signs give that order
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps({"family": "affine-general", "params": {
        "mats": [[[0.5, -0.2], [-0.2, 0.5]], [[0.3, -0.1], [-0.1, 0.4]]],
        "offs": [[0.1, 0.2], [0.5, -0.3]]}}))
    for command, artifact in (("check-monotone", "monotonicity.json"), ("check-splitting", "splitting.json")):
        out = tmp_path / command
        assert run([command, "--config", str(config), "--out", str(out)]) == 0, command
        assert read_json(out / "manifest.json")["J"] == [1]
    assert read_json(tmp_path / "check-splitting" / "splitting.json")["verified"]


@pytest.mark.parametrize("layout", ["philox4x64-10 key=address+id counter=block", None])
def test_manifest_of_another_noise_layout_is_refused(tmp_path, capsys, layout):
    # the same seed in another layout is other noise: refused, not silently replayed
    out = tmp_path / "A"
    args = ["sync-rate", "--family", "cantor1d", "--n-max", "12", "--replicas", "8", "--seed", "9"]
    assert run(args + ["--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["noise_layout"] == NOISE_LAYOUT
    if layout is None:  # written before manifests recorded a layout
        del manifest["noise_layout"]
    else:
        manifest["noise_layout"] = layout
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    assert run(["sync-rate", "--config", str(old), "--out", str(tmp_path / "B")]) == EXIT_USAGE
    assert "noise layout" in capsys.readouterr().err
    assert not (tmp_path / "B").exists()


def test_threads_do_not_change_artifacts(tmp_path):
    out_1 = tmp_path / "t1"
    out_8 = tmp_path / "t8"
    base = ["stationary", "--family", "cantor1d", "--n-samples", "3000", "--seed", "13"]
    assert run(base + ["--threads", "1", "--out", str(out_1)]) == 0
    assert run(base + ["--threads", "8", "--out", str(out_8)]) == 0
    for name in ("manifest.json", "stationary.csv", "stationary.json"):
        assert (out_1 / name).read_bytes() == (out_8 / name).read_bytes(), name


# Each case's id names its command, family and artifact, so a re-frozen digest keeps the name.
# Digests re-frozen when a report gained a key (or when the meaning of one
# changed): the frozen digest maps to those keys, a nested one as a path, and to
# the digest of the file written again without them, which is the digest of the
# file before, less those keys.  So the rest of the file keeps its bytes.
_REFROZEN = {
    # stationary.json exp1d: n_saturated counts the samples saturated at the depth they
    # return (369 of 512), no longer at any depth the search visited (475)
    "ab09521c3f9f4655248c905096dc0a0cf1198b95d766cece9e04f3770cbc34ee": (
        [("n_saturated",)],
        "85a82608c41f329f085cfc83716d0481b4aafb6072768c42161e36c46c6d6df3",
    ),
    # rate_fit.json gained n_saturated (exp1d 64 of 64 replicas, arctanexp2d and lip-pair 0)
    "aed708aa37c2886a4b41794f6696a5717c00a914c4e8fca7233bc1f473577ee0": (
        [("n_saturated",)],
        "4e9bdae39e9f87738cd24cb2f8a641f4034d643ea79fcb97339185070bdce1bb",
    ),
    "16818d78b3f90a3a3ab11f4a146969e1c7cb37244f44bf695df3037fd8d2b8d8": (
        [("n_saturated",)],
        "6ebefed1aafb47c1e7e2fa444da9b7bc82a6bb1c99fd417351dc56abd3a855cb",
    ),
    "21be312f1fd6afc918add9291e1d58006ffa23156b8030da93c64e27b8b02b4d": (
        [("n_saturated",)],
        "2bffbd9e18e77d52c9f21706cf0274aadde0b6bb88be5ad5777043e9a043ad74",
    ),
    # splitting.json gained n_saturated (0 in all three)
    "645fa8d4b267ab42688691093548209963a84fd7d594aeb58c8134b3c036ab2c": (
        [("n_saturated",)],
        "dee720cbe76575d2773d3c7c60a219758abf19ffd324e5aa742344222b1daff5",
    ),
    "6dc53966daf8805c58bafae2226ced4a1fd9274bcc7b6a1478b79852699c8b1f": (
        [("n_saturated",)],
        "e83f72b68ebf3e4379ead40c4eb57f0cd7904b7dc1de23a9d1dc6c0f759b9c05",
    ),
    "23b4c351825afa8402ab3062600b73964630ebf35a71f2ba817e980661d14b54": (
        [("n_saturated",)],
        "0a1f06ea15a3dca47ef533692eaa17bc4f55bde17f505c02fa0b74e005b4513e",
    ),
    # sigma_decay.json gained n_saturated, and so did the splitting report it holds (0 and 0)
    "e367439f4b0d9f320fd44a0aa2689727a10c6d8f368f5e09f572aed1d116b3c5": (
        [("n_saturated",), ("splitting", "n_saturated")],
        "26d85a82280d966f357f51efd1b811e40e8de52ec7a4b9e3c9921cc00258a8cb",
    ),
    # clt_report.json gained poisson_converged (true in both)
    "9d41caf15810bc4744203fc4c910a4bbca1a88ff2dd17b1ad50d955bee85ee1a": (
        [("poisson_converged",)],
        "5728c8615c98811a5bff19e5766473b7ae3a0cb1e1e1174f40c950e0def83ffe",
    ),
    "24abb1a0a0bebc1e6e0a80b8e1785c083e2418033dcdc6f839086b1d18d6ffe8": (
        [("poisson_converged",)],
        "db68593e9f6c9168619c7d745094f250cbd697966fab1d2cdc6bf17b634cd94b",
    ),
    # monotonicity.json gained n_saturated in every verdict (0 in all of them)
    "36e184c543f442bcfbce6c22cfab395513c283d53fa56c8df387090be5f4fa01": (
        [("verdicts", i, "n_saturated") for i in range(2)],
        "097bedf9c17ad7c87c3e850b0298a0f80a20137fa5f6a399145ff5609c7b2817",
    ),
    "33dcb5ec79accabe1a1289fcc80be4b91df55271acf711cbc251a255a5128294": (
        [("verdicts", i, "n_saturated") for i in range(8)],
        "425a3a1e2d7bfb87e7313796a92c40af29105964584a22f6b893e759d8311169",
    ),
    "873eef38360687f656b2e7b2799fce3e65f63dbb714bf9c708b5ecfba5d6619f": (
        [("verdicts", i, "n_saturated") for i in range(2)],
        "8ce1e088b26e5a5cf5dcd38679cbe9e688e84558239e1b2de95aa840c1b2bf14",
    ),
}


def _digest_without(data: bytes, keys) -> str:
    """sha256 of a JSON artifact written again, as the CLI writes JSON, without ``keys``."""
    doc = json.loads(data)
    for path in keys:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    return hashlib.sha256((json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("args, artifact, digest", [
    pytest.param(["stationary", "--family", "cantor1d", "--n-samples", "256", "--seed", "255742855"],
                 "stationary.csv", "12262c5878f99bd20e0ffabadb8631f36db06621801e64972dca397181139a89",
                 id="stationary-cantor1d-stationary.csv"),
    pytest.param(["sync-rate", "--family", "slide1d", "--seed", "4242"],
                 "diam_series.csv", "1be76e8632fe6496322777317dedc06e6a437338dcc5f38b0c533bf707bc1ae6",
                 id="sync-rate-slide1d-diam_series.csv"),
    # ragged minimal depths with saturating rows, and a box-noise pullback
    pytest.param(["stationary", "--family", "exp1d", "--n-samples", "512", "--seed", "90210"],
                 "stationary.csv", "a160d1dd54effbfaf9c4da067d83ab827ebaef83deda36a998543d0847786ca4",
                 id="stationary-exp1d-stationary.csv"),
    pytest.param(["stationary", "--family", "slide1d", "--n-samples", "512", "--seed", "90210"],
                 "stationary.csv", "820d5fc7787a1dd10f021ff6a456ff728a24977c68c9f6899e2ec96a016b5782",
                 id="stationary-slide1d-stationary.csv"),
    # the family's default probe and the fixed constants of sync, splitting and transport
    pytest.param(["forward-gap", "--family", "cantor1d", "--n", "20", "--seed", "7"],
                 "forward_gap.csv", "9c0e69ff686b2ff3cbc34f4a7eaa6193bec8a9d296bffca47210e8c907b535e0",
                 id="forward-gap-cantor1d-forward_gap.csv"),
    pytest.param(["sync-rate", "--family", "exp1d", "--seed", "3"],
                 "rate_fit.json", "aed708aa37c2886a4b41794f6696a5717c00a914c4e8fca7233bc1f473577ee0",
                 id="sync-rate-exp1d-rate_fit.json"),
    pytest.param(["sigma-decay", "--family", "cantor1d", "--x", "0.1", "--replicas", "500", "--seed", "2"],
                 "sigma_decay.json", "e367439f4b0d9f320fd44a0aa2689727a10c6d8f368f5e09f572aed1d116b3c5",
                 id="sigma-decay-cantor1d-sigma_decay.json"),
    pytest.param(["w1-decay", "--family", "cantor1d", "--n-particles", "512", "--ref-size", "512",
                  "--n-max", "4", "--seed", "11"],
                 "w1_fit.json", "8be974c7706feb69fd8dd51bbf29774988ce851dc51a4011184ff99a69121f59",
                 id="w1-decay-cantor1d-w1_fit.json"),
    # strict JSON: the saturated exp1d variance overflows and is written as null,
    # next to the count of saturated samples
    pytest.param(["stationary", "--family", "exp1d", "--n-samples", "512", "--seed", "90210"],
                 "stationary.json", "ab09521c3f9f4655248c905096dc0a0cf1198b95d766cece9e04f3770cbc34ee",
                 id="stationary-exp1d-stationary.json"),
    # forward chains: the exact center, the Poisson sigma^2 and the partial sums (re-frozen
    # when the center became exact, m = 1/2, instead of the 512 x 40,000-step ergodic pass)
    pytest.param(["clt", "--family", "cantor1d", "--n", "200", "--replicas", "100", "--mu-size", "512",
                  "--grid-size", "256", "--dump-paths", "--seed", "1234"],
                 "paths.csv", "396308b915a451520b613913ba2ea9c0599caed053f5f333b56e9d42a30afbd5",
                 id="clt-cantor1d-paths.csv"),
    # forward orbits on finite and on box noise, through the same chain loop
    pytest.param(["simulate", "--family", "cantor1d", "--direction", "forward", "--n", "200", "--seed", "1234"],
                 "orbit.csv", "2337c2d937acbf20019109ee78cea55cfbf3f934385683aed669389bc04978bd",
                 id="simulate-cantor1d-forward-orbit.csv"),
    pytest.param(["simulate", "--family", "slide1d", "--direction", "forward", "--n", "200", "--seed", "1234"],
                 "orbit.csv", "85c8ac62d7dc0b2efcd2b6dbe2017604d8b74e0151bc5b0391b8c097aa9bc181",
                 id="simulate-slide1d-forward-orbit.csv"),
    # a reverse orbit with its probe-image boxes
    pytest.param(["simulate", "--family", "cantor1d", "--direction", "reverse", "--n", "200", "--seed", "1234"],
                 "orbit.csv", "12acaa9326399a435514a659960495f03c2ba53b9ef4a604d908b8f6cd6c0bb0",
                 id="simulate-cantor1d-reverse-orbit.csv"),
    # a saturating finite-noise forward orbit: every step takes the clamp's slow path
    pytest.param(["simulate", "--family", "exp1d", "--direction", "forward", "--n", "200", "--seed", "1234"],
                 "orbit.csv", "2c03ddd30f316fded9da4b228352f9300345cae1a7db709f7eaf103c6fc69313",
                 id="simulate-exp1d-forward-orbit.csv"),
    # a 2-d forward chain of a whole (N, P, dim) probe cloud
    pytest.param(["forward-gap", "--family", "cantor2d", "--n", "20", "--seed", "7"],
                 "forward_gap.csv", "41f71b3ec5823a5a5eb7f987817fd1a767c3689c1c93a6394d370a5dabfcb561",
                 id="forward-gap-cantor2d-forward_gap.csv"),
    # 2-d W1 above the exact-matching cap: the sliced kernel over 128 directions, which
    # also measures the floor's half-splits, so the curve fits its rate (r_hat 0.348)
    pytest.param(["w1-decay", "--family", "cantor2d", "--n-particles", "1024", "--ref-size", "1024",
                  "--n-max", "3", "--seed", "3"],
                 "w1_decay.csv", "754e6967417d7ae62bee7b5b5172119fb62d803249b51dad2eef7313f0e1e293",
                 id="w1-decay-cantor2d-w1_decay.csv"),
    # a reverse orbit that starts beyond the clamp: rows still waiting for their
    # first map keep the unclamped start point and are not flagged
    pytest.param(["simulate", "--direction", "reverse", "--n", "60", "--x0", "0.9", "--seed", "5",
                  {"family": "cantor1d", "clamp": 0.5}],
                 "orbit.csv", "3784f223a0549dd92b1af725fd933f3c5d0e8225b5af4765c5ddc5a64ee20c28",
                 id="simulate-cantor1d-clamped-reverse-orbit.csv"),
    # a 2-d affine pullback whose map bodies are BLAS matmuls
    pytest.param(["stationary", "--n-samples", "512", "--seed", "6",
                  {"family": "affine-general",
                   "params": {"mats": [[[0.4, 0.1], [0.1, 0.3]], [[0.3, -0.1], [-0.1, 0.4]]],
                              "offs": [[0.1, 0.2], [0.5, -0.3]]}}],
                 "stationary.csv", "069cfb1deb7736232e1f870ec4204f7991e89051a238d315bacbd12552256159",
                 id="stationary-affine-general-stationary.csv"),
    # the Poisson corrector's report: truncation, residual, both variance forms, the
    # exact center and sigma^2 (re-frozen when the center became exact, with its fields)
    pytest.param(["clt", "--family", "cantor1d", "--n", "200", "--replicas", "100", "--mu-size", "512",
                  "--grid-size", "256", "--dump-paths", "--seed", "1234"],
                 "clt_report.json", "9d41caf15810bc4744203fc4c910a4bbca1a88ff2dd17b1ad50d955bee85ee1a",
                 id="clt-cantor1d-clt_report.json"),
    # the boundedness check's probe of scaled boxes: bounded at m0 = 3, and unbounded
    pytest.param(["sync-rate", "--family", "arctanexp2d", "--seed", "5"],
                 "rate_fit.json", "16818d78b3f90a3a3ab11f4a146969e1c7cb37244f44bf695df3037fd8d2b8d8",
                 id="sync-rate-arctanexp2d-rate_fit.json"),
    pytest.param(["sync-rate", "--family", "lip-pair", "--seed", "5"],
                 "rate_fit.json", "21be312f1fd6afc918add9291e1d58006ffa23156b8030da93c64e27b8b02b4d",
                 id="sync-rate-lip-pair-rate_fit.json"),
    # splitting reports: a verified exact scan, and a Monte Carlo search on box noise
    pytest.param(["check-splitting", "--family", "cantor2d", "--seed", "5"],
                 "splitting.json", "645fa8d4b267ab42688691093548209963a84fd7d594aeb58c8134b3c036ab2c",
                 id="check-splitting-cantor2d-splitting.json"),
    pytest.param(["check-splitting", "--family", "slide1d", "--seed", "5"],
                 "splitting.json", "6dc53966daf8805c58bafae2226ced4a1fd9274bcc7b6a1478b79852699c8b1f",
                 id="check-splitting-slide1d-splitting.json"),
    # monotonicity verdicts: finite-noise symbols, and box-noise parameter vectors
    pytest.param(["check-monotone", "--family", "arctanexp2d"],
                 "monotonicity.json", "36e184c543f442bcfbce6c22cfab395513c283d53fa56c8df387090be5f4fa01",
                 id="check-monotone-arctanexp2d-monotonicity.json"),
    pytest.param(["check-monotone", "--family", "slide1d"],
                 "monotonicity.json", "33dcb5ec79accabe1a1289fcc80be4b91df55271acf711cbc251a255a5128294",
                 id="check-monotone-slide1d-monotonicity.json"),
    # the text of the CSV writer: the fitted lambda^j column, and a W1 curve too
    # short to fit a rate, whose bound column is blank; and the manifest's JSON
    pytest.param(["sigma-decay", "--family", "cantor1d", "--x", "0.1", "--replicas", "500", "--seed", "2"],
                 "sigma_decay.csv", "daa58f65cb80207e0b4028d2b3ef5102ca55207e0354526ffe4e4799c816b0d2",
                 id="sigma-decay-cantor1d-sigma_decay.csv"),
    pytest.param(["w1-decay", "--family", "cantor1d", "--n-particles", "256", "--ref-size", "256",
                  "--n-max", "1", "--seed", "11"],
                 "w1_decay.csv", "3b1ab13eff95c4af5ca60823e0ad02e57a79c735c451b3130d9930b1181f28d2",
                 id="w1-decay-cantor1d-w1_decay.csv"),
    pytest.param(["w1-decay", "--family", "cantor1d", "--n-particles", "256", "--ref-size", "256",
                  "--n-max", "1", "--seed", "11"],
                 "manifest.json", "0d3b8f67e72534505b07406fcf6b806fcfbec6268caefcdaf04dcf6385345b75",
                 id="w1-decay-cantor1d-manifest.json"),
    # box noise has no exact terms: the Poisson series past phi is the Monte Carlo
    # chains' means, all driven by the one "poisson-chain" stream
    pytest.param(["clt", "--family", "slide1d", "--n", "200", "--replicas", "100", "--mu-size", "512",
                  "--grid-size", "256", "--seed", "1234"],
                 "clt_report.json", "24abb1a0a0bebc1e6e0a80b8e1785c083e2418033dcdc6f839086b1d18d6ffe8",
                 id="clt-slide1d-clt_report.json"),
])
def test_golden_artifact_digest(tmp_path, args, artifact, digest):
    # Frozen bytes: any change to the noise streams (finite and box tables), to the
    # pullback depth search, to the default probe or to the JSON writer shows here.
    # A trailing dict in ``args`` is written as a config file (there is no --clamp flag).
    if isinstance(args[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args[-1]))
        args = args[:-1] + ["--config", str(config)]
    out = tmp_path / "golden"
    assert run(args + ["--threads", "1", "--out", str(out)]) == 0
    data = (out / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    if digest in _REFROZEN:
        keys, before = _REFROZEN[digest]
        assert _digest_without(data, keys) == before


def test_golden_ergodic_center_report(tmp_path):
    # lip-pair's disjoint mode is not affine, so it is still centered by the
    # ergodic pass.  The report gained five fields (center, center_method,
    # sigma2_exact, n_saturated, poisson_converged); without them it is byte for
    # byte the report the ergodic pass wrote before the exact center existed.
    # Both digests were re-frozen when the noise layout changed.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": "lip-pair", "params": {"mode": "disjoint", "slopes": [0.5, 0.5]}}))
    out = tmp_path / "golden"
    assert run([
        "clt", "--n", "200", "--replicas", "100", "--mu-size", "512", "--grid-size", "256",
        "--seed", "1234", "--config", str(config), "--threads", "1", "--out", str(out),
    ]) == 0
    text = (out / "clt_report.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == "42def36e6603872770b14b8c8a80a0ea0e3681e8399fdeda4d1bff8eda1f6b31"
    doc = json.loads(text)
    assert (doc["center_method"], doc["sigma2_exact"], doc["n_saturated"]) == ("ergodic", None, 0)
    assert doc["poisson_converged"]
    for key in ("center", "center_method", "sigma2_exact", "n_saturated", "poisson_converged"):
        del doc[key]
    old = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    digest = hashlib.sha256(old.encode()).hexdigest()
    assert digest == "44c2a978682ec6b602e51512caffb43799b94677b1820eb5933caf6f94900e55"


def test_golden_unverified_splitting_digest(tmp_path):
    # an exact scan that finds no ordered pair up to m = 3: exit 2, and the
    # report's empty witness fields are frozen too
    out = tmp_path / "golden"
    assert run(["check-splitting", "--family", "arctanexp2d", "--seed", "5", "--out", str(out)]) == 2
    data = (out / "splitting.json").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "23b4c351825afa8402ab3062600b73964630ebf35a71f2ba817e980661d14b54"
    keys, before = _REFROZEN[digest]
    assert _digest_without(data, keys) == before


# Imports the CLI and runs two numpy-only commands, then a smoke-size clt, in a
# fresh interpreter; prints the scipy subpackages loaded after each stage.
_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from monosync.cli import main
heavy = ("scipy.stats", "scipy.optimize", "scipy.spatial")
loaded = lambda: [m for m in heavy if m in sys.modules]
at_import = loaded()
codes = [
    main(["stationary", "--family", "cantor1d", "--n-samples", "256", "--out", sys.argv[2] + "/s"]),
    main(["sync-rate", "--family", "rot2d", "--n-max", "10", "--out", sys.argv[2] + "/r"]),
]
after = loaded()
clt_args = ["--n", "200", "--replicas", "100", "--mu-size", "512", "--grid-size", "256"]
codes.append(main(["clt", "--family", "cantor1d", *clt_args, "--out", sys.argv[2] + "/c"]))
print(json.dumps({"at_import": at_import, "after": after, "after_clt": loaded(), "codes": codes}))
"""


def test_numpy_only_commands_do_not_import_scipy(tmp_path):
    # scipy is imported only inside the functions that call it (the CLT's
    # table observable, exact W1 matching); a stray top-level import would
    # cost every CLI invocation over a second of set-up.  The CLT's KS test
    # needs scipy.special alone: scipy.stats would add about 46 MiB to a
    # clt run's peak memory
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(src), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc == {"at_import": [], "after": [], "after_clt": [], "codes": [0, 0, 0]}


def test_golden_unmonotone_digest(tmp_path):
    # rot2d maps are neither increasing nor decreasing: exit 2, and each
    # verdict's violating witness pair is frozen too
    out = tmp_path / "golden"
    assert run(["check-monotone", "--family", "rot2d", "--threads", "1", "--out", str(out)]) == 2
    data = (out / "monotonicity.json").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "873eef38360687f656b2e7b2799fce3e65f63dbb714bf9c708b5ecfba5d6619f"
    keys, before = _REFROZEN[digest]
    assert _digest_without(data, keys) == before


def test_manifest_replays_infinite_clamp(tmp_path):
    # the manifest echoes a non-finite config value as Infinity, so it replays
    config = tmp_path / "inf.json"
    config.write_text(json.dumps({"family": "cantor1d", "clamp": float("inf")}))
    out_a = tmp_path / "A"
    out_b = tmp_path / "B"
    args = ["stationary", "--n-samples", "64", "--seed", "5"]
    assert run(args + ["--config", str(config), "--out", str(out_a)]) == 0
    assert read_json(out_a / "manifest.json")["clamp"] == float("inf")
    assert run(["stationary", "--config", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
    for name in ("manifest.json", "stationary.csv", "stationary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize("args", [
    ["stationary", "--family", "cantor1d", "--n-samples", "64", "--tol", "nan"],
    ["forward-gap", "--family", "cantor1d", "--n", "8", "--tail-tol", "nan"],
    ["stationary", "--n-samples", "64", {"family": "cantor1d", "clamp": float("nan")}],
    ["clt", "--family", "cantor1d", "--tol", "nan"],
])
def test_nan_thresholds_exit_usage(tmp_path, capsys, args):
    # NaN fails every comparison, so a "<= 0" guard would let it through
    if isinstance(args[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args[-1]))  # written as the JSON token NaN
        args = args[:-1] + ["--config", str(config)]
    assert run(args + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sigma-decay", "--family", "cantor1d", "--x", "nan"],
    ["forward-gap", "--family", "cantor1d", "--x0", "nan"],
    ["simulate", "--family", "cantor1d", "--x0", "inf"],
    ["w1-decay", "--family", "cantor1d", "--initial-point", "nan"],
    ["w1-decay", "--family", "cantor2d", "--initial-point", "0.5,-inf"],
])
def test_non_finite_points_exit_usage(tmp_path, capsys, args):
    # a NaN start would be clamped to 0, and a NaN x is in no image: both read as results
    assert run(args + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("args, config, message", [
    (["stationary", "--family", "arctanexp2d", "--n-samples", "64", "--n-max", "64"], None, "not converged: "),
    (["clt", "--n", "200", "--replicas", "100", "--mu-size", "512", "--grid-size", "256"],
     {"family": "cantor1d", "probs": [1.0]}, "error: martingale variance"),
    (["clt", "--family", "exp1d", "--n", "20", "--replicas", "10", "--mu-size", "32", "--grid-size", "16",
      "--tol", "0.001", "--seed", "5"], None, "error: martingale variance"),
], ids=["pullback-not-converged", "clt-one-point-law", "clt-overflowing-corrector"])
def test_stopped_runs_exit_2_with_only_the_manifest(tmp_path, capsys, args, config, message):
    # a run stopped by an exception, not a verdict: exit 2 and no report; exp1d's
    # corrector overflows its square, which must give no RuntimeWarning
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
