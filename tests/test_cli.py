import hashlib
import json
from pathlib import Path

import pytest

from monosync.cli import main


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


def test_usage_errors_exit_1(tmp_path):
    assert run(["check-splitting", "--family", "nope", "--out", str(tmp_path / "c")]) == 1
    assert run(["check-splitting", "--no-such-flag", "1"]) == 1
    assert run(["no-such-command"]) == 1
    # a config produced by another command is rejected
    out = tmp_path / "d"
    run(["check-splitting", "--family", "cantor1d", "--out", str(out)])
    assert run(["sync-rate", "--config", str(out / "manifest.json"), "--out", str(tmp_path / "e")]) == 1


def test_check_monotone(tmp_path):
    assert run(["check-monotone", "--family", "cantor1d", "--seed", "2", "--out", str(tmp_path / "m")]) == 0
    assert run(["check-monotone", "--family", "rot2d", "--seed", "2", "--out", str(tmp_path / "r")]) == 2
    doc = read_json(tmp_path / "m" / "monotonicity.json")
    assert all(v["kind"] == "increasing" for v in doc["verdicts"])


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


def test_sigma_decay_command(tmp_path):
    out = tmp_path / "sig"
    assert run([
        "sigma-decay", "--family", "cantor1d", "--m", "1", "--x", "0.3333333333333333",
        "--s", "1", "--j-max", "4", "--replicas", "400", "--seed", "5", "--out", str(out),
    ]) == 0
    doc = read_json(out / "sigma_decay.json")
    assert doc["splitting"]["verified"]
    assert doc["lambda_from_masses"] == pytest.approx(0.5)


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
    assert lines[1] == "n,gap,image_diam_bound,pullback_depth"
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
    out_a = tmp_path / "A"
    out_b = tmp_path / "B"
    args = ["sync-rate", "--family", "cantor1d", "--n-max", "12", "--replicas", "8", "--seed", "9"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(["sync-rate", "--config", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
    for name in ("manifest.json", "diam_series.csv", "rate_fit.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_threads_do_not_change_artifacts(tmp_path):
    out_1 = tmp_path / "t1"
    out_8 = tmp_path / "t8"
    base = ["stationary", "--family", "cantor1d", "--n-samples", "3000", "--seed", "13"]
    assert run(base + ["--threads", "1", "--out", str(out_1)]) == 0
    assert run(base + ["--threads", "8", "--out", str(out_8)]) == 0
    for name in ("manifest.json", "stationary.csv", "stationary.json"):
        assert (out_1 / name).read_bytes() == (out_8 / name).read_bytes(), name


@pytest.mark.parametrize("args, artifact, digest", [
    (["stationary", "--family", "cantor1d", "--n-samples", "256", "--seed", "255742855"],
     "stationary.csv", "c323d813b7a5a7fafb0da6c233f1d7861df6dc70750bf2fee98745eeb3245ee2"),
    (["sync-rate", "--family", "slide1d", "--seed", "4242"],
     "diam_series.csv", "73c90239aca7582d1daed96e05138c87fb76375f9ebf380d750e1dccf41db061"),
    # ragged minimal depths with saturating rows, and a box-noise pullback
    (["stationary", "--family", "exp1d", "--n-samples", "512", "--seed", "90210"],
     "stationary.csv", "55003e557941dd538218aec1e2d2948ab53b9547d1759f5c63905194668b35bd"),
    (["stationary", "--family", "slide1d", "--n-samples", "512", "--seed", "90210"],
     "stationary.csv", "1c8ecfa73555426bd87b5483e174a1d4d5b31c6ef23da2286603763746997023"),
    # the family's default probe and the fixed constants of sync, splitting and transport
    (["forward-gap", "--family", "cantor1d", "--n", "20", "--seed", "7"],
     "forward_gap.csv", "666825b1d3c7556fdadd80f127a76e8737aba0310bbc80b1acde0aa54a6f2c4c"),
    (["sync-rate", "--family", "exp1d", "--seed", "3"],
     "rate_fit.json", "f844bd5a90a6c6d1637579b2989aaeb9e4c1a6f27133fdc76426f58cbb3c2fec"),
    (["sigma-decay", "--family", "cantor1d", "--x", "0.1", "--replicas", "500", "--seed", "2"],
     "sigma_decay.json", "a1514c4a5a62208651c3284a615f74784564d46a024efa36c316f77f5ac7d02b"),
    (["w1-decay", "--family", "cantor1d", "--n-particles", "512", "--ref-size", "512",
      "--n-max", "4", "--seed", "11"],
     "w1_fit.json", "c69099df36862d74fb941fcb3f8385e2a0ca5988d740862d1ab5299c8e79c121"),
    # strict JSON: the saturated exp1d variance overflows and is written as null,
    # next to the count of saturated samples
    (["stationary", "--family", "exp1d", "--n-samples", "512", "--seed", "90210"],
     "stationary.json", "bb0a95a4f5210a09b9e40cea643f1c389160976968dadb30ae2b2b05758db25c"),
    # forward chains: the centering pass, the Poisson sigma^2 and the partial sums
    (["clt", "--family", "cantor1d", "--n", "200", "--replicas", "100", "--mu-size", "512",
      "--grid-size", "256", "--dump-paths", "--seed", "1234"],
     "paths.csv", "9e83f2d0b34f3a464416599f0a7b8618271394d4c29ce940bb0789bc2a6e8155"),
    # forward orbits on finite and on box noise, through the same chain loop
    (["simulate", "--family", "cantor1d", "--direction", "forward", "--n", "200", "--seed", "1234"],
     "orbit.csv", "af3a2fd3361085cec102e0a67046af7fdc03fb112807b7e40fcee0f2a2feaad9"),
    (["simulate", "--family", "slide1d", "--direction", "forward", "--n", "200", "--seed", "1234"],
     "orbit.csv", "fa9056785a509af33ec105fe6e1f41e9a4e12bfa508c6ef9e732dfd89cd708dc"),
    # a reverse orbit with its probe-image boxes
    (["simulate", "--family", "cantor1d", "--direction", "reverse", "--n", "200", "--seed", "1234"],
     "orbit.csv", "4d7698725d0fed6803a8feebb4bc798700c83f0bfcecb93afe89a4d1a2b7fcf7"),
    # a saturating finite-noise forward orbit: every step takes the clamp's slow path
    (["simulate", "--family", "exp1d", "--direction", "forward", "--n", "200", "--seed", "1234"],
     "orbit.csv", "d901cf9970bcecc3865ad3722dd82eece341ce46c171e6a2ce9f386589d0dac7"),
    # a 2-d forward chain of a whole (N, P, dim) probe cloud
    (["forward-gap", "--family", "cantor2d", "--n", "20", "--seed", "7"],
     "forward_gap.csv", "b00502ffb0f9997595a20190f3c6a3867f29dd26d8a7dcc571c2ca990090b4d0"),
    # 2-d W1 above the exact-matching cap: the sliced kernel over 128 directions
    (["w1-decay", "--family", "cantor2d", "--n-particles", "1024", "--ref-size", "1024",
      "--n-max", "3", "--seed", "3"],
     "w1_decay.csv", "a634cc66c2d0ecd9ac0f2e67dc464c24d0d2eaad518336ad42afdfd6878fc6f3"),
    # a reverse orbit that starts beyond the clamp: rows still waiting for their
    # first map keep the unclamped start point and are not flagged
    (["simulate", "--direction", "reverse", "--n", "60", "--x0", "0.9", "--seed", "5",
      {"family": "cantor1d", "clamp": 0.5}],
     "orbit.csv", "402aa1433bdf05438b7557f6e452ea0a37cc413819395b72a404050d486fd3ab"),
    # a 2-d affine pullback whose map bodies are BLAS matmuls
    (["stationary", "--n-samples", "512", "--seed", "6",
      {"family": "affine-general",
       "params": {"mats": [[[0.4, 0.1], [0.1, 0.3]], [[0.3, -0.1], [-0.1, 0.4]]],
                  "offs": [[0.1, 0.2], [0.5, -0.3]]}}],
     "stationary.csv", "a0ee3edcaedb3dcdf4c52c60f5720cd38d4f34b66a82dbbbcaa9841a6917d30c"),
    # the Poisson corrector's report: truncation, residual and both variance forms
    (["clt", "--family", "cantor1d", "--n", "200", "--replicas", "100", "--mu-size", "512",
      "--grid-size", "256", "--dump-paths", "--seed", "1234"],
     "clt_report.json", "a804583ad2e0cce2add815b11284c0e0d817e74d2de9f54f173d793a4f9ced9a"),
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
    assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest


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
