"""The four benchmark workloads: fixed lists of CLI commands and their output checks.

Every command runs in-process through ``monosync.cli.main(argv)`` with
``--threads 1`` and its own output directory.  Each command's ``--seed`` is
derived from (workload seed, workload name, op index), so the program sees
only argv.  See README.md for why each workload exists.

Checks come in two kinds:

* ``fail`` -- a broken contract: wrong exit code, missing or unparseable
  artifact, a dropped pullback stream, or a value the theory fixes exactly
  (cantor2d diameters ``2 * 3**-n``, forward gaps under their bound).
  These count as failed ops and make the benchmark exit non-zero.
* ``gate`` -- an acceptance tolerance on a statistic whose false-alarm
  rate per seed is not negligible (the KS p-value is below 0.01 on 1% of
  seeds by construction).  A miss is reported with its value, never
  hidden, but is not an op failure: the benchmark runs many seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Chain steps of one default ``clt`` command: the centering pass of
# run_clt_analysis (512 replicas x 40,000 steps, not a CLI flag) plus the
# partial-sum paths (replicas x n).
CLT_CENTER_STEPS = 512 * 40_000

WARMUP_ARGV = ["stationary", "--family", "cantor1d", "--n-samples", "256", "--seed", "0", "--threads", "1"]


@dataclass
class Op:
    index: int
    argv: list[str]
    expect_rc: int = 0
    kind: str = ""          # check selector
    work: dict = field(default_factory=dict)
    group: str = ""         # the command without its seed; repeats of one group do equal work


def op_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}/{workload}/{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def _op(seed, workload, index, argv, expect_rc=0, kind="", **work) -> Op:
    full = list(argv) + ["--seed", str(op_seed(seed, workload, index)), "--threads", "1"]
    return Op(index, full, expect_rc, kind or argv[0], work, " ".join(argv))


def build(workload: str, seed: int, smoke: bool) -> list[Op]:
    """The fixed op list of one workload (tiny sizes with ``smoke``)."""
    if workload == "sample-verify":
        # both lists back to back, each op with the seed it has on its own
        ops = build("sample-1d", seed, smoke) + build("verify", seed, smoke)
        for i, op in enumerate(ops):
            op.index = i
        return ops
    if workload == "sample-1d":
        n, reps = (256, 2) if smoke else (4096, 24)
        return [
            _op(seed, workload, i, ["stationary", "--family", "cantor1d", "--n-samples", str(n)],
                pullbacks=n)
            for i in range(reps)
        ]
    if workload == "w1-2d":
        size = ["--n-particles", "600", "--ref-size", "600", "--n-max", "3"] if smoke else []
        reps = 1 if smoke else 2
        return [_op(seed, workload, i, ["w1-decay", "--family", "cantor2d"] + size) for i in range(reps)]
    if workload == "clt-1d":
        n, reps = (200, 100) if smoke else (10_000, 1000)
        size = ["--n", "200", "--replicas", "100", "--mu-size", "512", "--grid-size", "256"] if smoke else []
        return [_op(seed, workload, 0, ["clt", "--family", "cantor1d"] + size,
                    chain_steps=CLT_CENTER_STEPS + n * reps)]
    if workload == "verify":
        sync_reps = "64" if smoke else "1024"
        round_cmds = [
            (["check-monotone", "--family", "arctanexp2d"], 0, ""),
            (["check-monotone", "--family", "rot2d"], 2, ""),
            (["check-splitting", "--family", "cantor2d"], 0, ""),
            (["check-splitting", "--family", "slide1d"], 0, ""),
            (["check-splitting", "--family", "arctanexp2d"], 2, ""),
            (["sigma-decay", "--family", "cantor1d", "--x", "0.1"], 0, ""),
            (["sync-rate", "--family", "cantor2d", "--n-max", "30", "--replicas", sync_reps], 0,
             "sync-cantor2d"),
            (["sync-rate", "--family", "slide1d"], 0, ""),
            (["sync-rate", "--family", "exp1d"], 0, ""),
            (["forward-gap", "--family", "cantor1d", "--n", "20"], 0, "gap-cantor1d"),
            (["forward-gap", "--family", "cantor2d", "--n", "20"], 0, "gap-cantor2d"),
            (["simulate", "--family", "exp1d", "--direction", "reverse"], 0, ""),
        ]
        rounds = 1 if smoke else 3
        ops = []
        for r in range(rounds):
            for argv, rc, kind in round_cmds:
                ops.append(_op(seed, workload, len(ops), argv, rc, kind))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of (kind, message) with kind "fail" or
# "gate"; an empty list means the op's outputs are correct.


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(v) if v else np.nan for v in ln.split(",")] for ln in lines[1:]], ndmin=2)


def _check_stationary(op: Op, out: Path, smoke: bool) -> list:
    doc = _json(out / "stationary.json")
    issues = []
    if doc["n_failed"] != 0:
        issues.append(("fail", f"n_failed={doc['n_failed']}"))
    if doc["n_samples"] != op.work["pullbacks"]:
        issues.append(("fail", f"n_samples={doc['n_samples']}"))
    pts = _csv_rows(out / "stationary.csv")
    if pts.shape[0] != doc["n_samples"] or not np.isfinite(pts).all():
        issues.append(("fail", "stationary.csv does not hold n_samples finite rows"))
    return issues


def _check_w1(op: Op, out: Path, smoke: bool) -> list:
    doc = _json(out / "w1_fit.json")
    w1 = _csv_rows(out / "w1_decay.csv")[:, 1]
    issues = []
    if doc["method"] != "sliced":
        issues.append(("fail", f"method={doc['method']}"))
    if not np.isfinite(w1).all() or doc["floor"] <= 0:
        issues.append(("fail", "non-finite W1 curve or floor"))
    elif not smoke:
        floor = doc["floor"]
        if len(w1) != 13:
            return issues + [("fail", f"{len(w1)} W1 values, expected 13")]
        if w1[0] < 10 * floor:
            issues.append(("gate", f"w1[0]={w1[0]:.4g} < 10 x floor {floor:.4g}"))
        if w1[12] > 3 * floor:
            issues.append(("gate", f"w1[12]={w1[12]:.4g} > 3 x floor {floor:.4g}"))
    return issues


def _check_clt(op: Op, out: Path, smoke: bool) -> list:
    r = _json(out / "clt_report.json")
    issues = []
    values = [r[k] for k in ("sigma2_mg", "sigma2_resid", "sigma2_direct", "ks_pvalue", "var_slope")]
    if not all(np.isfinite(values)):
        return [("fail", "non-finite CLT report")]
    if smoke:
        return issues
    # criterion 8, at the acceptance tolerances
    if abs(r["sigma2_mg"] - 0.25) > 0.025:
        issues.append(("fail", f"sigma2_mg={r['sigma2_mg']:.5g}"))
    if abs(r["sigma2_resid"] - 0.125) > 0.0125:
        issues.append(("fail", f"sigma2_resid={r['sigma2_resid']:.5g}"))
    if r["residual_norm"] > 3 * 1e-4:
        issues.append(("fail", f"residual_norm={r['residual_norm']:.3g}"))
    if not -0.1 <= r["increment_corr"] <= 0.1:
        issues.append(("fail", f"increment_corr={r['increment_corr']:.4g}"))
    rel = abs(r["sigma2_mg"] - r["sigma2_direct"]) / r["sigma2_direct"]
    if rel > 0.15:
        issues.append(("gate", f"|sigma2_mg - sigma2_direct| / sigma2_direct = {rel:.4g} > 0.15"))
    if r["ks_pvalue"] <= 0.01:
        issues.append(("gate", f"ks_pvalue={r['ks_pvalue']:.4g} <= 0.01"))
    if not 0.9 <= r["var_slope"] <= 1.1:
        issues.append(("gate", f"var_slope={r['var_slope']:.4g} outside [0.9, 1.1]"))
    return issues


def _check_sync_cantor2d(op: Op, out: Path, smoke: bool) -> list:
    # criterion 3: cantor2d contracts every coordinate by exactly 1/3
    fit = _json(out / "rate_fit.json")
    rows = _csv_rows(out / "diam_series.csv")
    expected = 2.0 * 3.0 ** -rows[:, 0]
    issues = []
    if not 0.32 <= fit["r_hat"] <= 0.35:
        issues.append(("fail", f"r_hat={fit['r_hat']:.5g} outside [0.32, 0.35]"))
    err = float(np.abs(rows[:, 1] - expected).max())
    if err > 1e-12:
        issues.append(("fail", f"mean diameter off 2*3^-n by {err:.3g}"))
    return issues


def _check_gap(bound_factor):
    # criterion 7: the forward orbit is within the probe image's diameter
    # (3^-n on [0, 1], 2 * 3^-n on the cantor2d square) of the attractor
    def check(op: Op, out: Path, smoke: bool) -> list:
        rows = _csv_rows(out / "forward_gap.csv")
        bound = bound_factor * 3.0 ** -rows[:, 0]
        worst = float((rows[:, 1] / bound).max())
        return [] if worst <= 1.0 else [("fail", f"forward gap reaches {worst:.4g} x its bound")]

    return check


CHECKS = {
    "stationary": _check_stationary,
    "w1-decay": _check_w1,
    "clt": _check_clt,
    "sync-cantor2d": _check_sync_cantor2d,
    "gap-cantor1d": _check_gap(1.0),
    "gap-cantor2d": _check_gap(2.0),
}


def check_op(op: Op, out: Path, rc: int | None, smoke: bool) -> list:
    if rc != op.expect_rc:
        return [("fail", f"exit code {rc}, expected {op.expect_rc}")]
    try:
        paths = sorted(out.iterdir())
        if len(paths) < 2 or out / "manifest.json" not in paths:
            return [("fail", f"artifacts missing: {[p.name for p in paths]}")]
        for path in paths:
            if path.suffix == ".json":
                _json(path)
            else:
                _csv_rows(path)
        check = CHECKS.get(op.kind)
        return check(op, out, smoke) if check else []
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("fail", f"unreadable output: {exc!r}")]


def check_pass(ops: list[Op], outs: list[Path], smoke: bool) -> list:
    """Checks over a whole pass; criterion 4 pools every ``stationary`` op."""
    samples = [o for op, o in zip(ops, outs) if op.kind == "stationary"]
    if not samples or smoke:
        return []
    try:
        pts = np.concatenate([_csv_rows(o / "stationary.csv")[:, 0] for o in samples])
    except (OSError, ValueError, IndexError) as exc:
        return [("fail", f"cannot pool the samples: {exc!r}")]
    mean, var = float(pts.mean()), float(pts.var())
    issues = []
    if abs(mean - 0.5) > 0.01:
        issues.append(("fail", f"pooled mean {mean:.5g} outside 0.5 +- 0.01 over {pts.size} samples"))
    if abs(var - 0.125) > 0.005:
        issues.append(("fail", f"pooled variance {var:.5g} outside 0.125 +- 0.005 over {pts.size} samples"))
    return issues


def artifact_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
