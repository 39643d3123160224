"""Command-line orchestration with reproducible manifests.

Every run resolves its configuration (built-in defaults, then a JSON config
file, then explicit flags), writes the resolved configuration to
``manifest.json`` in the output directory, and emits per-command CSV/JSON
artifacts.  Re-running with ``--config manifest.json`` reproduces the
artifacts byte for byte; ``--out`` affects placement only, never content,
and ``--threads`` is accepted and has no effect.  A manifest records the
noise layout it was drawn in (``streams.NOISE_LAYOUT``), and one of another
layout, or one written before the layout was recorded, is a usage error.

Exit codes: 0 success, 1 usage error, 2 soft failure (hypotheses
unverified or a limit that did not converge).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import clt as clt_mod
from . import splitting as split_mod
from . import sync as sync_mod
from . import transport as trans_mod
from .engine import forward_orbit, reverse_orbit, sample_block
from .errors import (
    MonosyncError,
    NotConvergedError,
    UsageError,
)
from .families import (
    FiniteNoise,
    Monotonicity,
    _default_probe,
    _jsonable,
    classify_monotonicity,
    family_from_config,
    family_to_config,
)
from .streams import NOISE_LAYOUT

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNVERIFIED = 2

COMMANDS = (
    "check-monotone",
    "check-splitting",
    "sigma-decay",
    "sync-rate",
    "forward-gap",
    "stationary",
    "w1-decay",
    "clt",
    "simulate",
)


class _CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise _CliUsage(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config or manifest to start from")
    p.add_argument("--family", type=str, default=None, help="built-in family id")
    p.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--out", type=str, default="monosync-out", help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="monosync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-monotone", help="classify each member map's monotonicity")
    _add_common(p)
    p.add_argument("--n-pairs", type=int, default=None)
    p.add_argument("--n-alphas", type=int, default=None, help="sampled parameters for box noise")

    p = sub.add_parser("check-splitting", help="verify the order-splitting condition")
    _add_common(p)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--method", choices=["auto", "exact", "mc"], default=None)
    p.add_argument("--n-blocks", type=int, default=None)

    p = sub.add_parser("sigma-decay", help="membership probability decay at depths j*m")
    _add_common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("sync-rate", help="image-diameter decay rate")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("forward-gap", help="forward orbit vs the attractor on the same noise")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x0", type=str, default=None, help="comma-separated start point")
    p.add_argument("--tail-tol", type=float, default=None, help="as stationary --tol, for the attractor")

    p = sub.add_parser("stationary", help="pullback sample of the stationary law")
    _add_common(p)
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("w1-decay", help="W1 distance to stationarity under push-forward")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-particles", type=int, default=None)
    p.add_argument("--initial-point", type=str, default=None, help="comma-separated point")
    p.add_argument("--ref-size", type=int, default=None)

    p = sub.add_parser("clt", help="Poisson equation, variance, and FCLT diagnostics")
    _add_common(p)
    p.add_argument("--observable", type=str, default=None, help='e.g. "coord:1"')
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--mu-size", type=int, default=None)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--dump-paths", action="store_true", default=None)

    p = sub.add_parser("simulate", help="export one forward or reverse orbit")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x0", type=str, default=None)
    p.add_argument("--direction", choices=["forward", "reverse"], default=None)
    p.add_argument("--stream-id", type=int, default=None)

    return parser


_DEFAULTS: dict[str, dict] = {
    "check-monotone": {"n_pairs": 200, "n_alphas": 8},
    "check-splitting": {"m_max": 3, "method": "auto", "n_blocks": 64},
    "sigma-decay": {"m": 1, "x": 0.5, "s": 1, "j_max": 8, "replicas": 10_000},
    "sync-rate": {"n_max": 20, "replicas": 64},
    "forward-gap": {"n": 15, "x0": None, "tail_tol": 1e-10},
    "stationary": {"n_samples": 4096, "tol": 1e-9, "n_max": 4096},
    "w1-decay": {"n_max": 12, "n_particles": 4096, "initial_point": None, "ref_size": 4096},
    "clt": {
        "observable": "coord:1",
        "n": 10_000,
        "replicas": 1000,
        "mu_size": 4096,
        "grid_size": 2048,
        "tol": 1e-4,
        "dump_paths": False,
    },
    "simulate": {"n": 50, "x0": None, "direction": "forward", "stream_id": 0},
}

_FAMILY_KEYS = ("family", "probs", "params", "domain", "J", "clamp", "strict_tol", "noise_box")


def _parse_point(text: str | None, dim: int, fallback: np.ndarray) -> np.ndarray:
    if text is None:
        return fallback
    if isinstance(text, (list, tuple)):
        vals = [float(v) for v in text]
    else:
        vals = [float(v) for v in str(text).split(",")]
    if len(vals) != dim:
        raise UsageError(f"point has {len(vals)} coordinates, family has {dim}")
    if not np.isfinite(vals).all():
        raise UsageError(f"point coordinates must be finite, got {text}")
    return np.asarray(vals, dtype=float)


def _resolve_config(args: argparse.Namespace) -> dict:
    command = args.command
    cfg: dict = {"command": command, "seed": 0}
    cfg.update(_DEFAULTS[command])
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if loaded.get("command", command) != command:
            raise UsageError(
                f"config was produced by command {loaded['command']!r}, not {command!r}"
            )
        # a manifest of another noise layout would replay other noise under the same seed
        layout = loaded.get("noise_layout")
        if layout is None and "command" in loaded:
            raise UsageError("manifest records no noise layout: it predates the current one")
        if layout not in (None, NOISE_LAYOUT):
            raise UsageError(f"manifest has noise layout {layout!r}, not {NOISE_LAYOUT!r}")
        cfg.update(loaded)
    if args.family is not None:
        cfg["family"] = args.family
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    for key, val in vars(args).items():
        if key in ("command", "config", "family", "seed", "threads", "out"):
            continue
        if val is not None:
            cfg[key] = val
    if "family" not in cfg:
        raise UsageError("a family is required (--family or --config)")
    cfg["command"] = command
    cfg["noise_layout"] = NOISE_LAYOUT
    return cfg


def _write_json(path: Path, obj) -> None:
    """Write strict JSON: a report object is the dict of its fields, and a
    value that is not finite is written as null."""
    text = json.dumps(_jsonable(obj, True), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_manifest(outdir: Path, cfg: dict, fam, ordr) -> None:
    """Echo the config that ran; a non-finite value (an infinite clamp) stays
    ``Infinity`` so that ``--config manifest.json`` replays it."""
    manifest = dict(cfg)
    manifest.update(family_to_config(fam, ordr))
    text = json.dumps(_jsonable(manifest, False), indent=2, sort_keys=True)
    (outdir / "manifest.json").write_text(text + "\n")


def _run_check_monotone(cfg, fam, ordr, outdir) -> int:
    probe = fam.probe_box()
    seed = cfg["seed"]
    if isinstance(fam.noise, FiniteNoise):
        alphas = list(range(1, fam.noise.q + 1))
    else:
        if int(cfg["n_alphas"]) < 1:
            raise UsageError("n_alphas must be >= 1")
        alphas = list(sample_block(fam.noise, seed, 0, int(cfg["n_alphas"]), label="monotone-alpha").values)
    verdicts = []
    all_monotone = True
    for a in alphas:
        v = classify_monotonicity(fam, a, ordr, probe, n_pairs=int(cfg["n_pairs"]), seed=seed)
        all_monotone = all_monotone and v.kind is not Monotonicity.NEITHER
        verdicts.append({"alpha": a, **_jsonable(v, True)})
    _write_json(outdir / "monotonicity.json", {"seed": seed, "verdicts": verdicts})
    return EXIT_OK if all_monotone else EXIT_UNVERIFIED


def _splitting_report(cfg, fam, ordr):
    method = cfg.get("method", "auto")
    m_max = int(cfg["m_max"])
    seed = cfg["seed"]
    if method == "exact" or (method == "auto" and isinstance(fam.noise, FiniteNoise)):
        report = None
        for m in range(1, m_max + 1):
            report = split_mod.exact_splitting_scan(fam, ordr, m)
            if report.verified:
                break
        return report
    return split_mod.find_splitting_witness(
        fam, ordr, m_max, n_blocks=int(cfg["n_blocks"]), seed=seed
    )


def _run_check_splitting(cfg, fam, ordr, outdir) -> int:
    if int(cfg["m_max"]) < 1:  # an exact scan of no block length would report nothing
        raise UsageError("m_max must be >= 1")
    report = _splitting_report(cfg, fam, ordr)
    _write_json(outdir / "splitting.json", {**_jsonable(report, True), "seed": cfg["seed"]})
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def _run_sigma_decay(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    m = int(cfg["m"])
    scan_cfg = dict(_DEFAULTS["check-splitting"], m_max=m, seed=seed)
    report = _splitting_report(scan_cfg, fam, ordr)
    series = split_mod.sigma_decay(
        fam,
        ordr,
        m=m,
        x=float(cfg["x"]),
        s=int(cfg["s"]),
        j_max=int(cfg["j_max"]),
        replicas=int(cfg["replicas"]),
        seed=seed,
    )
    series.write_csv(outdir / "sigma_decay.csv", seed=seed)
    _write_json(
        outdir / "sigma_decay.json",
        {
            "seed": seed,
            "lambda_bound": series.lambda_bound,
            "splitting": report,
            "lambda_from_masses": 1.0 - report.rho if report.verified else None,
            "truncated_at": series.truncated_at,
        },
    )
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def _run_sync_rate(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    series = sync_mod.diameter_series(
        fam, n_max=int(cfg["n_max"]), replicas=int(cfg["replicas"]), seed=seed
    )
    fit = sync_mod.fit_rate(series)
    series.write_csv(outdir / "diam_series.csv", fit=fit, seed=seed)
    bounded = sync_mod.assumption2_check(fam, seed)
    doc = {**_jsonable(fit, True), "seed": seed, "m0": series.m0, "boundedness": bounded}
    _write_json(outdir / "rate_fit.json", doc)
    return EXIT_OK


def _run_forward_gap(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    x0 = _parse_point(cfg.get("x0"), fam.dim, fam.probe_box().center)
    gaps = sync_mod.forward_attractor_gap(
        fam, seed, x0, int(cfg["n"]), tail_tol=float(cfg["tail_tol"])
    )
    gaps.write_csv(outdir / "forward_gap.csv", seed=seed)
    return EXIT_OK


def _run_stationary(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    mu = trans_mod.pullback_sample(
        fam,
        seed,
        int(cfg["n_samples"]),
        tol=float(cfg["tol"]),
        n_max=int(cfg["n_max"]),
    )
    mu.write_csv(outdir / "stationary.csv", seed=seed)
    _write_json(
        outdir / "stationary.json",
        {
            "seed": seed,
            "n_samples": mu.n,
            "n_failed": mu.meta.get("n_failed", 0),
            "n_saturated": mu.meta["n_saturated"],
            "mean": mu.mean().tolist(),
            "var": mu.var().tolist(),
        },
    )
    return EXIT_OK


def _run_w1_decay(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    x0 = _parse_point(cfg.get("initial_point"), fam.dim, fam.probe_box().center)
    initial = trans_mod.EmpiricalMeasure.dirac(x0, n_points=1)
    curve = trans_mod.w1_decay_curve(
        fam,
        initial,
        n_max=int(cfg["n_max"]),
        n_particles=int(cfg["n_particles"]),
        seed=seed,
        ref_size=int(cfg["ref_size"]),
    )
    curve.write_csv(outdir / "w1_decay.csv", seed=seed)
    doc = {
        "seed": seed,
        "floor": curve.floor,
        "method": curve.method,
        "warnings": curve.warnings,
        "fit": curve.fit,
    }
    _write_json(outdir / "w1_fit.json", doc)
    return EXIT_OK


def _run_clt(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    report, ensemble = clt_mod.run_clt_analysis(
        fam,
        cfg["observable"],
        seed,
        n=int(cfg["n"]),
        replicas=int(cfg["replicas"]),
        mu_size=int(cfg["mu_size"]),
        grid_size=int(cfg["grid_size"]),
        tol=float(cfg["tol"]),
    )
    _write_json(outdir / "clt_report.json", {**_jsonable(report, True), "seed": seed})
    if cfg.get("dump_paths"):
        ensemble.write_csv(outdir / "paths.csv", seed=seed)
    return EXIT_OK


def _run_simulate(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    x0 = _parse_point(cfg.get("x0"), fam.dim, fam.probe_box().center)
    block = sample_block(fam.noise, seed, int(cfg["stream_id"]), int(cfg["n"]))
    if cfg["direction"] == "forward":
        trace = forward_orbit(fam, block, x0)
    else:
        trace = reverse_orbit(fam, block, x0, probe_points=_default_probe(fam))
    trace.write_csv(outdir / "orbit.csv", seed=seed)
    return EXIT_OK


_RUNNERS = {
    "check-monotone": _run_check_monotone,
    "check-splitting": _run_check_splitting,
    "sigma-decay": _run_sigma_decay,
    "sync-rate": _run_sync_rate,
    "forward-gap": _run_forward_gap,
    "stationary": _run_stationary,
    "w1-decay": _run_w1_decay,
    "clt": _run_clt,
    "simulate": _run_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        fam, ordr = family_from_config(cfg)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_manifest(outdir, cfg, fam, ordr)
        return _RUNNERS[args.command](cfg, fam, ordr, outdir)
    except _CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotConvergedError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except MonosyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED


if __name__ == "__main__":
    sys.exit(main())
