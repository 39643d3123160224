"""Command-line orchestration with reproducible manifests.

Every run resolves its configuration (built-in defaults, then a JSON config
file, then explicit flags), writes the resolved configuration to
``manifest.json`` in the output directory, and emits per-command CSV/JSON
artifacts.  Re-running with ``--config manifest.json`` reproduces the
artifacts byte for byte; ``--out`` affects placement only, never content,
and ``--threads`` is accepted and has no effect.  A manifest records the
noise layout it was drawn in (``streams.NOISE_LAYOUT``), and one of another
layout, or one written before the layout was recorded, is a usage error.

Each command is declared once, in ``_COMMANDS``: its help, its runner, and
its options with their defaults, from which the parser and the manifest's
keys follow.

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
from .errors import MonosyncError, NotConvergedError, UsageError, _parse_errors
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _option(spec) -> tuple:
    """(default, help) of one option of the command table."""
    return spec if isinstance(spec, tuple) else (spec, None)


def _defaults(command: str) -> dict:
    return {name: _option(spec)[0] for name, spec in _COMMANDS[command][2].items()}


def _build_parser() -> _Parser:
    parser = _Parser(prog="monosync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="JSON config or manifest to start from")
        p.add_argument("--family", default=None, help="built-in family id")
        p.add_argument("--seed", default=None, help="root seed (default 0)")
        p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
        p.add_argument("--out", default="monosync-out", help="output directory")
        # every flag defaults to None, so that only a given one overrides the
        # config; a flag's text is typed by _typed, as a config's value is
        for name, spec in options.items():
            default, option_help = _option(spec)
            flag = "--" + name.replace("_", "-")
            if default is False:
                p.add_argument(flag, action="store_true", default=None, help=option_help)
            else:
                p.add_argument(flag, default=None, choices=_CHOICES.get(name), help=option_help)
    return parser


def _parse_point(text: str | None, dim: int, fallback: np.ndarray) -> np.ndarray:
    if text is None:
        return fallback
    with _parse_errors(f"point {text!r}"):
        vals = [float(v) for v in (text if isinstance(text, (list, tuple)) else str(text).split(","))]
    if len(vals) != dim:
        raise UsageError(f"point has {len(vals)} coordinates, family has {dim}")
    if not np.isfinite(vals).all():
        raise UsageError(f"point coordinates must be finite, got {text}")
    return np.asarray(vals, dtype=float)


def _typed(name: str, value, default):
    """``value`` of option ``name`` as its default's type declares it.

    A flag's text, a config's JSON value and a default all take this path.
    An option in ``_CHOICES`` takes one of its choices; an on/off option
    (default False) a bool; an int option an int, or text ``int`` reads; a
    float option a real number, or text ``float`` reads.  An option whose
    default is None or another string is left to the parser that reads it.
    """
    choices = _CHOICES.get(name)
    if choices is not None:
        if value not in choices:
            raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        return value
    if default is None or isinstance(default, str):
        return value
    kind = type(default)
    if kind is bool:
        if not isinstance(value, bool):
            raise UsageError(f"{name} must be true or false, got {value!r}")
        return value
    if isinstance(value, str) or isinstance(value, (int, kind)) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):  # float(10**400) overflows
            pass
    raise UsageError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def _resolve_config(args: argparse.Namespace) -> dict:
    command = args.command
    defaults = {"seed": 0, **_defaults(command)}
    cfg: dict = {"command": command, **defaults}
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
    for key in ("family", *defaults):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    for name, default in defaults.items():
        cfg[name] = _typed(name, cfg[name], default)
    if "family" not in cfg:
        raise UsageError("a family is required (--family or --config)")
    cfg["command"] = command
    cfg["noise_layout"] = NOISE_LAYOUT
    return cfg


def _write_json(path: Path, obj, strict: bool = True) -> None:
    """Write JSON: a report object is the dict of its fields.  ``strict``
    writes a value that is not finite as null; a manifest is not strict, so
    an infinite clamp stays ``Infinity`` and ``--config manifest.json``
    replays it."""
    text = json.dumps(_jsonable(obj, strict), indent=2, sort_keys=True, allow_nan=not strict)
    path.write_text(text + "\n")


def _run_check_monotone(cfg, fam, ordr, outdir) -> int:
    probe = fam.probe_box()
    seed = cfg["seed"]
    if isinstance(fam.noise, FiniteNoise):
        alphas = list(range(1, fam.noise.q + 1))
    else:
        if cfg["n_alphas"] < 1:
            raise UsageError("n_alphas must be >= 1")
        alphas = list(sample_block(fam.noise, seed, 0, cfg["n_alphas"], label="monotone-alpha"))
    verdicts = []
    all_monotone = True
    for a in alphas:
        v = classify_monotonicity(fam, a, ordr, probe, n_pairs=cfg["n_pairs"], seed=seed)
        all_monotone = all_monotone and v.kind is not Monotonicity.NEITHER
        verdicts.append({"alpha": a, **_jsonable(v, True)})
    _write_json(outdir / "monotonicity.json", {"seed": seed, "verdicts": verdicts})
    return EXIT_OK if all_monotone else EXIT_UNVERIFIED


def _splitting_report(cfg, fam, ordr):
    method = cfg["method"]
    m_max = cfg["m_max"]
    seed = cfg["seed"]
    if method == "exact" or (method == "auto" and isinstance(fam.noise, FiniteNoise)):
        report = None
        for m in range(1, m_max + 1):
            report = split_mod.exact_splitting_scan(fam, ordr, m)
            if report.verified:
                break
        return report
    return split_mod.find_splitting_witness(
        fam, ordr, m_max, n_blocks=cfg["n_blocks"], seed=seed
    )


def _run_check_splitting(cfg, fam, ordr, outdir) -> int:
    if cfg["m_max"] < 1:  # an exact scan of no block length would report nothing
        raise UsageError("m_max must be >= 1")
    report = _splitting_report(cfg, fam, ordr)
    _write_json(outdir / "splitting.json", {**_jsonable(report, True), "seed": cfg["seed"]})
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def _run_sigma_decay(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    m = cfg["m"]
    scan_cfg = dict(_defaults("check-splitting"), m_max=m, seed=seed)
    report = _splitting_report(scan_cfg, fam, ordr)
    series = split_mod.sigma_decay(
        fam,
        ordr,
        m=m,
        x=cfg["x"],
        s=cfg["s"],
        j_max=cfg["j_max"],
        replicas=cfg["replicas"],
        seed=seed,
    )
    series.write_csv(outdir / "sigma_decay.csv", seed=seed)
    _write_json(
        outdir / "sigma_decay.json",
        {
            "seed": seed,
            "lambda_bound": series.lambda_bound,
            "splitting": report,
            # splitting at m' <= m with masses >= rho bounds membership by (1 - rho) per m'
            # steps, so by (1 - rho) ** (m // m') per block of m, the unit of lambda_bound
            "lambda_from_masses": (1.0 - report.rho) ** (m // report.m) if report.verified else None,
            "truncated_at": series.truncated_at,
            "n_saturated": series.n_saturated,
        },
    )
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def _run_sync_rate(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    series = sync_mod.diameter_series(
        fam, n_max=cfg["n_max"], replicas=cfg["replicas"], seed=seed
    )
    fit = sync_mod.fit_rate(series)
    series.write_csv(outdir / "diam_series.csv", fit=fit, seed=seed)
    bounded = sync_mod.assumption2_check(fam, seed)
    doc = {
        **_jsonable(fit, True),
        "seed": seed,
        "m0": series.m0,
        "boundedness": bounded,
        "n_saturated": int(series.saturated.sum()),
    }
    _write_json(outdir / "rate_fit.json", doc)
    return EXIT_OK


def _run_forward_gap(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    x0 = _parse_point(cfg["x0"], fam.dim, fam.probe_box().center)
    gaps = sync_mod.forward_attractor_gap(
        fam, seed, x0, cfg["n"], tail_tol=cfg["tail_tol"]
    )
    gaps.write_csv(outdir / "forward_gap.csv", seed=seed)
    return EXIT_OK


def _run_stationary(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    mu = trans_mod.pullback_sample(
        fam,
        seed,
        cfg["n_samples"],
        tol=cfg["tol"],
        n_max=cfg["n_max"],
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
    x0 = _parse_point(cfg["initial_point"], fam.dim, fam.probe_box().center)
    initial = trans_mod.EmpiricalMeasure.dirac(x0)
    curve = trans_mod.w1_decay_curve(
        fam,
        initial,
        n_max=cfg["n_max"],
        n_particles=cfg["n_particles"],
        seed=seed,
        ref_size=cfg["ref_size"],
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
        n=cfg["n"],
        replicas=cfg["replicas"],
        mu_size=cfg["mu_size"],
        grid_size=cfg["grid_size"],
        tol=cfg["tol"],
    )
    _write_json(outdir / "clt_report.json", {**_jsonable(report, True), "seed": seed})
    if cfg["dump_paths"]:
        ensemble.write_csv(outdir / "paths.csv", seed=seed)
    return EXIT_OK


def _run_simulate(cfg, fam, ordr, outdir) -> int:
    seed = cfg["seed"]
    x0 = _parse_point(cfg["x0"], fam.dim, fam.probe_box().center)
    block = sample_block(fam.noise, seed, cfg["stream_id"], cfg["n"])
    if cfg["direction"] == "forward":
        trace = forward_orbit(fam, block, x0)
    else:
        trace = reverse_orbit(fam, block, x0, probe_points=_default_probe(fam))
    trace.write_csv(outdir / "orbit.csv", seed=seed)
    return EXIT_OK


# Each command: (help, runner, options).  An option maps to its default, or to
# (default, help); its flag is the name with dashes, the default gives its type
# (None: a string, False: a flag), and _CHOICES lists the values it may take.
# _typed enforces that type and those choices on a config's value as on a
# flag's, so a runner reads cfg[name] as it is.
_CHOICES = {"method": ("auto", "exact", "mc"), "direction": ("forward", "reverse")}
_COMMANDS: dict[str, tuple] = {
    "check-monotone": (
        "classify each member map's monotonicity",
        _run_check_monotone,
        {"n_pairs": 200, "n_alphas": (8, "sampled parameters for box noise")},
    ),
    "check-splitting": (
        "verify the order-splitting condition",
        _run_check_splitting,
        {"m_max": 3, "method": "auto", "n_blocks": 64},
    ),
    "sigma-decay": (
        "membership probability decay at depths j*m",
        _run_sigma_decay,
        {"m": 1, "x": 0.5, "s": 1, "j_max": 8, "replicas": 10_000},
    ),
    "sync-rate": ("image-diameter decay rate", _run_sync_rate, {"n_max": 20, "replicas": 64}),
    "forward-gap": (
        "forward orbit vs the attractor on the same noise",
        _run_forward_gap,
        {
            "n": 15,
            "x0": (None, "comma-separated start point"),
            "tail_tol": (1e-10, "as stationary --tol, for the attractor"),
        },
    ),
    "stationary": (
        "pullback sample of the stationary law",
        _run_stationary,
        {"n_samples": 4096, "tol": 1e-9, "n_max": 4096},
    ),
    "w1-decay": (
        "W1 distance to stationarity under push-forward",
        _run_w1_decay,
        {
            "n_max": 12,
            "n_particles": 4096,
            "initial_point": (None, "comma-separated point"),
            "ref_size": 4096,
        },
    ),
    "clt": (
        "Poisson equation, variance, and FCLT diagnostics",
        _run_clt,
        {
            "observable": ("coord:1", 'e.g. "coord:1"'),
            "n": 10_000,
            "replicas": 1000,
            "mu_size": 4096,
            "grid_size": 2048,
            "tol": 1e-4,
            "dump_paths": False,
        },
    ),
    "simulate": (
        "export one forward or reverse orbit",
        _run_simulate,
        {"n": 50, "x0": None, "direction": "forward", "stream_id": 0},
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    manifest, previous, created = None, None, []
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        fam, ordr = family_from_config(cfg)
        outdir = Path(args.out)
        created = [d for d in (outdir, *outdir.parents) if not d.exists()]
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = outdir / "manifest.json"
        previous = manifest.read_bytes() if manifest.exists() else None
        _write_json(manifest, {**cfg, **family_to_config(fam, ordr)}, strict=False)
        return _COMMANDS[args.command][1](cfg, fam, ordr, outdir)
    except UsageError as exc:
        # a runner that rejects its sizes has written nothing but the
        # manifest: take it back, restoring the one it replaced, and remove
        # the directories this call made
        if previous is not None:
            manifest.write_bytes(previous)
        elif manifest is not None:
            manifest.unlink(missing_ok=True)
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
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
