"""monosync benchmark: four closed-loop CLI workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sample-1d --seed 1 --seconds 24 --trace 0

One process, one caller: each command of the workload's fixed op list
starts when the previous one returns.  A pass is one run of the whole op
list; passes repeat with the same per-op seeds.  ``--trace 0`` runs one
whole pass and then keeps running ops until the next is predicted to end
after ``--seconds``, and prints the end-to-end metrics; ``--trace 1``
alternates whole untraced and traced passes and prints the per-layer
metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full detail
(environment, per-op times and artifact sha256, spans) goes to
``.perfbench_out/`` in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sample-1d", "w1-2d", "clt-1d", "verify", "sample-verify")
SETUP_SAMPLES = 3
MIB = float(1 << 20)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A fresh interpreter imports the CLI and runs one warm-up command; the
# parent times the whole child, interpreter start and exit included.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import monosync.cli
t1 = time.perf_counter()
rc = monosync.cli.main(json.loads(sys.argv[2]) + ["--out", sys.argv[3]])
print(json.dumps({"import_s": t1 - t0, "warmup_s": time.perf_counter() - t1}))
sys.exit(rc)
"""


def _cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or int(cur) > nproc or int(cur) < 1:
            os.environ[var] = str(nproc)
    return nproc


class CpuPicker:
    """Pins the process, before each command, to the allowed CPU that runs a short probe fastest.

    On a shared 2-vCPU Xeon virtual machine each CPU slowed down about 2x,
    on its own, for seconds at a time: in 20 probes alternated between the
    two CPUs over 30 s, one was
    slow while the other was fast 8 times.  Picking the faster CPU keeps the
    benchmark measuring the program instead of its neighbours; the probe
    runs between commands, outside every timing.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.picks: dict[int, int] = {}

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        best = min(self.cpus, key=self._probe)
        os.sched_setaffinity(0, {best})
        self.picks[best] = self.picks.get(best, 0) + 1

    @staticmethod
    def _probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            s = 0
            for i in range(3000):
                s += i * i
            best = min(best, time.perf_counter() - t0)
        return best


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = next((ln.split(":", 1)[1].strip() for ln in _read_text("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        level = _read_text(f"{base}/index{idx}/level").strip()
        size = _read_text(f"{base}/index{idx}/size").strip()
        kind = _read_text(f"{base}/index{idx}/type").strip()
        if level in ("2", "3") and size and kind in ("Unified", "Data"):
            mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            caches[f"L{level}_bytes"] = int(size.rstrip("KM")) * mult
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu": cpu,
        **caches,
    }


def _measure_setup(scratch: Path, samples: int, cpus: CpuPicker) -> tuple[list[float], list[dict]]:
    import workloads

    walls, details = [], []
    for _ in range(samples):
        out = scratch / f"setup-{time.monotonic_ns()}"
        cpus.pick()  # the child inherits the pinning
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(workloads.WARMUP_ARGV), str(out)],
            capture_output=True, text=True, timeout=170,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        details.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out, ignore_errors=True)
    return walls, details


def _fastest_repeats(ops: list, passes: list[dict]) -> list[float]:
    """Per op, the fastest time of any op with the same command in any of the passes."""
    best: dict[str, float] = {}
    for p in passes:
        for op, t in zip(ops, p["op_s"]):
            best[op.group] = min(best.get(op.group, t), t)
    return [best[op.group] for op in ops]


def _tail(times: list[float]):
    """Highest listed percentile with at least ten ops beyond it (nearest rank)."""
    n = len(times)
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-int(p * n) // 100))
            return p, ordered[rank - 1]
    return None, None


class Runner:
    def __init__(self, args, cli, tracer):
        import workloads

        self.args = args
        self.cli = cli
        self.tracer = tracer
        self.ops = workloads.build(args.workload, args.seed, args.smoke)
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self.passes: list[dict] = []
        self.failures: list[str] = []
        self.gate_misses: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_hashes: list[dict] | None = None
        self.cpus = CpuPicker()

    def run_pass(self, traced: bool, deadline: float | None = None) -> dict:
        """Run the op list once; with a deadline, stop before an op predicted to overrun it."""
        idx = len(self.passes)
        pass_dir = self.scratch / f"pass{idx}"
        outs = [pass_dir / f"op{op.index}" for op in self.ops]
        argvs = [op.argv + ["--out", str(o)] for op, o in zip(self.ops, outs)]
        if idx > 0:
            # criterion 10 inside the timed loop: op 0 replays the first
            # pass's manifest, same work, and must reproduce its bytes
            argvs[0] = self._replay_argv(outs[0])
        rec = self.tracer.install() if traced else None
        gc.collect()
        times, rcs = [], []
        t_pass = time.perf_counter()
        try:
            for i, argv in enumerate(argvs):
                if deadline is not None and time.perf_counter() + self.passes[-1]["op_s"][i] > deadline:
                    break
                if rec is not None:
                    rec.op = i
                self.cpus.pick()
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception:  # an op that crashes is a failed op; the run goes on
                    traceback.print_exc()
                    rc = None
                times.append(time.perf_counter() - t0)
                rcs.append(rc)
        finally:
            wall = time.perf_counter() - t_pass
            if traced:
                self.tracer.uninstall()
        info = {"traced": traced, "wall_s": wall, "op_s": times, "rc": rcs, "recorder": rec,
                "complete": len(times) == len(self.ops)}
        if times:
            self._check(info, outs)
            self.passes.append(info)
        if idx > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return info

    def _check(self, info: dict, outs: list[Path]) -> None:
        import workloads

        first = self.first_hashes is None
        hashes, nbytes = [], 0
        for op, out, rc in zip(self.ops, outs, info["rc"]):
            self.attempted += 1
            h = workloads.artifact_hashes(out) if out.is_dir() else {}
            nbytes += sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
            if first:
                issues = workloads.check_op(op, out, rc, self.args.smoke)
            elif rc != op.expect_rc or h != self.first_hashes[op.index]:
                # later passes repeat the seeds: byte-identity covers the content checks
                issues = [("fail", f"exit code {rc} or artifacts differ from the first pass")]
            else:
                issues = []
            hashes.append(h)
            self._record(f"op {op.index}", issues)
        if first:
            self.first_hashes = hashes
            self.attempted += 1
            self._record("pass", workloads.check_pass(self.ops, outs, self.args.smoke))
        info["hashes"] = hashes
        info["bytes_written"] = nbytes

    def _record(self, where: str, issues: list) -> None:
        fails = [m for k, m in issues if k == "fail"]
        self.failures += [f"{where}: {m}" for m in fails]
        self.gate_misses += [f"{where}: {m}" for k, m in issues if k == "gate"]
        if fails:
            self.failed += 1

    def _replay_argv(self, out: Path) -> list[str]:
        manifest = self.scratch / "pass0" / "op0" / "manifest.json"
        return [self.ops[0].argv[0], "--config", str(manifest), "--threads", "1", "--out", str(out)]

    def replay(self) -> bool:
        """Whether op 0 replayed byte-identically; replays once more if no later pass did."""
        import workloads

        if len(self.passes) > 1:
            return all(p["hashes"][0] == self.first_hashes[0] for p in self.passes[1:])
        redo = self.scratch / "replay"
        rc = self.cli.main(self._replay_argv(redo))
        self.attempted += 1
        same = rc == self.ops[0].expect_rc and workloads.artifact_hashes(redo) == self.first_hashes[0]
        if not same:
            self._record("replay of op 0", [("fail", "manifest replay is not byte-identical")])
        return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up sample; for tests")
    args = ap.parse_args(argv)

    if not (SRC / "monosync" / "cli.py").is_file():
        print(f"error: monosync sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_threads()  # before anything imports numpy
    OUT.mkdir(exist_ok=True)
    sys.path[:0] = [str(HERE), str(SRC)]
    import monosync.cli as cli
    import tracing

    env = _environment(nproc)
    runner = Runner(args, cli, tracing.Tracer() if args.trace else None)
    runner.scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, env, runner, cli)
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)


def _run(args, env: dict, runner: Runner, cli) -> int:
    import workloads

    # set-up samples before and after the timed phase, so they see more than
    # one of the machine's speed phases
    setup_walls, setup_detail = _measure_setup(runner.scratch, 1, runner.cpus)
    cli.main(workloads.WARMUP_ARGV + ["--out", str(runner.scratch / "warmup")])

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # whole passes, untraced and traced in turn, while one more of its kind fits
        last = {False: 0.0, True: 0.0}
        for k in itertools.count():
            traced = k % 2 == 1
            if k >= 2 and time.perf_counter() + last[traced] > deadline:
                break
            last[traced] = runner.run_pass(traced)["wall_s"]
    else:
        # one whole pass, then ops keep coming until the next would overrun
        info = runner.run_pass(False)
        while info["complete"]:
            info = runner.run_pass(False, deadline)
    replay = runner.replay()
    more_walls, more_detail = _measure_setup(runner.scratch, 0 if args.smoke else SETUP_SAMPLES - 1, runner.cpus)
    setup_walls += more_walls
    setup_detail += more_detail

    untraced = [p for p in runner.passes if not p["traced"]]
    traced = [p for p in runner.passes if p["traced"]]
    op_times = [t for p in untraced for t in p["op_s"]]
    # On a shared 2-vCPU Xeon virtual machine the speed alternated between
    # phases about 1.6x apart, each lasting seconds to a minute, so a median
    # moves with the share
    # of slow phases in a run.  Times in BENCHMARK.json take each command's
    # fastest repeat instead: the minimum over every op of the same command
    # (same argv apart from --seed) in every untraced pass.
    op_best = _fastest_repeats(runner.ops, untraced)
    wall = sum(op_best)
    tail_p, tail_v = _tail(op_times)
    e2e = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    layer = _layer_metrics(runner, traced, untraced, env) if traced else {}
    extra = {
        "op_p50_s": (statistics.median(op_best), "s"),
        "fail_ratio": (runner.failed / runner.attempted, "ratio"),
        "wall_median_s": (statistics.median(p["wall_s"] for p in untraced if p["complete"]), "s"),
        "op_median_s": (statistics.median(op_times), "s"),
    }
    if tail_p is not None:
        extra["op_tail_s"] = (tail_v, f"s (p{tail_p:g} of {len(op_times)} ops)")
    for key, name in (("pullbacks", "pullbacks_per_s"), ("chain_steps", "chain_steps_per_s")):
        done = [(op.work[key], t) for op, t in zip(runner.ops, op_best) if key in op.work]
        if done:  # work of the commands that carry it, over their fastest-repeat time
            extra[name] = (sum(w for w, _ in done) / sum(t for _, t in done), "1/s")

    metrics = layer if args.trace else e2e
    correct = runner.failed == 0
    hooks = runner.tracer
    print(f"# workload {args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
          f"passes of {len(runner.ops)} ops; closed loop, 1 caller, --threads 1")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if hooks is not None:
        print(f"# hooks found {len(hooks.found)}: " + " ".join(sorted(hooks.found)))
        print("# hooks missing: " + (" ".join(hooks.missing + hooks.counter_missing) or "none"))
    for name, (value, unit) in {**e2e, **extra, **layer}.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in runner.failures:
        print(f"# FAIL {msg}")
    for msg in runner.gate_misses:
        print(f"# GATE MISS {msg}")
    digest = _digest(runner.first_hashes)
    print(f"# artifacts sha256 {digest}; replay byte-identical: {replay}")

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "env": env, "setup_s": setup_walls, "setup_detail": setup_detail,
        "ops": [{"argv": op.argv, "expect_rc": op.expect_rc, "sha256": h}
                for op, h in zip(runner.ops, runner.first_hashes)],
        "artifacts_sha256": digest,
        "passes": [{k: v for k, v in p.items() if k != "recorder"} for p in runner.passes],
        "replay": replay, "failures": runner.failures, "gate_misses": runner.gate_misses,
        "cpu_picks": runner.cpus.picks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **extra, **layer}.items()},
        "hooks_missing": [] if hooks is None else hooks.missing + hooks.counter_missing,
        "hook_layers": {} if hooks is None else {n: hooks.hooks[n] for n in hooks.found},
        "first_traced_pass": traced[0]["recorder"].summary() if traced else None,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if traced:
        _write_spans(OUT / f"spans-{stem}.csv", runner, traced)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _digest(hashes: list[dict]) -> str:
    import hashlib

    h = hashlib.sha256()
    for i, per_op in enumerate(hashes):
        for name, sha in sorted(per_op.items()):
            h.update(f"{i}/{name}={sha}\n".encode())
    return h.hexdigest()


def _layer_metrics(runner: Runner, traced: list, untraced: list, env: dict) -> dict:
    import tracing

    per_pass = []
    for p in traced:
        rec = p["recorder"]
        s = rec.summary()
        m = tracing.layer_metrics(s, runner.tracer)
        m["cli.bytes_written"] = (float(p["bytes_written"]), "B")
        biggest = max(s["largest_array_bytes"], s["counts"].get("clt.noise_table_bytes", 0))
        m["mem.largest_array_mb"] = (biggest / MIB, "MiB")
        if env.get("L3_bytes"):
            m["mem.largest_array_over_l3"] = (biggest / env["L3_bytes"], "ratio")
        m["trace.uncovered_s"] = (sum(p["op_s"]) - sum(s["self_s"].values()), "s")
        m["trace.spans"] = (float(s["n_spans"]), "count")
        per_pass.append(m)
    out, issues = {}, []
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("s", "1/s"):
            out[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) > 1:
                issues.append(("fail", f"count {name} differs between traced passes: {values}"))
            out[name] = (value, unit)
    if len(per_pass) > 1:
        runner.attempted += 1
        runner._record("traced passes", issues)
    t_wall = sum(_fastest_repeats(runner.ops, traced))
    u_wall = sum(_fastest_repeats(runner.ops, untraced))
    out["trace.overhead"] = (t_wall / u_wall - 1.0, "ratio")
    return out


def _write_spans(path: Path, runner: Runner, traced: list) -> None:
    names = runner.tracer.names
    with open(path, "w") as fh:
        fh.write("pass,span,hook,start_s,end_s,parent,op,self_s\n")
        for n, p in enumerate(traced):
            for sid, (hook, t0, t1, parent, op, own) in enumerate(p["recorder"].spans):
                fh.write(f"{n},{sid},{names[hook]},{t0:.9f},{t1:.9f},{parent},{op},{own:.9f}\n")


if __name__ == "__main__":
    sys.exit(main())
