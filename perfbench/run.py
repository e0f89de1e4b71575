"""fisherkpp benchmark: time the CLI on one workload and check its outputs.

    python3 perfbench/run.py --workload mms-starter --seed 1 --seconds 40 --trace 0

A run splits ``--seconds`` between a few workers, one after another. Each
worker is a fresh interpreter (closed loop: one process, one integration
at a time, BLAS and OpenMP pinned to one thread) that makes one cold
``fisherkpp.cli.main`` call and then warm calls until its share of the
time is used, timing a fixed reference kernel after each call (see
worker.py). The cold calls give set-up time, the median over the
workers. The warm calls give time to solution: the median per
configuration of the seed's cycle, averaged over the configurations and
divided by the host slowdown, the reference kernel's median time over
its nominal time. The first worker always completes a whole cycle of
warm calls. Every call's artifacts are checked. The last stdout line
holds the end-to-end metrics. With ``--trace 1`` plain and traced
workers alternate, and the last line holds the per-layer metrics and the
tracing overhead. The program is used from ``src/`` as checked out, with
no install step.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_key, expected_errors, first_cycle, within_tolerance

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# fresh interpreters per run: each gives one set-up sample
PLAIN_WORKERS = 4
# a worker may overrun its deadline by this much before it is stopped
WORKER_GRACE_S = 60


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(env, spec):
    """Run one worker; return its result dict with setup_s, or None on failure."""
    out = Path(spec["out"])
    out.mkdir(parents=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)]
    t_spawn = time.monotonic()
    timeout = max(spec["deadline"] - t_spawn, 0) + WORKER_GRACE_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{spec['mode']} worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not (out / "result.json").is_file():
        print(f"{spec['mode']} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads((out / "result.json").read_text())
    cold = result["calls"][0]
    if "first_integrate" not in cold:
        print(f"{spec['mode']} worker never integrated: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result["setup_s"] = cold["first_integrate"] - t_spawn
    return result


def read_artifacts(command, art_dir, betas):
    """({(beta, M or None): Linf}, config hash) from the CLI's own CSV files."""
    found, header = {}, None
    if command == "run":
        files = [(betas[0], art_dir / "errors.csv")]
    else:
        files = [(b, p) for b in betas for p in art_dir.glob(f"temporal_beta{b}_*.csv")
                 if not p.name.endswith("_plot.csv")]
    for beta, path in files:
        if not path.is_file():
            continue
        lines = path.read_text().splitlines()
        header = lines[0].removeprefix("# config=")
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        for row in rows:
            key = (beta, None) if command == "run" else (beta, int(row[0]))
            found[key] = float(row[0] if command == "run" else row[1])
    return found, header


def check_call(name, betas, result, art_dir):
    """Count the call's integrations and those that failed a check."""
    expected = expected_errors(name, betas)
    if result is None or result.get("exit") != 0:
        return len(expected), len(expected), [], None
    found, header = read_artifacts(WORKLOADS[name]["command"], art_dir, betas)
    integrations = result["integrations"]
    failed = 0
    for i, (key, ref) in enumerate(expected.items()):
        finite = i < len(integrations) and integrations[i].get("finite", False)
        got = found.get(key)
        if not finite or got is None or not within_tolerance(got, ref):
            print(f"check failed for beta={key[0]} M={key[1]}: finite={finite} "
                  f"linf={got} reference={ref}", file=sys.stderr)
            failed += 1
    return len(expected), failed, list(found.values()), header


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unavailable"


def median(values):
    return statistics.median(values) if values else float("nan")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_config(calls, value):
    """{config key: median of value(call)} over the given warm calls."""
    groups = {}
    for c in calls:
        groups.setdefault(config_key(c["betas"]), []).append(value(c))
    return {k: median(v) for k, v in groups.items()}


def config_mean(calls, value):
    """Mean over configurations of the median of value(call) per configuration."""
    values = per_config(calls, value)
    return statistics.fmean(values.values()) if values else float("nan")


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into an exception, on which subprocess.run kills and
    # waits for the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fisherkpp" / "cli.py").is_file():
        print(f"error: no fisherkpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    env = worker_env()
    name = args.workload
    cycle = first_cycle(name, args.seed)

    modes = ["plain", "trace"] * 2 if args.trace else ["plain"] * PLAIN_WORKERS
    made = {"plain": 0, "trace": 0}
    warm = {"plain": [], "trace": []}
    workers, setups, linfs, hashes, record = [], [], [], set(), []
    attempted = failed = 0
    t0 = time.monotonic()
    for j, mode in enumerate(modes):
        spec = {"workload": name, "seed": args.seed, "skip": made[mode],
                # the first worker of a mode covers every configuration
                "min_warm": len(cycle) if made[mode] == 0 else 0,
                "deadline": t0 + args.seconds * (j + 1) / len(modes),
                "mode": mode, "out": str(OUT / f"worker{j}-{mode}")}
        result = run_worker(env, spec)
        if result is None:
            # the run has failed; stopping here keeps it within its time limit
            attempted += 1
            failed += 1
            break
        workers.append({"mode": mode, **result})
        if mode == "plain":
            setups.append(result["setup_s"])
        for i, call in enumerate(result["calls"]):
            art_dir = Path(spec["out"]) / f"call{i:03d}"
            n, bad, found, header = check_call(name, call["betas"], call, art_dir)
            shutil.rmtree(art_dir, ignore_errors=True)
            attempted += n
            failed += bad
            linfs += found
            if header:
                hashes.add(header)
            record.append({"worker": j, "mode": mode, "cold": call["cold"],
                           "betas": call["betas"], "failed": bad,
                           "wall_s": call.get("wall_s"), "duration": call["duration"],
                           "ref_s": call["ref_s"]})
            if not call["cold"]:
                made[mode] += 1
                if "wall_s" in call:
                    warm[mode].append(call)

    plain = warm["plain"]
    keys = {config_key(betas) for _, betas in cycle}
    walls = per_config(plain, lambda c: c["wall_s"])
    covered = keys <= set(walls)
    steps = per_config(plain, lambda c: sum(i.get("cell_steps", 0) for i in c["integrations"]))
    raw_wall = statistics.fmean(walls.values()) if covered else float("nan")
    # how much slower than nominal the host ran while the plain workers ran
    slowdown = median([c["ref_s"] for w in workers if w["mode"] == "plain"
                       for c in w["calls"]]) / WORKLOADS[name]["ref_nominal_s"]
    wall = raw_wall / slowdown
    e2e = {
        "wall_s": (wall, "s"),
        "setup_s": (median(setups), "s"),
        "cell_steps_per_s": (statistics.fmean(steps.values()) / wall
                             if covered else float("nan"), "1/s"),
        "linf_err": (max(linfs) if linfs else float("nan"), "1"),
        "peak_rss_mb": (max((w["maxrss_kb"] / 1024.0 for w in workers
                             if w["mode"] == "plain"), default=float("nan")), "MB"),
    }
    correct = failed == 0 and covered and (not args.trace or bool(warm["trace"]))
    summary = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in e2e.items())
    print(f"{name} seed={args.seed} warm calls={len(plain)}: {summary} "
          f"failed_frac={failed / max(attempted, 1):.6g} ({failed}/{attempted}); "
          f"median calls as measured {raw_wall:.6g} s, host slowdown {slowdown:.4g}")

    if args.trace:
        traced = warm["trace"]
        names = traced[0]["layers"] if traced else {}
        metrics = {k: (config_mean(traced, lambda c, k=k: c["layers"][k][0]), u)
                   for k, (_, u) in names.items()}
        traced_wall = config_mean(traced, lambda c: c["wall_s"])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (raw_wall, "s")
        metrics["trace.overhead_ratio"] = (traced_wall / raw_wall, "ratio")
        # a warm call may take no page fault at all; a cold call, like a
        # one-shot use of the CLI, grows the heap and always does
        cold = {mode: [w["calls"][0] for w in workers if w["mode"] == mode]
                for mode in ("plain", "trace")}
        metrics["trace.minor_faults"] = (median([c["minflt"] for c in cold["trace"]]), "count")
        metrics["process.minor_faults"] = (median([c["minflt"] for c in cold["plain"]]),
                                           "count")
        metrics["process.sys_s"] = (median([c["sys_s"] for c in cold["plain"]]), "s")
        metrics["host.slowdown"] = (slowdown, "ratio")
        print(f"trace: {len(traced)} warm traced calls, overhead "
              f"{traced_wall - raw_wall:.4g} s; spans in {OUT}")
    else:
        metrics = e2e

    env_record = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"] if workers else None,
        "scipy": workers[0]["scipy"] if workers else None,
        "config_hashes": sorted(hashes),
        "cli": ["fisherkpp", *cycle[0][0]],
        "first_cycle_betas": [betas for _, betas in cycle],
    }
    (OUT / "record.json").write_text(json.dumps(
        {"env": env_record, "calls": record, "setup_samples": setups,
         "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
    print("env " + json.dumps(env_record))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
