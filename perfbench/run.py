"""qdo benchmark: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload exact-wide --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run builds the workload's inputs from ``--seed``, measures set-up time in
fresh processes, runs one warm-up round, then runs whole rounds of ops (one op
of every kind per round) until ``--seconds`` have passed, checking every
output. With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds per-layer metrics from wrappers around qdo's
public functions. Details and the full record of a run go to ``.perfbench/``.
See NOTES.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("exact-validate", "exact-wide", "catalog-cli", "noisy-trajectories")
SETUP_REPEATS = 7
# One client and no extra threads: numpy's BLAS pools stay at one thread
# unless the caller sets otherwise (the values are recorded with the results).
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "threads_used": 1,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        facts["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = {
            "size": size, "shared_cpu_list": shared,
        }
    return facts


def build(args: argparse.Namespace, workdir: Path):
    import workloads

    refs = workloads.load_refs(BENCH_DIR / "refs.json")
    return workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, refs)


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Wall time of fresh processes that import qdo and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-500:]}")
    return times


def run_op(op, r: int, tracer=None, op_id: int = -1) -> dict:
    op.prepare()
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out, problems = op.run(), []
    except Exception as exc:  # a failed op is counted, not fatal
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = -1
    if not problems:
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {"round": r, "kind": op.kind, **op.info, "ms": elapsed * 1e3,
            "ok": not problems, "problems": problems[:3]}


def run_rounds(wl, first: int, *, seconds: float | None = None, count: int | None = None,
               tracer=None) -> list[dict]:
    """Whole rounds from ``first``: ``count`` of them, or until ``seconds`` pass."""
    records = []
    start = time.perf_counter()
    r = first
    while True:
        for op in wl.round(r):
            records.append(run_op(op, r, tracer, len(records)))
        r += 1
        if count is not None and r - first >= count:
            return records
        if seconds is not None and time.perf_counter() - start >= seconds:
            return records


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "samples": n}


def end_to_end(args, timed: list[dict]) -> tuple[dict, dict]:
    lat = [rec["ms"] for rec in timed]
    busy_s = sum(lat) / 1e3
    setup = measure_setup(args)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shots = sum(rec.get("shots", 0) for rec in timed)
    extra = {"op_p50_ms": statistics.median(lat), "op_tail_ms": tail(lat), "setup_runs_s": setup}
    if shots:
        extra["shots_per_s"] = shots / busy_s
    return metrics, extra


def per_layer(wl, first: int, seconds: float) -> tuple[dict, list[dict], object]:
    """Untraced rounds for half the time, then the same rounds again traced."""
    import spans
    from qdo import engine

    plain = run_rounds(wl, first, seconds=seconds / 2)
    rounds = plain[-1]["round"] - first + 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, first, count=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    wall_s = sum(rec["ms"] for rec in traced) / 1e3
    metrics = tracer.layer_metrics(len(traced), wall_s, getattr(engine, "_TRAJECTORY_BATCH", None))
    metrics["trace.overhead_ratio"] = wall_s / (sum(rec["ms"] for rec in plain) / 1e3) - 1.0
    return metrics, plain + traced, tracer


def report(args, metrics: dict, units: dict, extra: dict, records: list[dict], warmup: list[dict],
           tracer) -> int:
    attempted = len(records) + len(warmup)
    failed = sum(not rec["ok"] for rec in records + warmup)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "metrics": metrics, "units": units, "extra": extra,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "warmup": warmup, "ops": records,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  ops: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.6g}")
    sizes = {(rec["n"], rec["gates"], rec["kind"]) for rec in records}
    print("  working set: " + "; ".join(f"{kind} n={n} gates={g}" for n, g, kind in sorted(sizes)))
    for rec in (records + warmup):
        if not rec["ok"]:
            print(f"  FAILED {rec['kind']} (round {rec['round']}): {'; '.join(rec['problems'])}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    if "op_p50_ms" in extra:
        print(f"  {'op_p50_ms':36s} {extra['op_p50_ms']:.6g} ms")
    if "op_tail_ms" in extra:
        t = extra["op_tail_ms"]
        print(f"  {'op_tail_ms':36s} {t['value']:.6g} ms (p{t['percentile']:.1f}, "
              f"{t['beyond']} of {t['samples']} ops beyond)")
    if "shots_per_s" in extra:
        print(f"  {'shots_per_s':36s} {extra['shots_per_s']:.6g} 1/s")
    print(f"  details: {OUT_DIR / stem}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):  # the run died before its result line
            results[name] = None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qdo" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        print(f"perfbench: no qdo source tree (src/qdo, models/) under {ROOT}", file=sys.stderr)
        return 2
    for k in THREAD_ENV:
        os.environ.setdefault(k, "1")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = build(args, workdir)
        if args.setup_only:
            return 0
        warmup = run_rounds(wl, 0, count=1)
        tracer = None
        if args.trace:
            metrics, records, tracer = per_layer(wl, 1, args.seconds)
            units, extra = {k: layer_unit(k) for k in metrics}, {}
        else:
            records = run_rounds(wl, 1, seconds=args.seconds)
            metrics, extra = end_to_end(args, records)
            units = dict(END_TO_END)
        return report(args, metrics, units, extra, records, warmup, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
