"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs ops of each workload as they are (each must pass its check), then again
with one public qdo function wrapped so that it perturbs a distribution or
changes a report byte; each perturbed op must be counted as failed. Nothing
in qdo is edited: the wrappers are bound into qdo's modules the way the
tracer binds its own. It also checks that BENCHMARK.json names exactly the
metrics the benchmark prints. Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from qdo import engine, experiments  # noqa: E402


def shifted_distribution(fn):
    def wrapper(*args, **kwargs):
        dist = fn(*args, **kwargs)
        values = np.array(dist.values)
        values[0] += 1e-6
        values[-1] -= 1e-6
        return engine.Distribution(dist.n_qubits, values, shots=dist.shots)

    return wrapper


def moved_count(fn):
    def wrapper(*args, **kwargs):
        dist = fn(*args, **kwargs)
        values = np.array(dist.values)
        i = int(np.argmax(values))
        values[i] -= 1
        values[(i + 1) % values.size] += 1
        return engine.Distribution(dist.n_qubits, values, shots=dist.shots)

    return wrapper


def changed_byte(fn):
    def wrapper(*args, **kwargs):
        text = fn(*args, **kwargs)
        return text.replace("0", "1", 1)

    return wrapper


# (workload, seed, kinds, function to wrap or None, how to wrap it)
CASES = [
    ("exact-validate", 0, ("n8", "simpson3", "healthcare10"), None, None),
    ("exact-validate", 0, ("n8", "simpson3", "healthcare10"), (engine, "run_exact"), shifted_distribution),
    ("exact-wide", 0, ("n15",), None, None),
    ("exact-wide", 0, ("n15",), (engine, "run_exact"), shifted_distribution),
    ("exact-wide", 7, ("n15",), (engine, "run_exact"), shifted_distribution),
    ("catalog-cli", 0, ("s3-exact", "s3-sampled", "run-do-sampled"), None, None),
    ("catalog-cli", 0, ("s3-sampled", "run-effect-sampled"), (experiments, "report_json_text"), changed_byte),
    ("catalog-cli", 7, ("s3-exact", "h10-insurance"), (experiments, "format_report_table"), changed_byte),
    ("catalog-cli", 0, ("s3-sampled", "h10-sampled", "run-do-sampled"), (engine, "run_sampled"), moved_count),
    ("noisy-trajectories", 0, ("s3-noisy",), None, None),
    ("noisy-trajectories", 0, ("s3-noisy",), (engine, "run_sampled"), moved_count),
]


def run_case(workdir: Path, refs: dict, name: str, seed: int, kinds, target, perturb) -> list[str]:
    wl = workloads.WORKLOADS[name](run.ROOT, workdir, seed, refs)
    ops = [op for op in wl.round(0) if op.kind in kinds]
    patched = []
    if target is not None:
        original = getattr(*target)
        patched = spans.rebind(original, perturb(original))
    try:
        records = [run.run_op(op, 0) for op in ops]
    finally:
        spans.restore(patched)
    want_ok = target is None
    label = f"{name} seed={seed} {target[1] + ' ' + perturb.__name__ if target else 'as is'}"
    out = []
    for rec in records:
        if rec["ok"] != want_ok:
            out.append(f"{label}: {rec['kind']} {'passed' if rec['ok'] else 'failed'}: {rec['problems']}")
        else:
            why = "passed" if rec["ok"] else f"counted as failed ({rec['problems'][0]})"
            print(f"ok: {label}: {rec['kind']} {why}")
    return out


def metric_names() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = set(spans.Tracer().layer_metrics(1, 0.0, None)) | {"trace.overhead_ratio"}
    problems = []
    if {m["name"] for m in bench["end_to_end"]} != set(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end names differ from the printed metrics")
    if {m["name"] for m in bench["per_layer"]} != layers:
        problems.append("BENCHMARK.json per_layer names differ from the traced metrics")
    for m in bench["end_to_end"]:
        if m["unit"] != run.END_TO_END.get(m["name"]):
            problems.append(f"unit of {m['name']} differs")
    for m in bench["per_layer"]:
        if m["unit"] != run.layer_unit(m["name"]):
            problems.append(f"unit of {m['name']} differs")
    return problems


def main() -> int:
    refs = workloads.load_refs(run.BENCH_DIR / "refs.json")
    problems = metric_names()
    for i, case in enumerate(CASES):
        workdir = run.OUT_DIR / f"selftest-{i}"
        try:
            problems += run_case(workdir, refs, *case)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"MISSED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
