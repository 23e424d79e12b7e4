"""Span tracing from outside qdo: wrappers around its public functions.

``Tracer.install`` replaces each traced function by a wrapper in every qdo
module that holds it. A module binds the names it imports when it is
imported, so rebinding only ``qdo.engine.run_exact`` would miss the calls that
go through ``qdo.experiments.run_exact`` or ``qdo.cli.run_exact``. Spans (name,
start, end, parent, op id and a few sizes) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

AMP_BYTES = 16  # complex128, the amplitude type of the engine's state

# (module, function, span name); several functions may share one span name.
TRACED = (
    ("model", "load_model", "model.load_model"),
    ("model", "validate", "model.validate"),
    ("model", "apply_do", "model.apply_do"),
    ("circuit", "compile_model", "circuit.compile_model"),
    ("circuit", "surgered_circuit", "circuit.surgered_circuit"),
    ("engine", "run_exact", "engine.run_exact"),
    ("engine", "run_sampled", "engine.run_sampled"),  # engine.trajectory when noisy
    ("engine", "marginal", "engine.marginal"),
    ("oracle", "enumerate_joint", "oracle.enumerate_joint"),
    ("analysis", "cond_prob", "analysis.cond_prob"),
    ("analysis", "observational_effect", "analysis.effects"),
    ("analysis", "stratified_effect", "analysis.effects"),
    ("analysis", "aggregate_trials", "analysis.aggregate_trials"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "report_to_dict", "experiments.serialize"),
    ("experiments", "report_json_text", "experiments.serialize"),
    ("experiments", "report_csv_text", "experiments.serialize"),
    ("experiments", "format_report_table", "experiments.serialize"),
    ("chart", "render_chart", "chart.render_chart"),
    ("cli", "main", "cli.main"),
)

SELF_MS = sorted({name for _, _, name in TRACED} | {"engine.trajectory"})
CALLS = ("engine.run_exact", "oracle.enumerate_joint", "analysis.cond_prob",
         "experiments.run_experiment", "cli.main", "circuit.compile_model")


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs.get(name)


def _is_noisy(args: tuple, kwargs: dict) -> bool:
    noise = _arg(args, kwargs, 3, "noise")
    return noise is not None and noise.p_depol > 0


def _sizes(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    if name == "engine.run_exact":
        c = args[0]
        return {"n": c.n_qubits, "gates": len(c.gates), "circuit": hash((c.n_qubits, c.gates))}
    if name in ("engine.trajectory", "engine.run_sampled"):
        c = args[0]
        return {"n": c.n_qubits, "gates": len(c.gates), "shots": int(_arg(args, kwargs, 1, "shots"))}
    if name == "oracle.enumerate_joint":
        return {"n": args[0].n_qubits}
    if name == "circuit.compile_model":
        return {"gates": len(result.gates)}
    return None


def rebind(original, replacement) -> list[tuple]:
    """Put ``replacement`` wherever a qdo module holds ``original``."""
    patched = []
    for key, mod in list(sys.modules.items()):
        if key != "qdo" and not key.startswith("qdo."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def restore(patched: list[tuple]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)
    patched.clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id, sizes]
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        noisy_split = name == "engine.run_sampled"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = "engine.trajectory" if noisy_split and _is_noisy(args, kwargs) else name
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[5] = _sizes(span_name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[f"qdo.{mod_name}"], fn_name)
            self._patched += rebind(original, self._wrap(span_name, original))

    def uninstall(self) -> None:
        restore(self._patched)

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, sizes) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ms": (start - t0) * 1e3,
                       "end_ms": (end - t0) * 1e3, "parent": parent, "op": op}
                if sizes:
                    row.update({k: v for k, v in sizes.items() if k != "circuit"})
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, n_ops: int, wall_s: float, trajectory_batch: int | None) -> dict:
        """Per-op layer figures: self time, calls and computed work sizes.

        Self time is a span's duration minus the durations of its direct
        children; the spans of one op nest, so the self times of all spans
        add up to the time spent inside qdo.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, sizes in self.spans:
            if parent >= 0 and op >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        circuits: dict = defaultdict(set)
        amp_updates = trajectories = assignments = gates = 0
        state_max = 0
        for i, (name, start, end, parent, op, sizes) in enumerate(self.spans):
            if op < 0:
                continue
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if sizes is None:
                continue
            if name == "engine.run_exact":
                circuits[op].add(sizes["circuit"])
                amp_updates += sizes["gates"] << sizes["n"]
                state_max = max(state_max, AMP_BYTES << sizes["n"])
            elif name == "engine.trajectory":
                trajectories += sizes["shots"]
                amp_updates += (sizes["gates"] << sizes["n"]) * sizes["shots"]
                rows = min(sizes["shots"], trajectory_batch or sizes["shots"])
                state_max = max(state_max, rows * AMP_BYTES << sizes["n"])
            elif name == "oracle.enumerate_joint":
                assignments += 1 << sizes["n"]
            elif name == "circuit.compile_model":
                gates += sizes["gates"]

        per_op = 1.0 / n_ops
        out = {f"{name}.self_ms": self_s[name] * 1e3 * per_op for name in SELF_MS}
        out.update({f"{name}.calls": calls[name] * per_op for name in CALLS})
        distinct = sum(len(s) for s in circuits.values())
        out["engine.run_exact.unique_ratio"] = distinct / calls["engine.run_exact"] if calls["engine.run_exact"] else 0.0
        out["engine.gate_amp_updates"] = amp_updates * per_op
        out["engine.bytes_moved"] = 2 * AMP_BYTES * amp_updates * per_op
        out["engine.state_bytes_max"] = state_max
        out["engine.trajectories"] = trajectories * per_op
        out["oracle.assignments"] = assignments * per_op
        out["circuit.gates"] = gates * per_op
        inside = sum(self_s.values())
        out["trace.wall_ms"] = wall_s * 1e3 * per_op
        out["trace.unattributed_ms"] = (wall_s - inside) * 1e3 * per_op
        return out
