"""The benchmark workloads: seeded inputs, rounds of ops, and output checks.

A workload is built once per process (its set-up) and then hands out rounds.
A round holds one op of every kind the workload mixes, in a seeded order, so
every run sees the kinds in equal numbers. An op is a ``run`` callable, the
only part that is timed, and a ``check`` that returns the problems it finds in
the output (an empty list means the op is correct). Ops call qdo only through
module attributes (``engine.run_exact``, ``cli.main``), so wrappers installed
by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qdo import analysis, catalog, circuit, cli, engine, model, oracle
from qdo.model import Intervention

import gen

DEFAULT_SEED = 0
# The qdo --seed given to sampled commands is this plus the workload seed, so
# the default workload seed runs the README commands at qdo's default seed.
QDO_SEED_BASE = 1729
# Sampled estimates must lie within this many standard errors of the value
# expected from an exact reference (the band is wide on purpose).
BAND_SE = 6.0

# Published effect sizes of the two catalog models, as in the acceptance suite.
PAPER_3Q = {
    "Observational, G=0": (+0.166, 5e-3),
    "Observational, G=1": (+0.296, 5e-3),
    "Observational, Overall": (-0.061, 5e-3),
    "Causal, Overall (do)": (+0.232, 5e-3),
}
PAPER_10Q = {
    "Observational, Overall": (+0.377, 0.02),
    "Stratified by Age": (+0.497, 0.02),
    "Stratified by Region": (+0.406, 0.02),
    "Causal Intervention (do)": (+0.486, 0.02),
}
PAPER_10Q_BIAS = {
    "Observational, Overall": -0.109,
    "Stratified by Age": +0.011,
    "Stratified by Region": -0.080,
    "Causal Intervention (do)": 0.000,
}


def _nothing() -> None:
    return None


@dataclass
class Op:
    kind: str
    info: dict  # working set: n qubits, gate count, shots drawn
    run: Callable[[], Any]
    check: Callable[[Any], list]
    prepare: Callable[[], None] = _nothing


def load_refs(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def gate_count(m) -> int:
    return sum(v.prep.kind != "ground" for v in m.variables) + len(m.edges)


def _round_order(seed: int, workload_id: int, r: int, k: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, workload_id, r]).permutation(k)]


# --- independent arithmetic used by the checks ---------------------------------


def joint(values: np.ndarray, n: int, qubits: list[int]) -> np.ndarray:
    """Marginal over ``qubits``, as an array indexed [bit of qubits[0], ...]."""
    arr = np.asarray(values, dtype=float).reshape([2] * n)
    axes = [n - 1 - q for q in qubits]
    drop = tuple(a for a in range(n) if a not in axes)
    kept = sorted(axes)
    out = arr.sum(axis=drop) if drop else arr
    return np.transpose(out, [kept.index(a) for a in axes])


def effects_from_joint(p: np.ndarray) -> tuple[float, float]:
    """(observational effect, back-door adjustment over Z) from p[t, o, z]."""
    obs = p[1, 1].sum() / p[1].sum() - p[0, 1].sum() / p[0].sum()
    adj = 0.0
    for z in (0, 1):
        pz = p[:, :, z].sum()
        adj += pz * (p[1, 1, z] / p[1, :, z].sum() - p[0, 1, z] / p[0, :, z].sum())
    return float(obs), float(adj)


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _near(problems: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} vs {want!r} (tolerance {tol:g})")


# --- exact-validate --------------------------------------------------------------


class ExactValidate:
    """One model per op: JSON round trip, both surgeries, engine vs. oracle, effects."""

    name = "exact-validate"
    sizes = tuple(range(6, 15))
    kinds = tuple(f"n{n}" for n in sizes) + ("simpson3", "healthcare10")
    pool_rounds = 24

    def __init__(self, root: Path, workdir: Path, seed: int, refs: dict):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        mdir = workdir / "models"
        mdir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for r in range(self.pool_rounds):
            row = {}
            for n in self.sizes:
                q = gen.random_model(rng, n, "oracle", f"r{r}n{n}")
                path = mdir / f"{q.model.name}.json"
                model.save_model(q.model, path)
                row[f"n{n}"] = (path, q)
            self.pool.append(row)
        s3, h10 = catalog.simpson3(), catalog.healthcare10()
        self.fixed = {
            "simpson3": (root / "models" / "simpson3.json", gen.Case(s3.model, "T", "O", "G")),
            "healthcare10": (
                root / "models" / "healthcare10.json",
                gen.Case(h10.model, "Treatment", "Outcome", "Age"),
            ),
        }

    def round(self, r: int) -> list[Op]:
        row = self.pool[r % self.pool_rounds]
        ops = []
        for i in _round_order(self.seed, 1, r, len(self.kinds)):
            kind = self.kinds[i]
            path, q = self.fixed[kind] if kind in self.fixed else row[kind]
            info = {"n": q.model.n_qubits, "gates": gate_count(q.model)}
            ops.append(Op(kind, info, validate_run(path, q), validate_check(kind, q)))
        return ops


def validate_run(path: Path, q: gen.Case):
    def run():
        m = model.load_model(path)
        c = circuit.compile_model(m)
        qmap = m.qubit_map()
        d_obs = engine.run_exact(c)
        res = {"model": m, "obs": d_obs.values, "obs_oracle": oracle.enumerate_joint(m).values}
        circ = {}
        for v in (1, 0):
            iv = Intervention(q.treatment, v)
            forced = model.apply_do(m, iv)
            res[f"graph{v}"] = engine.run_exact(circuit.compile_model(forced)).values
            circ[v] = engine.run_exact(circuit.surgered_circuit(c, iv))
            res[f"circ{v}"] = circ[v].values
            res[f"oracle{v}"] = oracle.enumerate_joint(forced).values
        res["observational"] = analysis.observational_effect(d_obs, qmap, q.treatment, q.outcome)
        res["stratified"], res["strata"] = analysis.stratified_effect(
            d_obs, qmap, q.treatment, q.outcome, q.stratifier
        )
        out1 = analysis.Query((q.outcome, 1))
        res["causal"] = analysis.cond_prob(circ[1], qmap, out1) - analysis.cond_prob(circ[0], qmap, out1)
        return res

    return run


def validate_check(kind: str, q: gen.Case):
    def check(res) -> list:
        problems = []
        m = q.model
        if res["model"] != m:
            problems.append("load_model did not reproduce the saved model")
        n = m.n_qubits
        if _dev(res["obs"], res["obs_oracle"]) >= 1e-10:
            problems.append(f"engine vs oracle (observational): {_dev(res['obs'], res['obs_oracle']):.3e}")
        for v in (1, 0):
            if _dev(res[f"graph{v}"], res[f"oracle{v}"]) >= 1e-10:
                problems.append(f"engine vs oracle under do(T={v})")
            if _dev(res[f"graph{v}"], res[f"circ{v}"]) > 1e-12:
                problems.append(f"graph vs circuit surgery under do(T={v})")
        qmap = m.qubit_map()
        qs = [qmap[q.treatment], qmap[q.outcome], qmap[q.stratifier]]
        obs, adj = effects_from_joint(joint(res["obs_oracle"], n, qs))
        causal = float(joint(res["oracle1"], n, [qs[1]])[1] - joint(res["oracle0"], n, [qs[1]])[1])
        _near(problems, "observational effect vs oracle", res["observational"], obs, 1e-10)
        _near(problems, "stratified effect vs oracle", res["stratified"], adj, 1e-10)
        _near(problems, "causal effect vs oracle", res["causal"], causal, 1e-10)
        if {e.parent for e in m.incoming(q.treatment)} == {q.stratifier}:
            _near(problems, "back-door adjustment for pa(T) vs do(T)", adj, causal, 1e-10)
        if kind == "simpson3":
            got = {"Observational, Overall": res["observational"], "Causal, Overall (do)": res["causal"]}
            for s in res["strata"]:
                got[f"Observational, G={s.value}"] = s.effect
            for label, (want, tol) in PAPER_3Q.items():
                _near(problems, label, got[label], want, tol)
        elif kind == "healthcare10":
            got = {
                "Observational, Overall": res["observational"],
                "Stratified by Age": res["stratified"],
                "Causal Intervention (do)": res["causal"],
            }
            for label, value in got.items():
                want, tol = PAPER_10Q[label]
                _near(problems, label, value, want, tol)
                _near(problems, f"bias of {label}", value - res["causal"], PAPER_10Q_BIAS[label], tol)
        return problems

    return check


# --- exact-wide --------------------------------------------------------------------


class ExactWide:
    """One 15-18 qubit model per op: circuit surgery, three exact runs, marginal, effects."""

    name = "exact-wide"
    # n = 17 twice, so the median op falls inside one size class.
    kinds = ("n15", "n16", "n17a", "n17b", "n18")
    pool_rounds = 40

    def __init__(self, root: Path, workdir: Path, seed: int, refs: dict):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.pool = [
            {k: gen.random_model(rng, int(k[1:3]), "general", f"r{r}{k}") for k in self.kinds}
            for r in range(self.pool_rounds)
        ]
        self.refs = refs.get("exact-wide", []) if seed == DEFAULT_SEED else []

    def round(self, r: int) -> list[Op]:
        p = r % self.pool_rounds
        ops = []
        for i in _round_order(self.seed, 2, r, len(self.kinds)):
            kind = self.kinds[i]
            q = self.pool[p][kind]
            ref = self.refs[p][kind] if p < len(self.refs) else None
            info = {"n": q.model.n_qubits, "gates": gate_count(q.model)}
            ops.append(Op(kind, info, wide_run(q), wide_check(q, ref)))
        return ops


def wide_run(q: gen.Case):
    def run():
        qmap = q.model.qubit_map()
        c = circuit.compile_model(q.model)
        d = engine.run_exact(c)
        d1 = engine.run_exact(circuit.surgered_circuit(c, Intervention(q.treatment, 1)))
        d0 = engine.run_exact(circuit.surgered_circuit(c, Intervention(q.treatment, 0)))
        kept = [qmap[q.treatment], qmap[q.outcome], qmap[q.stratifier]]
        out1 = analysis.Query((q.outcome, 1))
        return {
            "d": d.values,
            "d1": d1.values,
            "d0": d0.values,
            "marginal": engine.marginal(d, kept).values,
            "observational": analysis.observational_effect(d, qmap, q.treatment, q.outcome),
            "causal": analysis.cond_prob(d1, qmap, out1) - analysis.cond_prob(d0, qmap, out1),
        }

    return run


def wide_check(q: gen.Case, ref):
    def check(res) -> list:
        problems = []
        n = q.model.n_qubits
        qmap = q.model.qubit_map()
        qt, qo, qz = qmap[q.treatment], qmap[q.outcome], qmap[q.stratifier]
        for key in ("d", "d1", "d0"):
            _near(problems, f"total probability of {key}", float(res[key].sum()), 1.0, 1e-10)
        kept = sorted((qt, qo, qz))
        want = joint(res["d"], n, kept[::-1]).reshape(-1)
        if _dev(res["marginal"], want) > 1e-12:
            problems.append("marginal differs from the summed distribution")
        obs, adj = effects_from_joint(joint(res["d"], n, [qt, qo, qz]))
        _near(problems, "observational effect", res["observational"], obs, 1e-10)
        _near(problems, "back-door adjustment for pa(T) vs do(T)", adj, res["causal"], 1e-10)
        _near(problems, "P(T=1 | do(T=1))", float(joint(res["d1"], n, [qt])[1]), 1.0, 1e-12)
        _near(problems, "P(T=1 | do(T=0))", float(joint(res["d0"], n, [qt])[1]), 0.0, 1e-12)
        pz = joint(res["d"], n, [qz])
        for key in ("d1", "d0"):
            if _dev(joint(res[key], n, [qz]), pz) > 1e-12:
                problems.append(f"do(T) changed the marginal of its parent Z in {key}")
        if ref is not None:
            _near(problems, "observational effect vs recorded", res["observational"], ref[0], 1e-10)
            _near(problems, "causal effect vs recorded", res["causal"], ref[1], 1e-10)
        return problems

    return check


# --- CLI workloads -------------------------------------------------------------------


@dataclass
class Command:
    argv: list
    outputs: tuple  # files the command writes into the work directory
    shots: int  # draws or trajectories: shots x trials x circuits
    n: int
    gates: int
    check: Callable[[str, dict], list]  # (stdout, {output name: text}) -> problems


@dataclass
class Digests:
    """Byte digests: recorded references where they apply, and run-to-run equality."""

    refs: dict
    seen: dict = field(default_factory=dict)

    def check(self, kind: str, blobs: dict) -> list:
        problems = []
        for name, data in blobs.items():
            h = hashlib.sha256(data).hexdigest()
            ref = self.refs.get(kind, {}).get(name)
            if ref is not None and h != ref:
                problems.append(f"{name} differs from the recorded reference")
            if self.seen.setdefault((kind, name), h) != h:
                problems.append(f"{name} changed between identical invocations")
        return problems


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class CliWorkload:
    """Ops are qdo CLI invocations through ``qdo.cli.main``, outputs in a work dir."""

    workload_id = 0

    def __init__(self, root: Path, workdir: Path, seed: int, refs: dict):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.bands = refs.get("bands", {})
        self.commands = self.build(root, workdir, str(QDO_SEED_BASE + seed))
        self.kinds = tuple(self.commands)
        digests = refs.get("digests", {}).get(self.name, {})
        self.digests = Digests({
            k: v for k, v in digests.items()
            if seed == DEFAULT_SEED or "--seed" not in self.commands[k].argv
        })

    def build(self, root: Path, workdir: Path, qdo_seed: str) -> dict:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        ops = []
        for i in _round_order(self.seed, self.workload_id, r, len(self.kinds)):
            kind = self.kinds[i]
            cmd = self.commands[kind]
            info = {"n": cmd.n, "gates": cmd.gates, "shots": cmd.shots}
            ops.append(Op(kind, info, _cli_run(cmd.argv), self._checker(kind), self._cleaner(kind)))
        return ops

    def blobs(self, kind: str, stdout: str) -> dict:
        out = {"stdout": stdout.encode("utf-8")}
        for name in self.commands[kind].outputs:
            path = self.workdir / name
            if path.exists():
                out[name] = path.read_bytes()
        return out

    def _cleaner(self, kind: str):
        def prepare():
            for name in self.commands[kind].outputs:
                (self.workdir / name).unlink(missing_ok=True)

        return prepare

    def _checker(self, kind: str):
        cmd = self.commands[kind]

        def check(res) -> list:
            rc, stdout, stderr = res
            if rc != 0:
                return [f"exit code {rc}: {stderr.strip()[:300]}"]
            blobs = self.blobs(kind, stdout)
            problems = [f"{name} was not written" for name in cmd.outputs if name not in blobs]
            if problems:
                return problems
            problems += self.digests.check(kind, blobs)
            try:
                problems += cmd.check(stdout, {k: v.decode("utf-8") for k, v in blobs.items()})
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            return problems

        return check

    def bands_check(self, kind: str, got: dict) -> list:
        """Every expected group is reported, within BAND_SE standard errors."""
        bands = self.bands[kind]
        if set(got) != set(bands):
            return [f"groups {sorted(got)} differ from {sorted(bands)}"]
        problems = []
        for label, (mean, se) in bands.items():
            _near(problems, f"{label} vs expected", got[label], mean, BAND_SE * se)
        return problems


def _cli_run(argv: list):
    return lambda: run_cli(argv)


def table_effects(text: str) -> dict:
    """Label -> effect from the fixed-width report table on stdout."""
    rows = {}
    for line in text.splitlines()[2:]:
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) >= 2:
            rows[cells[0]] = float(cells[1])
    return rows


def json_effects(text: str) -> dict:
    return {g["label"]: g["effect"] for g in json.loads(text)["groups"]}


def csv_effects(text: str) -> dict:
    return {row["label"]: float(row["effect"]) for row in csv.DictReader(io.StringIO(text))}


def p_one(text: str) -> dict:
    return {m[1]: float(m[2]) for m in re.finditer(r"^P\((\w+)=1\) = ([0-9.]+)$", text, re.M)}


def _published(problems: list, got: dict, table: dict) -> None:
    for label, (want, tol) in table.items():
        if label in got:
            _near(problems, label, got[label], want, tol)
        else:
            problems.append(f"missing group {label!r}")


class CatalogCli(CliWorkload):
    """The noiseless README commands on the catalog models."""

    name = "catalog-cli"
    workload_id = 3

    def build(self, root: Path, workdir: Path, qdo_seed: str) -> dict:
        d = str(workdir)
        m3 = str(root / "models" / "simpson3.json")
        m10 = str(root / "models" / "healthcare10.json")
        # The report the chart command renders is an input, made once here.
        rc, _, err = run_cli(["healthcare10", "--backend", "exact", "--json", f"{d}/report.json"])
        if rc != 0:
            raise RuntimeError(f"cannot make the chart's input report: {err}")
        g3, g10 = gate_count(catalog.simpson3().model), gate_count(catalog.healthcare10().model)
        effect = ["run", m3, "--treatment", "T", "--outcome", "O", "--stratify", "G", "--effect"]
        sampled = ["--backend", "sampled", "--seed", qdo_seed]
        return {
            "s3-exact": Command(["simpson3", "--backend", "exact"], (), 0, 3, g3, self._s3_exact),
            "h10-exact": Command(
                ["healthcare10", "--backend", "exact", "--svg", f"{d}/h10.svg", "--json", f"{d}/h10.json"],
                ("h10.svg", "h10.json"), 0, 10, g10, self._h10_exact,
            ),
            "h10-insurance": Command(
                ["healthcare10", "--stratify", "Insurance", "--backend", "exact"],
                (), 0, 10, g10, self._h10_insurance,
            ),
            "s3-sampled": Command(
                ["simpson3", *sampled, "--shots", "15000", "--trials", "30", "--json", f"{d}/s3.json"],
                ("s3.json",), 15000 * 30 * 3, 3, g3, self._sampled_json("s3-sampled", "s3.json"),
            ),
            "h10-sampled": Command(
                ["healthcare10", *sampled, "--csv", f"{d}/h10.csv"],
                ("h10.csv",), 15000 * 10 * 3, 10, g10, self._h10_csv,
            ),
            "run-effect-exact": Command(
                [*effect, "--json", f"{d}/effect.json"], ("effect.json",), 0, 3, g3, self._effect_exact,
            ),
            "run-effect-sampled": Command(
                [*effect, *sampled, "--json", f"{d}/effect_sampled.json"], ("effect_sampled.json",),
                15000 * 10 * 3, 3, g3, self._sampled_json("run-effect-sampled", "effect_sampled.json"),
            ),
            "run-do-exact": Command(["run", m3, "--do", "G=1"], (), 0, 3, g3, self._do_exact),
            "run-do-sampled": Command(
                ["run", m3, "--do", "G=1", *sampled], (), 15000, 3, g3, self._do_sampled,
            ),
            "validate": Command(["validate", m10], (), 0, 10, g10, self._validate),
            "chart": Command(
                ["chart", f"{d}/report.json", "--svg", f"{d}/chart.svg", "--reference", "0.486"],
                ("chart.svg",), 0, 0, 0, self._chart,
            ),
        }

    def _s3_exact(self, stdout: str, files: dict) -> list:
        problems = []
        _published(problems, table_effects(stdout), PAPER_3Q)
        return problems

    def _h10_exact(self, stdout: str, files: dict) -> list:
        problems = []
        got = json_effects(files["h10.json"])
        _published(problems, got, PAPER_10Q)
        causal = got["Causal Intervention (do)"]
        for label, want in PAPER_10Q_BIAS.items():
            _near(problems, f"bias of {label}", got[label] - causal, want, 0.02)
        if not files["h10.svg"].startswith("<svg") or not files["h10.svg"].rstrip().endswith("</svg>"):
            problems.append("h10.svg is not an SVG document")
        return problems

    def _h10_insurance(self, stdout: str, files: dict) -> list:
        problems = []
        got = table_effects(stdout)
        if "Stratified by Insurance" not in got:
            problems.append("missing group 'Stratified by Insurance'")
        for label in ("Observational, Overall", "Causal Intervention (do)"):
            want, tol = PAPER_10Q[label]
            _near(problems, label, got.get(label, float("nan")), want, tol)
        return problems

    def _sampled_json(self, kind: str, name: str):
        def check(stdout: str, files: dict) -> list:
            return self.bands_check(kind, json_effects(files[name]))

        return check

    def _h10_csv(self, stdout: str, files: dict) -> list:
        return self.bands_check("h10-sampled", csv_effects(files["h10.csv"]))

    def _effect_exact(self, stdout: str, files: dict) -> list:
        problems = []
        got = json_effects(files["effect.json"])
        for label in ("Observational, Overall", "Causal, Overall (do)"):
            want, tol = PAPER_3Q[label]
            _near(problems, label, got[label], want, tol)
        # G is T's only parent, so adjusting for it must equal do(T).
        _near(problems, "Stratified by G vs do", got["Stratified by G"], got["Causal, Overall (do)"], 1e-12)
        return problems

    def _do_exact(self, stdout: str, files: dict) -> list:
        problems = []
        got = p_one(stdout)
        for var, want in self.bands["run-do-exact"].items():
            _near(problems, f"P({var}=1)", got.get(var, float("nan")), want, 5.1e-7)
        return problems

    def _do_sampled(self, stdout: str, files: dict) -> list:
        problems = []
        got = p_one(stdout)
        for var, (mean, se) in self.bands["run-do-sampled"].items():
            _near(problems, f"P({var}=1)", got.get(var, float("nan")), mean, BAND_SE * se + 5.1e-7)
        return problems

    def _validate(self, stdout: str, files: dict) -> list:
        lines = stdout.splitlines()
        dev = float(re.match(r"max \|P_engine - P_oracle\| = (\S+)$", lines[0])[1])
        if dev >= 1e-10 or lines[-1] != "ok":
            return [f"validate reported deviation {dev:.3e}"]
        return []

    def _chart(self, stdout: str, files: dict) -> list:
        svg = files["chart.svg"]
        if not svg.startswith("<svg") or svg.count("<rect") < 5:
            return ["chart.svg does not hold the four report bars"]
        return []


class NoisyTrajectories(CliWorkload):
    """The noisy README command and healthcare10 at a 2 MB and a 16 MB trajectory batch."""

    name = "noisy-trajectories"
    workload_id = 4

    def build(self, root: Path, workdir: Path, qdo_seed: str) -> dict:
        d = str(workdir)
        g3, g10 = gate_count(catalog.simpson3().model), gate_count(catalog.healthcare10().model)
        noisy = ["--backend", "sampled", "--noise", "0.02", "--seed", qdo_seed]
        # Age is the stratifier because its (stratum, treatment) cells keep the
        # most mass under noise, so 128 shots leave none of them empty.
        h10 = ["healthcare10", *noisy, "--trials", "1", "--stratify", "Age"]
        return {
            "s3-noisy": Command(
                ["simpson3", *noisy, "--shots", "1024", "--trials", "3", "--json", f"{d}/s3.json"],
                ("s3.json",), 1024 * 3 * 3, 3, g3, self._noisy("s3-noisy", "s3.json"),
            ),
            "h10-noisy-128": Command(
                [*h10, "--shots", "128", "--json", f"{d}/h10_128.json"],
                ("h10_128.json",), 128 * 3, 10, g10, self._noisy("h10-noisy-128", "h10_128.json"),
            ),
            "h10-noisy-1024": Command(
                [*h10, "--shots", "1024", "--json", f"{d}/h10_1024.json"],
                ("h10_1024.json",), 1024 * 3, 10, g10, self._noisy("h10-noisy-1024", "h10_1024.json"),
            ),
        }

    def _noisy(self, kind: str, name: str):
        def check(stdout: str, files: dict) -> list:
            problems = self.bands_check(kind, json_effects(files[name]))
            if json.loads(files[name]).get("noise") != 0.02:
                problems.append("report does not record the noise level")
            return problems

        return check


WORKLOADS = {w.name: w for w in (ExactValidate, ExactWide, CatalogCli, NoisyTrajectories)}
