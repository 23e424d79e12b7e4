"""Golden outputs: README commands, in process, against the recorded digests.

The argv comes from the benchmark's workload definitions
(``perfbench/workloads.py``) and the sha256 digests of stdout and of every
written file from ``perfbench/refs.json``, the one golden store, which this
test only reads. The sampled commands run at qdo seed 1729, the seed the
digests were recorded at. Any refactor that moves a byte of these outputs
fails here, not only in the benchmark.

``refs.json`` holds every digest the benchmark checks, and every one is
checked here. It covers only the stdout of the distribution mode of ``qdo run``
(the P(v=1) lines), not its ``--json`` payload, so those digests are kept below.
So are those of two noisy reports whose trials share trajectory batches,
recorded while every trial still ran its own batches, and of two noisy
distribution-mode runs that cross a batch boundary, recorded while full
batches still ran in a loop of their own. Two ``qdo run --do ... --effect``
reports are kept too: their stdout was recorded while such a run still
compiled the graph-surgered model and cut only its do-rows from the circuit,
and their JSON once the report listed its ``interventions`` after the run
header, as distribution mode's payload does.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from qdo import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

REFS = json.loads((ROOT / "perfbench" / "refs.json").read_text(encoding="utf-8"))
CASES = [
    ("catalog-cli", "s3-exact"),
    ("catalog-cli", "s3-sampled"),
    ("catalog-cli", "h10-exact"),
    ("catalog-cli", "h10-insurance"),
    ("catalog-cli", "h10-sampled"),
    ("catalog-cli", "run-effect-exact"),
    ("catalog-cli", "run-effect-sampled"),
    ("catalog-cli", "run-do-exact"),
    ("catalog-cli", "run-do-sampled"),
    ("catalog-cli", "validate"),
    ("catalog-cli", "chart"),
    ("noisy-trajectories", "s3-noisy"),
    ("noisy-trajectories", "h10-noisy-128"),
    ("noisy-trajectories", "h10-noisy-1024"),
]

# (model, extra argv): sha256 of stdout and of the --json payload.
DISTRIBUTIONS = {
    ("simpson3", ("--do", "G=1")): (
        "764fbfe37701e93611a538f1e8827a3bcb347175ca1b3bc24d856cbd49a454c0",
        "37f883d77bdee979cfedd488f90ba126b642b58ac8b73529c387ffedc94d04c2",
    ),
    ("simpson3", ("--backend", "sampled", "--seed", "1729")): (
        "55e7ea199a5776afb5b88fa0ff989a4d5d560cc7b5a7263119e9ec0167833a85",
        "9de21c925bc52c06c40c3bf207ed655a12a8cfed213586340c627df84e16fdba",
    ),
    # p_one holds 0.30000000000000004 here: a sum of shot fractions.
    ("simpson3", ("--backend", "sampled", "--noise", "0.1", "--seed", "3", "--shots", "10")): (
        "ae0c8fae1c5b1f60b9dd46dafdd208f73b8b305aa44bccdced02f79140c0cc96",
        "ebe1d7a683984a3ac746e43bfda53289a06f1105dee6ddcdba9b7faf7032f4c1",
    ),
    ("healthcare10", ("--do", "Age=1")): (
        "477313b581ecdc9b2c245af97ce534d29a5beb1aa7bec4e5cb7099bf8b3712e2",
        "3be1ba1202c6e68050e61ec87d0dddee40e6f3e65b06dfa691ad7ad409de536f",
    ),
    ("healthcare10", ("--backend", "sampled", "--seed", "1729")): (
        "7254b51df2993c345f3095f216c9595a79df27aab9b46e6a226fc73754c63a04",
        "51f3d3c53fb381b3c4fccb56380a0ead6629b743172232fe137d86f77e93423d",
    ),
    ("healthcare10", ("--backend", "sampled", "--noise", "0.1", "--seed", "3", "--shots", "10")): (
        "d977eb8d9c1502e80fb89c85d8a35ade13b09375e4fe4c6367413dd9fd7f999d",
        "0b1f89e0f95b7da2dd9c43a6ce442e331638cc706c0ee2d6f2ab3d5599113871",
    ),
    # One noisy run whose shots cross a batch boundary: a full 2048-row batch
    # and a 452-row one.
    ("healthcare10", ("--do", "Age=1", "--backend", "sampled", "--noise", "0.05", "--shots", "2500", "--seed", "3")): (
        "deba969d3b97c9105bfee7914d89de9112a8ca237e3d0b23e83d83222e799a73",
        "afef649f07145440359945d3e71fe6e1b05b220a66bfb3b9479d3c33a208f845",
    ),
    # Two full batches and a 4-row tail.
    ("simpson3", ("--backend", "sampled", "--noise", "0.3", "--shots", "4100", "--seed", "3")): (
        "c078265bf85c174d9644c67b4804ec027bd55f0afcd4d05b3b9f02bb126802c7",
        "33ae33207cc73a2c843e71457b47ed392426f8b1951d03592ca0a59d9ca05396",
    ),
}


# qdo argv: sha256 of stdout and of the --json report. Noisy runs whose
# trials share trajectory batches: healthcare10's 2500 shots cross a batch
# boundary and the three trials' 452-shot tails share one batch; simpson3's
# four 700-shot trials run as two batches of two.
NOISY_REPORTS = {
    ("healthcare10", "--backend", "sampled", "--noise", "0.05", "--shots", "2500", "--trials", "3",
     "--stratify", "Age", "--seed", "3"): (
        "0201fbf21ccd34a9e90a804f8acbf1d1248a18ef173687540e74db531918e73d",
        "bb2e3f305cfd0daf673bbdd16c3c0f0499968ff5672605968b3e7b5df0b13a6b",
    ),
    ("simpson3", "--backend", "sampled", "--noise", "0.3", "--shots", "700", "--trials", "4", "--seed", "3"): (
        "460a1fa89d453669f01d0a4651c8ca4e870d8d59afc8659aadecb3ababa96c33",
        "ccbc3c84b985e18a93d29b78fc2abec961d158b056d07f10e7f6fa2fbaeeeb03",
    ),
}


# Backend argv of a healthcare10 effect run under --do Age=1: sha256 of stdout
# and of the --json report, whose interventions list do(Age=1). The run's
# circuit and its do-rows both come from circuit surgery on the compiled model
# file.
DO_EFFECT_REPORTS = {
    ("--backend", "exact"): (
        "d67fa2e4d61cc4b010babf542549c865073d9bdcc2d3db8e0e37f9234826c552",
        "bcf765966225a59c5d21182d6115599009f1ff66cd2859663c4b4064bd1d726b",
    ),
    ("--backend", "sampled", "--noise", "0.05", "--shots", "500", "--trials", "2", "--seed", "3"): (
        "9259d7f86668b33045cf27a49e321ee9956f9225471d913b4ce7a88b9716cd03",
        "f4020ab9de3c7779e163bfdd1fa798fd16337200abaf9d63799de093a4da7e28",
    ),
}


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    out = {}
    for workload in {w for w, _ in CASES}:
        workdir = tmp_path_factory.mktemp(workload)
        built = workloads.WORKLOADS[workload](ROOT, workdir, workloads.DEFAULT_SEED, REFS)
        out[workload] = (workdir, built.commands)
    return out


@pytest.mark.parametrize("workload,kind", CASES, ids=[k for _, k in CASES])
def test_output_bytes_match_recorded_digests(workload, kind, commands, capsys):
    workdir, cmds = commands[workload]
    cmd = cmds[kind]
    if "--seed" in cmd.argv:
        assert cmd.argv[cmd.argv.index("--seed") + 1] == "1729"
    assert cli.main(cmd.argv) == 0
    blobs = {"stdout": capsys.readouterr().out.encode("utf-8")}
    blobs.update({name: (workdir / name).read_bytes() for name in cmd.outputs})
    want = REFS["digests"][workload][kind]
    assert set(blobs) == set(want)
    for name, data in blobs.items():
        assert hashlib.sha256(data).hexdigest() == want[name], f"{kind}: {name} moved"


def test_every_recorded_digest_is_checked():
    assert {(w, k) for w in REFS["digests"] for k in REFS["digests"][w]} == set(CASES)


@pytest.mark.parametrize(
    "model,extra", DISTRIBUTIONS, ids=[" ".join((m, *a)) for m, a in DISTRIBUTIONS]
)
def test_distribution_mode_bytes(model, extra, tmp_path, capsys):
    payload = tmp_path / "dist.json"
    assert cli.main(["run", str(ROOT / "models" / f"{model}.json"), *extra, "--json", str(payload)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    got = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(payload.read_bytes()).hexdigest())
    assert got == DISTRIBUTIONS[model, extra]


@pytest.mark.parametrize("argv", NOISY_REPORTS, ids=[" ".join(a[:1] + a[3:5]) for a in NOISY_REPORTS])
def test_merged_noisy_report_bytes(argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main([*argv, "--json", str(report)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    got = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(report.read_bytes()).hexdigest())
    assert got == NOISY_REPORTS[argv]


@pytest.mark.parametrize("backend", DO_EFFECT_REPORTS, ids=[a[1] for a in DO_EFFECT_REPORTS])
def test_do_effect_report_bytes(backend, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["run", str(ROOT / "models" / "healthcare10.json"), "--do", "Age=1", "--effect", "--treatment",
            "Treatment", "--outcome", "Outcome", "--stratify", "Region", *backend, "--json", str(report)]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    got = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(report.read_bytes()).hexdigest())
    assert got == DO_EFFECT_REPORTS[backend]
