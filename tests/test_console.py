"""The console-script checks: ``qdo`` run as its own process, as a shell runs it.

Each check runs ``[sys.executable, "-c", "from qdo.cli import entry; entry()",
*argv]`` with ``src`` on ``PYTHONPATH``, the handler the installed ``qdo``
entry point calls, and asserts its exit code, the start of its stderr and the
bytes of what it writes. A seeded run repeated in a second process must write
the same bytes. The model files the checks share are made once per module.
Checks that ``cli.main`` already makes in process live with the other CLI
tests, not here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdo.model import save_model

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/ is not a package)

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def qdo(*argv, code: int = 0) -> subprocess.CompletedProcess:
    """Run ``qdo argv`` in a new process; assert its exit code and that it printed no traceback."""
    proc = subprocess.run(
        [sys.executable, "-c", "from qdo.cli import entry; entry()", *map(str, argv)],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def twice(work: Path, name: str, *argv) -> None:
    """Run ``qdo argv --json <file>`` in two processes; both write the same stdout and file."""
    outs = [(qdo(*argv, "--json", work / f"{name}-{i}.json").stdout, (work / f"{name}-{i}.json").read_bytes())
            for i in (1, 2)]
    assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("console")


@pytest.fixture(scope="module")
def shuffled12(work) -> tuple[Path, str]:
    """A 12-qubit model with a shuffled qubit map, and the outcome of its effect query."""
    case = gen.random_model(np.random.default_rng(12), 12, "oracle", "shuffled12")
    save_model(case.model, work / "shuffled12.json")
    return work / "shuffled12.json", case.outcome


def test_sampled_and_noisy_backends(work):
    # Stacked trials through the entry point.
    qdo("simpson3", "--backend", "sampled", "--trials", "5", "--json", work / "s3-sampled.json")
    qdo("healthcare10", "--backend", "sampled", "--noise", "0.02", "--shots", "256", "--trials", "2",
        "--stratify", "Age")
    qdo("run", MODELS / "simpson3.json", "--treatment", "T", "--outcome", "O", "--stratify", "G", "--effect",
        "--backend", "sampled", "--trials", "3")


def test_report_rows(work):
    # A sampled CSV row ends in its trial count, an exact row leaves n_trials
    # empty and a one-trial row has no interval; the chart of 4 sampled rows
    # draws 3 whisker lines per row, that of 4 one-trial rows none.
    def rows(csv: str) -> list[str]:
        return (work / csv).read_text(encoding="utf-8").splitlines()[1:]

    qdo("simpson3", "--backend", "sampled", "--trials", "5", "--shots", "2000",
        "--csv", work / "s.csv", "--json", work / "s.json")
    assert len(rows("s.csv")) == 4 and all(row.endswith(",5") for row in rows("s.csv"))
    qdo("simpson3", "--backend", "exact", "--csv", work / "e.csv")
    assert len(rows("e.csv")) == 4 and all(row.endswith(",") for row in rows("e.csv"))
    qdo("chart", work / "s.json", "--svg", work / "c.svg")
    assert (work / "c.svg").read_text(encoding="utf-8").count('class="whisker"') == 12
    qdo("simpson3", "--backend", "sampled", "--trials", "1", "--csv", work / "one.csv", "--json", work / "one.json")
    assert len(rows("one.csv")) == 4 and all(row.endswith(",,,1") for row in rows("one.csv"))
    qdo("chart", work / "one.json", "--svg", work / "one.svg")
    assert 'class="whisker"' not in (work / "one.svg").read_text(encoding="utf-8")


def test_noisy_trials_with_tail_batches_write_the_same_bytes(work):
    # 2500 shots cross a batch boundary, and each trial runs its own 452-shot tail.
    twice(work, "merged", "healthcare10", "--backend", "sampled", "--noise", "0.02", "--shots", "2500",
          "--trials", "3", "--stratify", "Age")


def test_distribution_mode(work):
    # A noisy do() run whose 2500 shots cross a batch boundary, twice; a
    # noiseless sampled run and an exact do() run once.
    twice(work, "dist", "run", MODELS / "healthcare10.json", "--do", "Age=1", "--backend", "sampled",
          "--noise", "0.05", "--shots", "2500")
    qdo("run", MODELS / "simpson3.json", "--backend", "sampled", "--json", work / "dist-s3.json")
    assert "do: G=1\n" in qdo("run", MODELS / "simpson3.json", "--do", "G=1").stdout


def test_shuffled_qubit_map(shuffled12):
    # First-touch gates and the squared un-permute; then two do()s whose
    # basis qubits, v1 at 1 and v0 at 0, stay out of the exact register.
    f, outcome = shuffled12
    qdo("validate", f)
    qdo("run", f, "--effect", "--treatment", "v1", "--outcome", outcome, "--stratify", "v0", "--backend", "exact")
    qdo("run", f, "--do", "v1=1", "--do", "v0=0")


def _circuit(text: str, k: int) -> list[str]:
    """The k-th printed circuit (1-based): from its ``qubits`` line to a blank line or the next circuit."""
    lines = text.splitlines()
    start = [i for i, line in enumerate(lines) if line.startswith("qubits ")][k - 1]
    out = [lines[start]]
    for line in lines[start + 1:]:
        if not line.strip() or line.startswith("qubits "):
            break
        out.append(line)
    return out


def test_both_run_modes_intervene_alike(shuffled12):
    # The circuit of --do v1=1 is the second circuit (do = 1) of an effect run on treatment v1.
    f, outcome = shuffled12
    do = _circuit(qdo("run", f, "--do", "v1=1", "--print-circuit").stdout, 1)
    effect = _circuit(qdo("run", f, "--effect", "--treatment", "v1", "--outcome", outcome, "--print-circuit").stdout, 2)
    assert any(line.startswith("X ") for line in do)
    assert do == effect


@pytest.mark.parametrize("p", ["0.05", "1.0"])
def test_noisy_shuffled_runs_write_the_same_bytes(work, shuffled12, p):
    # First-touch positions, settled qubits and the un-permute; at p = 1
    # every touched qubit is hit after every gate, so forks free and refill slots.
    f, outcome = shuffled12
    twice(work, f"noisy12-{p}", "run", f, "--effect", "--treatment", "v1", "--outcome", outcome, "--stratify", "v0",
          "--backend", "sampled", "--noise", p, "--shots", "512", "--trials", "2")


def test_validate_general_model_prints_ok(work):
    # A "general" model has uniform preps with parents.
    f = work / "general12.json"
    save_model(gen.random_model(np.random.default_rng(12), 12, "general", "general12").model, f)
    assert qdo("validate", f).stdout.splitlines()[-1] == "ok"


def test_invalid_model_file_names_every_violation(work):
    f = work / "bad-values.json"
    model = json.loads((MODELS / "simpson3.json").read_text(encoding="utf-8"))
    model["edges"][0]["sign"] = 1.0
    model["edges"][1]["control_value"] = 2
    f.write_text(json.dumps(model, indent=2), encoding="utf-8")
    err = qdo("validate", f, code=2).stderr
    assert err.startswith(f"qdo: error: {f}")
    assert "sign must be +1 or -1, got 1.0" in err and "control_value must be 0 or 1, got 2" in err


@pytest.mark.parametrize("command", ["validate", "chart"])
def test_deeply_nested_file_exits_2(work, command):
    # A 100000-deep bracket file, read by a fresh process at its own stack depth.
    f = work / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    argv = ["--svg", work / "deep.svg"] if command == "chart" else []
    assert qdo(command, f, *argv, code=2).stderr.startswith(f"qdo: error: {f}: ")
    assert not (work / "deep.svg").exists()
