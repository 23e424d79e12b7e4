"""Golden outputs: README commands, in process, against the recorded digests.

The argv comes from the benchmark's workload definitions
(``perfbench/workloads.py``) and the sha256 digests of stdout and of every
written file from ``perfbench/refs.json``, the one golden store, which this
test only reads. The sampled commands run at qdo seed 1729, the seed the
digests were recorded at. Any refactor that moves a byte of these outputs
fails here, not only in the benchmark.
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
    ("catalog-cli", "h10-sampled"),
    ("catalog-cli", "run-effect-exact"),
    ("catalog-cli", "run-do-sampled"),
    ("catalog-cli", "validate"),
    ("noisy-trajectories", "s3-noisy"),
    ("noisy-trajectories", "h10-noisy-128"),
]


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    out = {}
    for workload in {w for w, _ in CASES}:
        workdir = tmp_path_factory.mktemp(workload)
        built = workloads.WORKLOADS[workload](ROOT, workdir, workloads.DEFAULT_SEED, REFS)
        out[workload] = (workdir, built.commands)
    return out


@pytest.mark.parametrize("workload,kind", CASES, ids=[k for _, k in CASES])
def test_output_bytes_match_recorded_digests(workload, kind, commands, capsys, monkeypatch):
    monkeypatch.delenv("QDO_SEED", raising=False)
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
