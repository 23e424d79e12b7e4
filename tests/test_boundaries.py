"""Input boundaries as properties: no input may end in a traceback.

The one JSON file reader, ``model.read_json``, fuzzed through both of its
callers: model files (``load_model``) and saved reports (``qdo chart``).
Each property replaces one field or subtree of a real file
with arbitrary JSON: integers up to 10^400, NaN and +-Infinity, strings, and
nesting up to well past the parser's recursion limit. ``load_model`` must
return a model or raise ``ModelError``; ``qdo chart`` must exit 0 or 2. Two
byte-level files, one not UTF-8 and one with a 5000-digit integer, take both
routes as explicit examples and must be refused with a message naming the
file.

A model built in Python is refused with ``ModelError`` even when a field
``validate`` prints holds an int past the 4300-digit limit of ``str``; so
is a variable lookup or a distribution query naming such an int, and a run
knob (seed, shots, trials or noise) holding one is refused by its own check.

The command line is the third boundary: every subcommand, with its numeric
flags drawn from their edges, must exit 0, 2 or 3.

Runs are derandomized, so every tier-1 run checks the same examples.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdo import (
    CausalModel, Edge, Intervention, ModelError, NoiseSpec, Prep, Variable, compile_model, load_model, run_exact,
)
from qdo.analysis import cells
from qdo.catalog import healthcare10, simpson3
from qdo.cli import main
from qdo.experiments import RunConfig, report_to_dict, run_experiment, simpson3_groups
from qdo.model import model_to_dict, read_json

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

NOT_UTF8 = b"\xff\xfe{}"
LONG_INT = b"1" * 5000

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# JSON text for a subtree: a generated value, or brackets nested from a few
# levels to far past what json.loads can parse.
FRAGMENT = JSON.map(json.dumps) | st.integers(1, 5000).map(lambda d: "[" * d + "]" * d)

_PLACEHOLDER = "\x00placeholder\x00"


def _paths(node, prefix=()):
    """Every field or subtree of ``node``, the root (``()``) first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


def _replaced(document, path, fragment: str) -> str:
    """``document`` as JSON text with the subtree at ``path`` replaced by ``fragment``."""
    if not path:
        return fragment
    root = json.loads(json.dumps(document))
    node = root
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _PLACEHOLDER
    return json.dumps(root).replace(json.dumps(_PLACEHOLDER), fragment)


MODELS = [model_to_dict(simpson3().model), model_to_dict(healthcare10().model)]
MODEL_CASES = [(doc, path) for doc in MODELS for path in _paths(doc)]

REPORTS = [
    report_to_dict(run_experiment(simpson3().model, "T", "O", simpson3_groups(), cfg))
    for cfg in (RunConfig(), RunConfig(backend="sampled", shots=200, trials=3, seed=5))
]
REPORT_CASES = [(doc, path) for doc in REPORTS for path in _paths(doc)]


@PROPERTY
@given(st.sampled_from(MODEL_CASES), FRAGMENT)
@example((MODELS[0], ("edges", 0, "angle")), LONG_INT.decode())
@example((MODELS[0], ()), "[" * 100000 + "]" * 100000)
def test_load_model_returns_a_model_or_raises_model_error(tmp_path_factory, case, fragment):
    document, path = case
    file = tmp_path_factory.mktemp("model") / "model.json"
    file.write_text(_replaced(document, path, fragment), encoding="utf-8")
    try:
        assert isinstance(load_model(file), CausalModel)
    except ModelError as exc:
        assert str(file) in str(exc)


@PROPERTY
@given(st.sampled_from(REPORT_CASES), FRAGMENT)
@example((REPORTS[1], ("groups", 0, "effect")), LONG_INT.decode())
@example((REPORTS[1], ()), "[" * 100000 + "]" * 100000)
def test_chart_exits_0_or_2(tmp_path_factory, case, fragment):
    document, path = case
    d = tmp_path_factory.mktemp("report")
    report = d / "report.json"
    report.write_text(_replaced(document, path, fragment), encoding="utf-8")
    assert main(["chart", str(report), "--svg", str(d / "chart.svg")]) in (0, 2)


@pytest.mark.parametrize("data, detail", [
    (NOT_UTF8, "'utf-8' codec can't decode byte 0xff"),
    (LONG_INT, "Exceeds the limit (4300 digits)"),
], ids=["not-utf8", "5000-digit-int"])
def test_byte_level_files_are_refused_naming_the_file(tmp_path, capsys, data, detail):
    # Both are plain ValueErrors from the read and the parse, not
    # JSONDecodeErrors; every route reports them as ModelError with the path.
    file = tmp_path / "bad.json"
    file.write_bytes(data)
    for read in (read_json, load_model):
        with pytest.raises(ModelError) as err:
            read(file)
        assert str(err.value).startswith(f"{file}: {detail}")
    for argv in (["validate", str(file)], ["chart", str(file), "--svg", str(tmp_path / "x.svg")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"qdo: error: {file}: {detail}")
    assert not (tmp_path / "x.svg").exists()


HUGE = 10**5000  # past the 4300-digit limit of int -> str
_A, _B = Variable("A", 0), Variable("B", 1)


@pytest.mark.parametrize("name, variables, edges, interventions", [
    (HUGE, (_A,), (), ()),
    ("m", (HUGE,), (), ()),
    ("m", (Variable(HUGE, 0),), (), ()),
    ("m", (Variable(HUGE, 5),), (), ()),
    ("m", (Variable("A", (HUGE,)),), (), ()),
    ("m", (Variable("A", 0, HUGE),), (), ()),
    ("m", (Variable("A", 0, Prep(HUGE)),), (), ()),
    ("m", (Variable("A", 0, Prep("rotation", (HUGE,))),), (), ()),
    ("m", (_A, _B), (Edge(HUGE, "B", 1, 1.0),), ()),
    ("m", (_A, _B), (Edge("A", HUGE, 1, 1.0),), ()),
    ("m", (_A, _B), (Edge("A", "B", 1, (HUGE,)),), ()),
    ("m", (_A, _B), (Edge("A", "B", HUGE, 1.0),), ()),
    ("m", (_A, _B), (Edge("A", "B", 1, 1.0, HUGE),), ()),
    ("m", (_A,), (), (Intervention(HUGE, 1),)),
    ("m", (_A,), (), (Intervention("A", HUGE),)),
], ids=["model-name", "entry", "variable-name", "variable-name-out-of-range", "qubit", "prep", "prep-kind",
        "base-angle", "parent", "child", "angle", "control-value", "sign", "intervened-variable",
        "intervention-value"])
def test_validate_prints_no_int_past_the_digit_limit(name, variables, edges, interventions):
    # Each field validate prints, holding (or being) an int whose repr()
    # raises ValueError: the model is refused with ModelError all the same.
    with pytest.raises(ModelError, match="too long to print"):
        CausalModel(name, variables, edges, interventions)


def test_variable_lookup_prints_no_int_past_the_digit_limit():
    with pytest.raises(ModelError, match="^unknown variable <int too long to print> in model 'simpson3'$"):
        simpson3().model.variable(HUGE)


@pytest.mark.parametrize("build, message", [
    (lambda: RunConfig("sampled", seed=HUGE), "seed must be in [0, 2**64)"),
    (lambda: RunConfig("sampled", shots=HUGE), "shots must be in [1, 2**63)"),
    (lambda: RunConfig("sampled", trials=-HUGE), "trials must be >= 1"),
    (lambda: NoiseSpec(HUGE), "p_depol must be in [0, 1]"),
], ids=["seed", "shots", "trials", "noise"])
def test_run_knobs_print_no_int_past_the_digit_limit(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == f"{message}, got <int too long to print>"


_DIST = run_exact(compile_model(simpson3().model))
_QUBITS = simpson3().model.qubit_map()


@pytest.mark.parametrize("qubits, event, error, message", [
    (_QUBITS, ((HUGE, 1),), ModelError, "unknown variable <int too long to print> in query"),
    (_QUBITS, (("G", HUGE),), ValueError, "variable 'G': value must be 0 or 1, got <int too long to print>"),
    ({HUGE: 0}, ((HUGE, 2),), ValueError,
     "variable <int too long to print>: value must be 0 or 1, got 2"),
    ({**_QUBITS, "X": HUGE}, (("X", 1),), ValueError,
     "variable 'X': qubit <int too long to print> outside a 3-qubit distribution"),
], ids=["name", "bit", "name-in-map", "qubit"])
def test_cells_prints_no_int_past_the_digit_limit(qubits, event, error, message):
    # The event's name and bit and the qubit map come from the caller; each
    # prints through the same stand-in as validate's fields, never raising
    # the digit-limit ValueError in place of the refusal.
    with pytest.raises(error) as err:
        cells(_DIST.values, qubits, event)
    assert str(err.value) == message


def test_chart_reports_the_reader_messages(tmp_path, capsys):
    # ``qdo chart`` and ``load_model`` share one reader, so they word an
    # unreadable file and invalid JSON alike.
    svg = str(tmp_path / "x.svg")
    missing = tmp_path / "none.json"
    assert main(["chart", str(missing), "--svg", svg]) == 2
    assert capsys.readouterr().err.startswith(f"qdo: error: cannot read {missing}: ")
    broken = tmp_path / "broken.json"
    broken.write_text('{"groups":\n [}', encoding="utf-8")
    assert main(["chart", str(broken), "--svg", svg]) == 2
    assert capsys.readouterr().err.startswith(f"qdo: error: {broken}: invalid JSON at line 2 column 3: ")


# Each subcommand's numeric flags at their edges. Huge values go only where
# they are refused before any work: --shots past 2^63 by the shot check, a
# --seed of 2^64 or more by the seed check, a --noise past 1 by NoiseSpec (a
# 2^63 seed is valid, and cheap). Valid sizes stay at 64 shots x 3 trials.
# --trials takes no huge value: trials run in chunks of bounded memory, so a
# huge valid --trials costs time, not memory, and is not an input boundary.
INTEGER_EDGES = ["0", "-1", str(1 << 63), str(1 << 64), str(10**20)]
FLOAT_EDGES = ["nan", "inf", "-inf", "-0.0"]  # argparse refuses these for an int flag
EDGES = [*INTEGER_EDGES, *FLOAT_EDGES]
SHOTS = [*INTEGER_EDGES, "1", "64"]
TRIALS = ["0", "-1", "1", "3"]
SEEDS = [*EDGES, "5"]
NOISES = [*EDGES, "0.05"]

SIMPSON3_FILE = str(Path(__file__).resolve().parent.parent / "models" / "simpson3.json")
RUN_COMMANDS = [
    ["simpson3"],
    ["healthcare10", "--stratify", "Age"],
    ["run", SIMPSON3_FILE],
    ["run", SIMPSON3_FILE, "--effect", "--treatment", "T", "--outcome", "O", "--stratify", "G"],
]


@st.composite
def _run_argv(draw) -> list[str]:
    flags = {
        "--backend": draw(st.sampled_from(["exact", "sampled"])),
        "--shots": draw(st.sampled_from(SHOTS)),
        "--trials": draw(st.sampled_from(TRIALS)),
    }
    for flag, values in (("--seed", SEEDS), ("--noise", NOISES)):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            flags[flag] = value
    if draw(st.integers(0, 3)) == 0:  # now and then an int flag argparse refuses
        flags[draw(st.sampled_from(["--shots", "--trials"]))] = draw(st.sampled_from(FLOAT_EDGES))
    # "--flag=value" keeps a value such as "-inf" from parsing as an option.
    return [*draw(st.sampled_from(RUN_COMMANDS)), *(f"{flag}={value}" for flag, value in flags.items())]


ARGV = (
    _run_argv()
    | st.just(["validate", SIMPSON3_FILE])
    | st.sampled_from(EDGES).map(lambda r: ["chart", "{report}", "--svg", "{svg}", f"--reference={r}"])
)


@PROPERTY
@given(ARGV)
def test_every_command_line_exits_0_2_or_3(tmp_path_factory, argv):
    d = tmp_path_factory.mktemp("argv")
    report = d / "report.json"
    report.write_text(json.dumps(REPORTS[0]), encoding="utf-8")
    argv = [a.format(report=report, svg=d / "chart.svg") for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing a value, e.g. --shots=nan
        code = exc.code
    assert code in (0, 2, 3)
