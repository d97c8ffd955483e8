"""The scenario loader reads every document as the PyYAML safe loader it
is built on does.

Each claim holds for the loader built on SafeLoader (pure Python) and for
the one built on CSafeLoader (libyaml). Each is compared with its own base:
the two parsers disagree on some documents (libyaml refuses "[0:]", which
SafeLoader reads as [{0: None}]), and the loaders change no parsing.

Claims covered:
    - a scalar, plain, single- or double-quoted, tagged !!str, !!int or
      !!float, or inside a flow sequence, loads to a value of the same type
      and repr (so -0.0 and nan compare too) as under the base, or raises
      the same exception type; for a table of numbers, words and near
      misses, and for strings drawn from digits, signs, dots, e, E, _, :, x,
      o, b and the words yes No on ~ null .inf -.inf .nan
    - anchors and aliases, merge keys and duplicate keys load as under the
      base, an alias of a collection is the anchored object, and a
      recursive anchor holds itself
    - every bundled scenario and the committed workload inputs load to the
      same document as under the base, and to a Scenario equal field by
      field to SafeLoader's
    - load_scenario's loader is built on CSafeLoader wherever PyYAML has it
"""
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hexnet import scenario
from hexnet.scenario import Scenario, load_scenario

DATA = Path(__file__).parent / "data"
SCENARIOS = sorted(Path(str(f)) for f in (resources.files("hexnet") / "scenarios").iterdir()
                   if f.name.endswith(".yaml")) + sorted(DATA.glob("*.yaml"))
FORMS = ("{}", "'{}'", '"{}"', "!!str {}", "!!int {}", "!!float {}", "[{}]")
WORDS = ("yes", "No", "on", "~", "null", ".inf", "-.inf", ".nan")
TABLE = (
    "0", "-0", "7", "-12", "12345678901234567890123", "0.0", "-0.0", "1.5", "-2.25",
    "1.0e-10", "1.0e+400", "-1.0e+400", "1.0e-400", "-1.0e-400", "0.1e-0",
    "007", "010", "-010", "08", "+5", "1_000", "0x1F", "0o17", "0b101", "1:30", "-1:30",
    "1.", ".5", "+1.5", "01.5", "1_0.5", "1:30.5", "1.5E+3", "1.0e10", "1e-12",
    "1e+3", "6.", "1.0e+", "--1", "-", "", "١٢", "²",
    *WORDS, ".Inf", "NaN", "true", "Off", "2001-12-14", "12:00",
)


def _outcome(text: str, loader):
    """(type, repr) of the value loader reads from text, or the type of
    the exception it raises."""
    try:
        value = yaml.load(text, Loader=loader)
    except Exception as exc:
        return type(exc)
    return type(value), repr(value)


@pytest.fixture(params=["SafeLoader", "CSafeLoader"], scope="module")
def loaders(request):
    """(base, the scenario loader built on it)."""
    base = getattr(yaml, request.param, None)
    if base is None:
        pytest.skip("PyYAML was built without libyaml")
    return base, scenario._plain_scalar_loader(base)


def test_load_scenario_reads_with_libyaml_where_pyyaml_has_it():
    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert scenario._YAML_LOADER.__bases__ == (base,)


def _check_scalar(loaders, text):
    base, loader = loaders
    for form in FORMS:
        doc = form.format(text)
        assert _outcome(doc, loader) == _outcome(doc, base), doc


@pytest.mark.parametrize("text", TABLE)
def test_a_scalar_loads_as_under_the_base(loaders, text):
    _check_scalar(loaders, text)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(text=st.lists(st.sampled_from([*"0123456789+-.eE_:xob", *WORDS]), max_size=6).map("".join))
def test_a_drawn_scalar_loads_as_under_the_base(loaders, text):
    _check_scalar(loaders, text)


_ALIASES = """\
n: &n 12
m: *n
f: &f -0.0
g: *f
s: &s [1, -0.0, '1', x, 2.5, .nan]
t: *s
base: &b {k: 1, m: 2.5}
derived: {<<: *b, m: 3}
both: {<<: [*b, {z: 0, k: 9}], k: 7}
dup: {a: 1, a: 2.0, 1: x, 1: y}
"""


def test_anchors_merges_and_duplicate_keys_load_as_under_the_base(loaders):
    base, loader = loaders
    assert _outcome(_ALIASES, loader) == _outcome(_ALIASES, base)
    doc = yaml.load(_ALIASES, Loader=loader)
    assert doc["t"] is doc["s"]
    assert doc["derived"] == {"k": 1, "m": 3} and doc["dup"] == {"a": 2.0, 1: "y"}


def test_a_recursive_anchor_holds_itself(loaders):
    _, loader = loaders
    seq = yaml.load("&a [*a]", Loader=loader)
    assert type(seq) is list and len(seq) == 1 and seq[0] is seq
    seq = yaml.load("&a [1, 2.5, *a]", Loader=loader)
    assert seq[:2] == [1, 2.5] and type(seq[0]) is int and seq[2] is seq
    mapping = yaml.load("&m {k: 1, self: *m}", Loader=loader)
    assert mapping["k"] == 1 and mapping["self"] is mapping


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_a_scenario_loads_as_under_safeloader(monkeypatch, loaders, path):
    base, loader = loaders
    text = path.read_text(encoding="utf-8")
    assert _outcome(text, loader) == _outcome(text, base)
    monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)
    want = load_scenario(path)
    monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
    got = load_scenario(path)
    for f in fields(Scenario):
        if f.compare:  # coeffs, built from the compared fields, is not one
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
            assert getattr(got, f.name) == getattr(want, f.name), f.name
