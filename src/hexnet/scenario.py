"""Scenario documents: YAML schema, loading with field-path errors, saving.

A scenario bundles the hierarchy (edge lists, 1-based), the coefficient
choice (uniform rule with optional per-connection overrides, or verbatim
connection-oriented matrices), the field scalars, the initial state, the
integrator settings and the analysis options.

The flat sections (field, integrator, analysis) are each one table from a key,
also the attribute it sets, to its parser; load, save and CLI overrides read it.
"""
from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, replace
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
import yaml
from yaml.nodes import ScalarNode

from .analysis import (
    DEFAULT_MIN_DWELL, DEFAULT_NEAR_TOL, DEFAULT_WITNESS_DELTAS, check_analysis_value,
)
from .errors import (
    CoefficientSignError,
    DimensionMismatchError,
    GraphError,
    NonFiniteError,
    ScenarioParseError,
    ScenarioSchemaError,
    ScenarioValidationError,
)
from .hierarchy import Digraph, HierarchySpec, digraph_from_edges, edge_list, validate_hierarchy
from .integrator import _DIRECTIONS, IntegratorConfig
from .output import publish
from .vectorfield import (
    _ORIENTATIONS,
    _VARIANTS,
    ORIENTATION_EIGENVALUE,
    VARIANT_STANDARD,
    CoefficientSet,
    FieldParams,
    build_coefficients,
    check_field_value,
)

__all__ = ["Scenario", "load_scenario", "save_scenario", "bundled_scenario_path"]

_INT_TAG, _FLOAT_TAG, _STR_TAG = (f"tag:yaml.org,2002:{t}" for t in ("int", "float", "str"))
_PLAIN_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")
_PLAIN_FLOAT = re.compile(r"-?(?:0|[1-9][0-9]*)\.[0-9]+(?:e[-+][0-9]+)?")


def _plain_scalar_loader(base):
    """A subclass of base, a PyYAML safe loader, that reads plain decimal
    numbers and strings in one step.

    An untagged plain scalar that reads -?(0|[1-9][0-9]*) resolves to int,
    and one that reads that, a dot, digits and an optional e[-+]digits to
    float. A str node reads as its text, and an int or float node of such
    text as int(text) or float(text). base gives the same tags and values:
    no other YAML 1.1 implicit resolver matches such text, base registers no
    path resolver, and its int and float constructors reduce to int() and
    float() on it, -0.0 included. Every other node goes to base, which builds
    every list and mapping in two steps, so recursive anchors still load."""
    # bound once: a super() call per node cost about 7 % of a load
    resolve, construct_object = base.resolve, base.construct_object

    class Loader(base):
        def resolve(self, kind, value, implicit):
            if kind is ScalarNode and implicit[0]:
                if _PLAIN_INT.fullmatch(value):
                    return _INT_TAG
                if _PLAIN_FLOAT.fullmatch(value):
                    return _FLOAT_TAG
            return resolve(self, kind, value, implicit)

        def construct_object(self, node, deep=False):
            if isinstance(node, ScalarNode):
                tag, text = node.tag, node.value
                if tag == _STR_TAG:
                    return text
                if tag == _INT_TAG and _PLAIN_INT.fullmatch(text):
                    return int(text)
                if tag == _FLOAT_TAG and _PLAIN_FLOAT.fullmatch(text):
                    return float(text)
            return construct_object(self, node, deep)

    return Loader


# SafeLoader's documents, on libyaml's parser when PyYAML was built with it;
# plain decimal numbers and strings, most nodes of a scenario, skip PyYAML's
# Python resolver and constructor
_YAML_LOADER = _plain_scalar_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@dataclass(frozen=True)
class Scenario:
    hierarchy: HierarchySpec
    # uniform coefficient rule ...
    c_plus: float = 1.0
    c_minus: float = -1.5
    super_overrides: tuple[tuple[int, int, float], ...] = ()
    sub_overrides: tuple[tuple[int, int, int, float], ...] = ()  # (j, i, k, value)
    # ... or verbatim connection-oriented matrices
    a: tuple[tuple[float, ...], ...] | None = None
    alphas: tuple[tuple[tuple[float, ...], ...], ...] | None = None
    epsilon: float = 0.2
    phi: float = 1.0
    psi: float = 1.0
    omega: float = 1.0
    variant: str = VARIANT_STANDARD
    orientation: str = ORIENTATION_EIGENVALUE
    initial_X: tuple[float, ...] = ()
    initial_x: tuple[tuple[float, ...], ...] = ()
    integrator: IntegratorConfig = field(default_factory=lambda: IntegratorConfig(t_end=100.0))
    near_tol: float = DEFAULT_NEAR_TOL
    min_dwell: float = DEFAULT_MIN_DWELL
    witness_deltas: tuple[float, ...] = DEFAULT_WITNESS_DELTAS

    # built once from the fields above; field_params() reuses it
    coeffs: CoefficientSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a is not None:
            # the verbatim form ignores the uniform rule, and a saved scenario
            # keeps only the form in use, so a mix would reload unequal
            for name in ("c_plus", "c_minus", "super_overrides", "sub_overrides"):
                if getattr(self, name) != self.__dataclass_fields__[name].default:
                    msg = f"{name} is not allowed with a and alphas"
                    raise ScenarioSchemaError("coefficients", msg)
            coeffs = CoefficientSet(self.hierarchy, self.a, self.alphas, self.orientation)
        else:
            subs: dict[int, dict[tuple[int, int], float]] = {}
            for j, i, k, v in self.sub_overrides:
                subs.setdefault(j, {})[(i, k)] = v
            coeffs = build_coefficients(
                self.hierarchy,
                self.c_plus,
                self.c_minus,
                {(i, k): v for i, k, v in self.super_overrides},
                subs,
                self.orientation,
            )
        object.__setattr__(self, "coeffs", coeffs)

    def field_params(self) -> FieldParams:
        try:  # the scales decide whether a tiny coefficient keeps its sign
            return FieldParams(
                self.coeffs, epsilon=self.epsilon, phi=self.phi,
                psi=self.psi, omega=self.omega, variant=self.variant,
            )
        except CoefficientSignError as exc:
            raise ScenarioValidationError("coefficients", str(exc)) from exc

    def initial_state(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.initial_X, dtype=float)]
                              + [np.asarray(x, dtype=float) for x in self.initial_x])


# ---------------------------------------------------------------------------
# parsing; every node guard and parser raises a ScenarioSchemaError at path
# ---------------------------------------------------------------------------

def _expect(node, kind, path):
    if not isinstance(node, kind):
        raise ScenarioSchemaError(path, f"expected {'a mapping' if kind is dict else 'a list'}")
    return node


def _mapping(node, path, keys=None, optional=False) -> dict:
    """node as a mapping with keys in keys (any when None); optional: None reads as {}."""
    if node is None and optional:
        return {}
    _expect(node, dict, path)
    unknown = keys is not None and node.keys() - keys
    if unknown:
        raise ScenarioSchemaError(f"{path}.{min(map(str, unknown))}", "unknown key")
    return node


def _require(mapping, key, path):
    if key not in mapping:
        raise ScenarioSchemaError(f"{path}.{key}", "missing required key")
    return mapping[key]


def _number(value, path) -> float:
    # strings are accepted because YAML 1.1 resolves "1e-12" (no dot) as text
    if isinstance(value, bool) or value is None:
        raise ScenarioSchemaError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioSchemaError(path, f"expected a number, got {value!r}") from None


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioSchemaError(path, f"expected an integer, got {value!r}")
    return value


def _numbers(node, path, nonempty=False) -> tuple[float, ...]:
    if nonempty and node == []:
        raise ScenarioSchemaError(path, "expected a nonempty list")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(_expect(node, list, path)))


def _choice(options):
    def parse(value, path) -> str:
        if value not in options:
            raise ScenarioSchemaError(path, f"expected one of {options}, got {value!r}")
        return value
    return parse


def _matrix(node, path) -> tuple[tuple[float, ...], ...]:
    rows = isinstance(node, list) and all(isinstance(r, list) for r in node)
    if not rows or len({len(r) for r in node}) > 1:
        raise ScenarioSchemaError(path, "expected a matrix (list of rows of equal length)")
    return tuple(_numbers(row, f"{path}[{r}]") for r, row in enumerate(node))


@dataclass(frozen=True)
class _Section:
    """A flat section. Each key sets the attribute of the same name on the
    Scenario or, given config, on the config dataclass in Scenario.<name>.
    rule(key, value) raises ValueError for a value outside its key's rule."""

    name: str
    parsers: dict[str, Callable]
    rule: Callable[[str, object], None] = lambda key, value: None
    config: type | None = None

    def read(self, doc: dict) -> dict:
        """Scenario keyword arguments from this section of doc."""
        node = _mapping(doc.get(self.name), self.name, self.parsers, optional=True)
        spec = (self.config or Scenario).__dataclass_fields__
        for key in self.parsers:
            if spec[key].default is MISSING and spec[key].default_factory is MISSING:
                _require(node, key, self.name)
        values = {key: parse(node[key], f"{self.name}.{key}")
                  for key, parse in self.parsers.items() if key in node}
        if self.config is None:
            return self._make(dict, values)
        return {self.name: self._make(self.config, values)}

    def merge(self, sc: Scenario, values: dict) -> dict:
        """Scenario keyword arguments that set values on sc, under the rules
        that read applies."""
        if self.config is None:
            return self._make(dict, values)
        return {self.name: self._make(partial(replace, getattr(sc, self.name)), values)}

    def _make(self, make, values: dict):
        """make(**values) once every value obeys its rule; errors name their path."""
        for key, value in values.items():
            try:
                self.rule(key, value)
            except ValueError as exc:
                raise ScenarioValidationError(f"{self.name}.{key}", str(exc)) from exc
        try:
            return make(**values)
        except ValueError as exc:
            raise ScenarioValidationError(self.name, str(exc)) from exc

    def dump(self, sc: Scenario) -> dict:
        target = getattr(sc, self.name) if self.config else sc
        values = ((key, getattr(target, key)) for key in self.parsers)
        return {key: value for key, value in values if value is not None}


_FIELD = _Section(
    "field",
    {"epsilon": _number, "phi": _number, "psi": _number, "omega": _number,
     "variant": _choice(_VARIANTS), "orientation": _choice(_ORIENTATIONS)},
    check_field_value,
)
# IntegratorConfig checks the values of this section as a whole
_INTEGRATOR = _Section(
    "integrator",
    {"t_end": _number, "rtol": _number, "atol": _number,
     "max_step": lambda value, path: None if value is None else _number(value, path),
     "sample_dt": _number, "direction": _choice(_DIRECTIONS)},
    config=IntegratorConfig,
)
_ANALYSIS = _Section(
    "analysis",
    {"near_tol": _number, "min_dwell": _number,
     "witness_deltas": lambda value, path: _numbers(value, path, nonempty=True)},
    check_analysis_value,
)
_SECTIONS = (_FIELD, _INTEGRATOR, _ANALYSIS)
_TOP_KEYS = ("hierarchy", "coefficients", "field", "initial_state", "integrator", "analysis")


def apply_overrides(sc: Scenario, **values) -> Scenario:
    """sc with flat-section keys (e.g. t_end, variant, witness_deltas) set,
    under the same rules and error paths as load_scenario. The Scenario is
    rebuilt once, so its coefficients are checked once."""
    changes = {}
    for section in _SECTIONS:
        given = {key: values[key] for key in section.parsers if key in values}
        if given:
            changes.update(section.merge(sc, given))
    return _build(partial(replace, sc), changes) if changes else sc


def _read_digraph(node, path) -> Digraph:
    node = _mapping(node, path, ("vertices", "edges"))
    n = _integer(_require(node, "vertices", path), f"{path}.vertices")
    edges = _expect(_require(node, "edges", path), list, f"{path}.edges")
    pairs = []
    for idx, e in enumerate(edges):
        where = f"{path}.edges[{idx}]"
        if not (isinstance(e, list) and len(e) == 2):
            raise ScenarioSchemaError(where, "expected a pair [i, k]")
        pairs.append((_integer(e[0], where) - 1, _integer(e[1], where) - 1))
    try:
        return digraph_from_edges(n, pairs)
    except GraphError as exc:
        raise ScenarioValidationError(path, str(exc)) from exc


def _read_hierarchy(node) -> HierarchySpec:
    node = _mapping(node, "hierarchy", ("superstructure", "substructures"))
    sup = _read_digraph(_require(node, "superstructure", "hierarchy"), "hierarchy.superstructure")
    subs = _expect(_require(node, "substructures", "hierarchy"), list, "hierarchy.substructures")
    hierarchy = HierarchySpec(sup, tuple(
        _read_digraph(g, f"hierarchy.substructures[{j + 1}]") for j, g in enumerate(subs)
    ))
    problems = validate_hierarchy(hierarchy)
    if problems:
        raise ScenarioValidationError("hierarchy", "; ".join(str(p) for p in problems))
    return hierarchy


_PAIR_KEY = re.compile(r"([0-9]+)->([0-9]+)")


def _read_pair(key, n, path) -> tuple[int, int]:
    """0-based (i, k) of an override key "i->k" joining two distinct vertices in 1..n."""
    match = _PAIR_KEY.fullmatch(key) if isinstance(key, str) else None
    if match is None:
        raise ScenarioSchemaError(path, f'override keys look like "1->2", got {key!r}')
    i, k = int(match[1]) - 1, int(match[2]) - 1
    if i == k or not (0 <= i < n and 0 <= k < n):
        raise ScenarioValidationError(f"{path}.{key}", f"must join two distinct vertices in 1..{n}")
    return i, k


def _read_coefficients(node, h: HierarchySpec) -> dict:
    """Scenario keyword arguments of the coefficients section."""
    keys = ("c_plus", "c_minus", "overrides", "a", "alphas")
    node = _mapping(node, "coefficients", keys, optional=True)
    if "a" in node or "alphas" in node:
        if not ("a" in node and "alphas" in node):
            raise ScenarioSchemaError("coefficients", "verbatim form needs both a and alphas")
        mixed = sorted(node.keys() - {"a", "alphas"})  # keys of the uniform form
        if mixed:
            raise ScenarioSchemaError(f"coefficients.{mixed[0]}", "not allowed with a and alphas")
        a = _matrix(node["a"], "coefficients.a")
        alphas = _expect(node["alphas"], list, "coefficients.alphas")
        return {"a": a, "alphas": tuple(
            _matrix(m, f"coefficients.alphas[{j + 1}]") for j, m in enumerate(alphas)
        )}
    out = {k: _number(node[k], f"coefficients.{k}") for k in ("c_plus", "c_minus") if k in node}
    ov = _mapping(node.get("overrides"), "coefficients.overrides", ("super", "sub"), optional=True)
    where = "coefficients.overrides.super"
    sup = [(*_read_pair(key, h.n_super, where), _number(val, f"{where}.{key}"))
           for key, val in _mapping(ov.get("super"), where, optional=True).items()]
    where = "coefficients.overrides.sub"
    sub = []
    for jkey, entries in _mapping(ov.get("sub"), where, optional=True).items():
        j = _integer(jkey, where) - 1
        block = f"{where}.{jkey}"
        if not 0 <= j < h.n_super:
            raise ScenarioValidationError(block, f"substructure must lie in 1..{h.n_super}")
        for key, val in _mapping(entries, block, optional=True).items():
            i, k = _read_pair(key, h.block_sizes[j], block)
            sub.append((j, i, k, _number(val, f"{block}.{key}")))
    return {**out, "super_overrides": tuple(sorted(sup)), "sub_overrides": tuple(sorted(sub))}


def _read_initial_state(node, h: HierarchySpec) -> dict:
    node = _mapping(node, "initial_state", ("X", "x"))
    initial_X = _numbers(_require(node, "X", "initial_state"), "initial_state.X")
    blocks = _expect(_require(node, "x", "initial_state"), list, "initial_state.x")
    initial_x = tuple(_numbers(b, f"initial_state.x[{j + 1}]") for j, b in enumerate(blocks))
    if len(initial_X) != h.n_super:
        msg = f"expected length {h.n_super}, got {len(initial_X)}"
        raise ScenarioValidationError("initial_state.X", msg)
    lengths = tuple(len(b) for b in initial_x)
    if lengths != h.block_sizes:
        msg = f"expected block lengths {h.block_sizes}, got {lengths}"
        raise ScenarioValidationError("initial_state.x", msg)
    if any(not np.isfinite(v) or v < 0.0 for v in (*initial_X, *(v for b in initial_x for v in b))):
        raise ScenarioValidationError("initial_state", "entries must be finite and nonnegative")
    return {"initial_X": initial_X, "initial_x": initial_x}


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: not valid YAML: {exc}") from exc
    doc = _mapping(doc, "<root>", _TOP_KEYS)
    hierarchy = _read_hierarchy(_require(doc, "hierarchy", "<root>"))
    values = {  # sections are read in document order
        **_read_coefficients(doc.get("coefficients"), hierarchy),
        **_FIELD.read(doc),
        **_read_initial_state(_require(doc, "initial_state", "<root>"), hierarchy),
        **_INTEGRATOR.read(doc),
        **_ANALYSIS.read(doc),
    }
    return _build(partial(Scenario, hierarchy), values)


def _build(make, values: dict) -> Scenario:
    try:  # building the scenario checks its coefficient matrices
        return make(**values)
    except (CoefficientSignError, DimensionMismatchError, NonFiniteError) as exc:
        raise ScenarioValidationError("coefficients", str(exc)) from exc


def _digraph_to_node(d: Digraph) -> dict:
    return {"vertices": d.n_vertices, "edges": [[i + 1, k + 1] for i, k in edge_list(d)]}


def scenario_to_dict(sc: Scenario) -> dict:
    if sc.a is not None:
        coeff = {"a": sc.a, "alphas": sc.alphas}  # safe_dump writes tuples as lists
    else:
        coeff = {"c_plus": sc.c_plus, "c_minus": sc.c_minus}
        sub: dict = {}
        for j, i, k, v in sc.sub_overrides:
            sub.setdefault(j + 1, {})[f"{i + 1}->{k + 1}"] = v
        sup = {f"{i + 1}->{k + 1}": v for i, k, v in sc.super_overrides}
        if sup or sub:
            coeff["overrides"] = {key: val for key, val in (("super", sup), ("sub", sub)) if val}
    return {
        "hierarchy": {
            "superstructure": _digraph_to_node(sc.hierarchy.superstructure),
            "substructures": [_digraph_to_node(g) for g in sc.hierarchy.substructures],
        },
        "coefficients": coeff,
        "field": _FIELD.dump(sc),
        "initial_state": {"X": sc.initial_X, "x": sc.initial_x},
        "integrator": _INTEGRATOR.dump(sc),
        "analysis": _ANALYSIS.dump(sc),
    }


def save_scenario(sc: Scenario, path) -> None:
    """Write a scenario document that load_scenario reproduces field-for-field;
    path is replaced only once the whole document is written (publish)."""
    with publish(path) as fh:
        yaml.safe_dump(scenario_to_dict(sc), fh, sort_keys=False)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (example1, example2)."""
    ref = resources.files("hexnet") / "scenarios" / f"{name}.yaml"
    return Path(str(ref))
