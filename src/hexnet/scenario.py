"""Scenario documents: YAML schema, loading with field-path errors, saving.

A scenario bundles the hierarchy (edge lists, 1-based), the coefficient
choice (uniform rule with optional per-connection overrides, or verbatim
connection-oriented matrices), the field scalars, the initial state, the
integrator settings and the analysis options.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

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
from .integrator import IntegratorConfig
from .vectorfield import (
    EPSILON_HARD_BOUND,
    ORIENTATION_EIGENVALUE,
    ORIENTATION_LITERAL,
    VARIANT_BOUNDED,
    VARIANT_STANDARD,
    CoefficientSet,
    FieldParams,
    build_coefficients,
    coefficients_from_matrices,
)

__all__ = ["Scenario", "load_scenario", "save_scenario", "bundled_scenario_path"]

_TOP_KEYS = {"hierarchy", "coefficients", "field", "initial_state", "integrator", "analysis"}


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
    near_tol: float = 0.1
    min_dwell: float = 1.0
    witness_deltas: tuple[float, ...] = (1e-1, 1e-2, 1e-3)

    def field_params(self) -> FieldParams:
        return FieldParams(
            hierarchy=self.hierarchy,
            coeffs=self._coefficients(),
            epsilon=self.epsilon,
            phi=self.phi,
            psi=self.psi,
            omega=self.omega,
            variant=self.variant,
        )

    def _coefficients(self) -> CoefficientSet:
        """Coefficient matrices; building them checks their signs and shapes."""
        if self.a is not None:
            return coefficients_from_matrices(
                self.hierarchy, np.asarray(self.a), [np.asarray(m) for m in self.alphas],
                self.orientation,
            )
        subs: dict[int, dict[tuple[int, int], float]] = {}
        for j, i, k, v in self.sub_overrides:
            subs.setdefault(j, {})[(i, k)] = v
        return build_coefficients(
            self.hierarchy,
            self.c_plus,
            self.c_minus,
            {(i, k): v for i, k, v in self.super_overrides},
            subs,
            self.orientation,
        )

    def initial_state(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.initial_X, dtype=float)]
                              + [np.asarray(x, dtype=float) for x in self.initial_x])


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ScenarioSchemaError(path, "expected a mapping")
    if key not in mapping:
        raise ScenarioSchemaError(f"{path}.{key}", "missing required key")
    return mapping[key]


def _reject_unknown(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ScenarioSchemaError(path, "expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioSchemaError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _as_float(value, path) -> float:
    # strings are accepted because YAML 1.1 resolves "1e-12" (no dot) as text
    if isinstance(value, bool) or value is None:
        raise ScenarioSchemaError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioSchemaError(path, f"expected a number, got {value!r}") from None


def _as_int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioSchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_choice(value, choices, path) -> str:
    if value not in choices:
        raise ScenarioSchemaError(path, f"expected one of {choices}, got {value!r}")
    return value


def _parse_digraph(node, path) -> Digraph:
    _reject_unknown(node, {"vertices", "edges"}, path)
    n = _as_int(_require(node, "vertices", path), f"{path}.vertices")
    raw_edges = _require(node, "edges", path)
    if not isinstance(raw_edges, list):
        raise ScenarioSchemaError(f"{path}.edges", "expected a list of [i, k] pairs")
    pairs = []
    for idx, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise ScenarioSchemaError(f"{path}.edges[{idx}]", "expected a pair [i, k]")
        i = _as_int(e[0], f"{path}.edges[{idx}]") - 1
        k = _as_int(e[1], f"{path}.edges[{idx}]") - 1
        pairs.append((i, k))
    try:
        return digraph_from_edges(n, pairs)
    except GraphError as exc:
        raise ScenarioValidationError(path, str(exc)) from exc


def _parse_pair_key(key, n, path) -> tuple[int, int]:
    """0-based (i, k) of an override key "i->k" between two distinct
    vertices of a digraph on n vertices."""
    if not isinstance(key, str) or "->" not in key:
        raise ScenarioSchemaError(path, f'override keys look like "1->2", got {key!r}')
    left, _, right = key.partition("->")
    try:
        i, k = int(left) - 1, int(right) - 1
    except ValueError:
        raise ScenarioSchemaError(path, f"bad override key {key!r}") from None
    if i == k or not (0 <= i < n and 0 <= k < n):
        raise ScenarioValidationError(
            f"{path}.{key}", f"must join two distinct vertices in 1..{n}"
        )
    return i, k


def _parse_matrix(node, path) -> tuple[tuple[float, ...], ...]:
    if not isinstance(node, list) or not all(isinstance(r, list) for r in node):
        raise ScenarioSchemaError(path, "expected a matrix (list of rows)")
    return tuple(
        tuple(_as_float(v, f"{path}[{r}][{c}]") for c, v in enumerate(row))
        for r, row in enumerate(node)
    )


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioSchemaError("<root>", "expected a mapping of sections")
    _reject_unknown(doc, _TOP_KEYS, "<root>")

    hier_node = _require(doc, "hierarchy", "<root>")
    _reject_unknown(hier_node, {"superstructure", "substructures"}, "hierarchy")
    superstructure = _parse_digraph(
        _require(hier_node, "superstructure", "hierarchy"), "hierarchy.superstructure"
    )
    subs_node = _require(hier_node, "substructures", "hierarchy")
    if not isinstance(subs_node, list):
        raise ScenarioSchemaError("hierarchy.substructures", "expected a list")
    substructures = tuple(
        _parse_digraph(g, f"hierarchy.substructures[{j + 1}]")
        for j, g in enumerate(subs_node)
    )
    hierarchy = HierarchySpec(superstructure, substructures)
    problems = validate_hierarchy(hierarchy)
    if problems:
        raise ScenarioValidationError("hierarchy", "; ".join(str(p) for p in problems))

    c_plus, c_minus = 1.0, -1.5
    super_ov: tuple = ()
    sub_ov: tuple = ()
    a_mat = alpha_mats = None
    coeff_node = doc.get("coefficients") or {}
    _reject_unknown(
        coeff_node, {"c_plus", "c_minus", "overrides", "a", "alphas"}, "coefficients"
    )
    if "a" in coeff_node or "alphas" in coeff_node:
        if not ("a" in coeff_node and "alphas" in coeff_node):
            raise ScenarioSchemaError("coefficients", "verbatim form needs both a and alphas")
        a_mat = _parse_matrix(coeff_node["a"], "coefficients.a")
        if not isinstance(coeff_node["alphas"], list):
            raise ScenarioSchemaError("coefficients.alphas", "expected a list of matrices")
        alpha_mats = tuple(
            _parse_matrix(m, f"coefficients.alphas[{j + 1}]")
            for j, m in enumerate(coeff_node["alphas"])
        )
    else:
        c_plus = _as_float(coeff_node.get("c_plus", 1.0), "coefficients.c_plus")
        c_minus = _as_float(coeff_node.get("c_minus", -1.5), "coefficients.c_minus")
        ov = coeff_node.get("overrides") or {}
        _reject_unknown(ov, {"super", "sub"}, "coefficients.overrides")
        sup = []
        for key, val in (ov.get("super") or {}).items():
            i, k = _parse_pair_key(key, hierarchy.n_super, "coefficients.overrides.super")
            sup.append((i, k, _as_float(val, f"coefficients.overrides.super.{key}")))
        super_ov = tuple(sorted(sup))
        sub = []
        for jkey, entries in (ov.get("sub") or {}).items():
            try:
                j = int(jkey) - 1
            except (TypeError, ValueError):
                raise ScenarioSchemaError(
                    "coefficients.overrides.sub", f"substructure key must be an integer, got {jkey!r}"
                ) from None
            if not 0 <= j < hierarchy.n_super:
                raise ScenarioValidationError(
                    f"coefficients.overrides.sub.{jkey}",
                    f"substructure must lie in 1..{hierarchy.n_super}",
                )
            for key, val in (entries or {}).items():
                i, k = _parse_pair_key(
                    key, hierarchy.block_sizes[j], f"coefficients.overrides.sub.{jkey}"
                )
                sub.append((j, i, k, _as_float(val, f"coefficients.overrides.sub.{jkey}.{key}")))
        sub_ov = tuple(sorted(sub))

    field_node = doc.get("field") or {}
    _reject_unknown(
        field_node, {"epsilon", "phi", "psi", "omega", "variant", "orientation"}, "field"
    )
    epsilon = _as_float(field_node.get("epsilon", 0.2), "field.epsilon")
    if not 0.0 < epsilon < EPSILON_HARD_BOUND:
        raise ScenarioValidationError(
            "field.epsilon",
            f"must lie in (0, sqrt(2)/2 ~ {EPSILON_HARD_BOUND:.6f}), got {epsilon}",
        )
    phi = _as_float(field_node.get("phi", 1.0), "field.phi")
    psi = _as_float(field_node.get("psi", 1.0), "field.psi")
    omega = _as_float(field_node.get("omega", 1.0), "field.omega")
    for name, val in (("phi", phi), ("psi", psi), ("omega", omega)):
        if not val > 0.0:
            raise ScenarioValidationError(f"field.{name}", f"must be positive, got {val}")
    variant = _as_choice(
        field_node.get("variant", VARIANT_STANDARD),
        (VARIANT_STANDARD, VARIANT_BOUNDED),
        "field.variant",
    )
    orientation = _as_choice(
        field_node.get("orientation", ORIENTATION_EIGENVALUE),
        (ORIENTATION_EIGENVALUE, ORIENTATION_LITERAL),
        "field.orientation",
    )

    init_node = _require(doc, "initial_state", "<root>")
    _reject_unknown(init_node, {"X", "x"}, "initial_state")
    raw_X = _require(init_node, "X", "initial_state")
    if not isinstance(raw_X, list):
        raise ScenarioSchemaError("initial_state.X", "expected a list")
    initial_X = tuple(_as_float(v, f"initial_state.X[{i}]") for i, v in enumerate(raw_X))
    raw_x = _require(init_node, "x", "initial_state")
    if not isinstance(raw_x, list):
        raise ScenarioSchemaError("initial_state.x", "expected a list of blocks")
    initial_x = tuple(
        tuple(_as_float(v, f"initial_state.x[{j + 1}][{i}]") for i, v in enumerate(blk))
        for j, blk in enumerate(raw_x)
    )
    if len(initial_X) != hierarchy.n_super:
        raise ScenarioValidationError(
            "initial_state.X", f"expected length {hierarchy.n_super}, got {len(initial_X)}"
        )
    if tuple(len(b) for b in initial_x) != hierarchy.block_sizes:
        raise ScenarioValidationError(
            "initial_state.x",
            f"expected block lengths {hierarchy.block_sizes}, got {tuple(len(b) for b in initial_x)}",
        )
    flat = [*initial_X, *(v for b in initial_x for v in b)]
    if any(not np.isfinite(v) or v < 0.0 for v in flat):
        raise ScenarioValidationError("initial_state", "entries must be finite and nonnegative")

    integ_node = doc.get("integrator") or {}
    _reject_unknown(
        integ_node, {"t_end", "rtol", "atol", "max_step", "sample_dt", "direction"}, "integrator"
    )
    try:
        integrator = IntegratorConfig(
            t_end=_as_float(_require(integ_node, "t_end", "integrator"), "integrator.t_end"),
            rtol=_as_float(integ_node.get("rtol", 1e-12), "integrator.rtol"),
            atol=_as_float(integ_node.get("atol", 1e-12), "integrator.atol"),
            max_step=(
                None
                if integ_node.get("max_step") is None
                else _as_float(integ_node["max_step"], "integrator.max_step")
            ),
            sample_dt=_as_float(integ_node.get("sample_dt", 0.1), "integrator.sample_dt"),
            direction=_as_choice(
                integ_node.get("direction", "forward"), ("forward", "backward"), "integrator.direction"
            ),
        )
    except ValueError as exc:
        raise ScenarioValidationError("integrator", str(exc)) from exc

    ana_node = doc.get("analysis") or {}
    _reject_unknown(ana_node, {"near_tol", "min_dwell", "witness_deltas"}, "analysis")
    near_tol = _as_float(ana_node.get("near_tol", 0.1), "analysis.near_tol")
    if not 0.0 < near_tol < 0.5:
        raise ScenarioValidationError("analysis.near_tol", f"must lie in (0, 0.5), got {near_tol}")
    min_dwell = _as_float(ana_node.get("min_dwell", 1.0), "analysis.min_dwell")
    if min_dwell < 0.0:
        raise ScenarioValidationError("analysis.min_dwell", "must be nonnegative")
    deltas = ana_node.get("witness_deltas", [1e-1, 1e-2, 1e-3])
    if not isinstance(deltas, list) or not deltas:
        raise ScenarioSchemaError("analysis.witness_deltas", "expected a nonempty list")
    witness_deltas = tuple(
        _as_float(v, f"analysis.witness_deltas[{i}]") for i, v in enumerate(deltas)
    )
    if any(not 0.0 < v < 1.0 for v in witness_deltas):
        raise ScenarioValidationError("analysis.witness_deltas", "each delta must lie in (0, 1)")

    scenario = Scenario(
        hierarchy=hierarchy,
        c_plus=c_plus,
        c_minus=c_minus,
        super_overrides=super_ov,
        sub_overrides=sub_ov,
        a=a_mat,
        alphas=alpha_mats,
        epsilon=epsilon,
        phi=phi,
        psi=psi,
        omega=omega,
        variant=variant,
        orientation=orientation,
        initial_X=initial_X,
        initial_x=initial_x,
        integrator=integrator,
        near_tol=near_tol,
        min_dwell=min_dwell,
        witness_deltas=witness_deltas,
    )
    # surface coefficient-matrix problems now, with a stable path prefix
    try:
        scenario._coefficients()
    except (CoefficientSignError, DimensionMismatchError, NonFiniteError) as exc:
        raise ScenarioValidationError("coefficients", str(exc)) from exc
    return scenario


def _digraph_to_node(d: Digraph) -> dict:
    return {
        "vertices": d.n_vertices,
        "edges": [[i + 1, k + 1] for i, k in edge_list(d)],
    }


def scenario_to_dict(sc: Scenario) -> dict:
    coeff: dict = {}
    if sc.a is not None:
        coeff["a"] = [list(r) for r in sc.a]
        coeff["alphas"] = [[list(r) for r in m] for m in sc.alphas]
    else:
        coeff["c_plus"] = sc.c_plus
        coeff["c_minus"] = sc.c_minus
        overrides: dict = {}
        if sc.super_overrides:
            overrides["super"] = {f"{i + 1}->{k + 1}": v for i, k, v in sc.super_overrides}
        if sc.sub_overrides:
            sub: dict = {}
            for j, i, k, v in sc.sub_overrides:
                sub.setdefault(j + 1, {})[f"{i + 1}->{k + 1}"] = v
            overrides["sub"] = sub
        if overrides:
            coeff["overrides"] = overrides
    out = {
        "hierarchy": {
            "superstructure": _digraph_to_node(sc.hierarchy.superstructure),
            "substructures": [_digraph_to_node(g) for g in sc.hierarchy.substructures],
        },
        "coefficients": coeff,
        "field": {
            "epsilon": sc.epsilon,
            "phi": sc.phi,
            "psi": sc.psi,
            "omega": sc.omega,
            "variant": sc.variant,
            "orientation": sc.orientation,
        },
        "initial_state": {
            "X": list(sc.initial_X),
            "x": [list(b) for b in sc.initial_x],
        },
        "integrator": {
            "t_end": sc.integrator.t_end,
            "rtol": sc.integrator.rtol,
            "atol": sc.integrator.atol,
            "sample_dt": sc.integrator.sample_dt,
            "direction": sc.integrator.direction,
        },
        "analysis": {
            "near_tol": sc.near_tol,
            "min_dwell": sc.min_dwell,
            "witness_deltas": list(sc.witness_deltas),
        },
    }
    if sc.integrator.max_step is not None:
        out["integrator"]["max_step"] = sc.integrator.max_step
    return out


def save_scenario(sc: Scenario, path) -> None:
    """Write a scenario document that load_scenario reproduces field-for-field."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(sc), fh, sort_keys=False)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (example1, example2)."""
    ref = resources.files("hexnet") / "scenarios" / f"{name}.yaml"
    return Path(str(ref))
