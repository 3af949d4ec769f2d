"""Grids, material parameters, field state, and scenario configuration.

Every other module consumes these types. A Grid is its axes, x first, so
no code path depends on the dimension. Configs are plain YAML mappings;
build_scenario validates and normalizes them into a ScenarioConfig whose
canonical dict form round-trips bitwise (same defaults filled in, same key
order when emitted). One key table per config section parses, rejects
unknown keys and emits; the material rules live in MaterialParams.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import methodcaller
from typing import Any, Callable, Mapping, NamedTuple, Optional, Union

import numpy as np
import yaml

from .errors import ConfigConflict, InvalidValue, MissingKey, ShapeMismatch

U_BC_KINDS = ("fixed", "free", "traction", "velocity", "periodic")
GAMMA_BC_KINDS = ("zero_flux", "dirichlet", "periodic")
IC_KINDS = ("zeros", "constant", "gaussian", "sine", "step", "tabulated")
SOURCE_LAWS = ("linear_decay", "logistic")


class Axis(NamedTuple):
    """One grid axis. The face operators in ops work along the last array
    axis; view moves this axis there and back (x is last already, y is
    reached by a transpose), so one helper serves every axis."""

    h: float  # cell width along the axis
    across: float  # cell measure across it: the product of the other axes' widths
    view: Callable
    n: int  # cells along the axis
    origin: float  # coordinate of its first face

    def centers(self) -> np.ndarray:
        return self.origin + (np.arange(self.n) + 0.5) * self.h


def _unchanged(a):
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid in material coordinates. n, h and origin
    hold one entry per axis, x (the loading direction) first: its cell count,
    cell width (m) and first face. Field arrays are shaped (ny, nx), x last;
    cell (j, i) is centered at (origin[0] + (i + 1/2)*h[0], origin[1] + (j + 1/2)*h[1]).
    """

    n: tuple
    h: tuple
    origin: tuple

    @property
    def ndim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple:
        return self.n[::-1]

    @property
    def nx(self) -> int:
        return self.n[0]

    @property
    def dx(self) -> float:
        return self.h[0]

    @cached_property
    def cell_volume(self) -> float:
        # per unit cross-section area (m) in 1D, per unit depth (m^2) in 2D
        return math.prod(self.h)

    @cached_property
    def axes(self) -> tuple:
        last = self.ndim - 1
        return tuple(
            Axis(h, math.prod(self.h[:a] + self.h[a + 1:], start=1.0),
                 methodcaller("swapaxes", last - a, last) if a else _unchanged, n, o)
            for a, (n, h, o) in enumerate(zip(self.n, self.h, self.origin))
        )


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive coefficients in SI units, of the one free energy in
    constitutive: b = 0 is Feng's model, lam = 0 Clifton's.

    rho0   : reference mass density (kg/m^3)
    theta0 : reference temperature (K)
    c1     : linear elastic modulus (Pa)
    c3     : cubic elastic coefficient (Pa)
    c2     : damage stiffness (Pa); the -c2*gamma restoring source
    lam    : dissipation coefficient (Pa*s); `lambda` in config files
    d1     : longitudinal damage diffusivity (m^2/s)
    d2     : transverse damage diffusivity (m^2/s)
    b      : strain-damage coupling (Pa); b = 0 decouples the elastic field
             from the damage field, and a logistic source needs b = 0
    sigma0 : activation stress threshold (Pa); 0 means always active
    source_law  : 'linear_decay' (-c2*gamma) or 'logistic'
                  (r*lam*gamma*(1 - gamma/gamma_max), front-forming)
    source_rate : logistic rate r (1/s)
    gamma_max   : logistic saturation level (dimensionless)

    The damage-flux conductivity tensor is lam*diag(d1, d2), so every term
    of the damage balance carries Pa and d1, d2 keep m^2/s.

    However a parameter set is built (build_scenario, directly, replace), it
    is checked here: InvalidValue names the material.* key at fault, and
    ConfigConflict a pair that does not combine (lam = 0, the conservative
    limit, needs c2 = 0, b = 0 and no source).
    """

    rho0: float
    c1: float
    theta0: float = 300.0
    c2: float = 0.0
    c3: float = 0.0
    lam: float = 1.0
    d1: float = 0.0
    d2: float = 0.0
    b: float = 0.0
    sigma0: float = 0.0
    source_law: str = "linear_decay"
    source_rate: float = 0.0
    gamma_max: float = 1.0

    def __post_init__(self):
        _check_enum(self.source_law, SOURCE_LAWS, "material.source.law")
        logistic = self.source_law == "logistic"
        rules = (  # written so that NaN fails them
            ("rho0", self.rho0 > 0, "must be > 0"),
            ("theta0", self.theta0 > 0, "must be > 0"),
            ("c1", self.c1 > 0, "must be > 0"),
            ("lambda", self.lam >= 0, "must be >= 0"),
            ("d1/d2", self.d1 >= 0 and self.d2 >= 0, "diffusivities must be >= 0"),
            ("c2", self.c2 >= 0, "must be >= 0"),
            ("sigma0", self.sigma0 >= 0, "must be >= 0"),
            ("source.rate", not logistic or self.source_rate > 0, "logistic source needs rate > 0"),
            ("source.gamma_max", not logistic or self.gamma_max > 0, "must be > 0"),
        )
        for key, ok, reason in rules:
            if not ok:
                raise InvalidValue(f"material.{key}", reason)
        if logistic and self.b != 0.0:
            raise ConfigConflict(
                "b != 0 couples the strain into a linear_decay source (-b*uX - c2*gamma); "
                "a logistic source needs b = 0"
            )
        if self.lam == 0.0 and (self.c2 != 0.0 or self.b != 0.0 or logistic):
            raise ConfigConflict(
                "conservative limit lam = 0 needs c2 = 0, b = 0, and no source; got "
                f"c2={self.c2}, b={self.b}, source law {self.source_law}"
            )

    @property
    def k1(self) -> float:
        # longitudinal conductivity lam*d1 (Pa*m^2)
        return self.lam * self.d1

    @property
    def k2(self) -> float:
        return self.lam * self.d2


@dataclass
class FieldState:
    """Simulation state on the grid at one instant.

    U, v, gamma are cell-centered arrays shaped like the grid; active marks
    cells where damage evolution is enabled (threshold reached, or seeded).
    Single-writer contract: one run owns and replaces these arrays; snapshots
    hand out copies.
    """

    time: float
    U: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    active: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(
            time=self.time,
            U=self.U.copy(),
            v=self.v.copy(),
            gamma=self.gamma.copy(),
            active=self.active.copy(),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, normalized scenario description.

    ic, bc, output, numerics are canonical plain dicts (defaults filled in),
    so two configs built from equivalent documents compare equal field by
    field and emit identical YAML.
    """

    name: str
    grid: Grid
    material: MaterialParams
    dt: float
    t_end: float
    ic: dict
    bc: dict
    body_force: float
    gauges: tuple
    output: dict
    numerics: dict


def _need(mapping: Mapping, key: str, path: str) -> Any:
    if not isinstance(mapping, Mapping) or key not in mapping or mapping[key] is None:
        raise MissingKey(f"{path}.{key}" if path else key)
    return mapping[key]


def _as_float(value: Any, path: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise InvalidValue(path, f"expected a number, got {value!r}")
    if not np.isfinite(out):
        raise InvalidValue(path, "must be finite")
    return out


def _as_int(value: Any, path: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise InvalidValue(path, f"expected an integer, got {value!r}")
    return out


def _check_enum(value: str, allowed: tuple, path: str) -> str:
    if value not in allowed:
        raise InvalidValue(path, f"must be one of {allowed}, got {value!r}")
    return value


# The (cells, width, origin) keys of each grid axis, x first; a 1D grid's
# origin key is the bare "origin".
AXIS_KEYS = (("nx", "dx", "origin_x"), ("ny", "dy", "origin_y"))


def _axis_keys(ndim: int) -> tuple:
    return (("nx", "dx", "origin"),) if ndim == 1 else AXIS_KEYS[:ndim]


def _parse_grid(raw: Mapping) -> Grid:
    keys = _axis_keys(2 if isinstance(raw, Mapping) and raw.get("ny") is not None else 1)
    _reject_unknown(raw, {key for axis in keys for key in axis} | {"ny"}, "grid")
    n, h, origin = [], [], []
    for cells, width, at in keys:
        n.append(_as_int(_need(raw, cells, "grid"), f"grid.{cells}"))
        h.append(_as_float(_need(raw, width, "grid"), f"grid.{width}"))
        if h[-1] <= 0:
            raise InvalidValue(f"grid.{width}", "must be > 0")
        if n[-1] < 3:
            raise InvalidValue(f"grid.{cells}", "need at least 3 cells")
        origin.append(_as_float(raw.get(at, 0.0), f"grid.{at}"))
    return Grid(tuple(n), tuple(h), tuple(origin))


# One table per config section, config key -> (field, default, type), drives
# parsing, unknown-key rejection and canonical emission. A None default marks
# a required key, a callable one reads the fields parsed before it; a table
# as the type is a nested section whose fields join its parent's.
_SOURCE = {
    "law": ("source_law", "linear_decay", str),
    "rate": ("source_rate", 0.0, float),
    "gamma_max": ("gamma_max", 1.0, float),
}
_MATERIAL = {
    "rho0": ("rho0", None, float),
    "theta0": ("theta0", 300.0, float),
    "c1": ("c1", None, float),
    "c2": ("c2", 0.0, float),
    "c3": ("c3", 0.0, float),
    "lambda": ("lam", 1.0, float),
    "d1": ("d1", 0.0, float),
    "d2": ("d2", lambda fields: fields["d1"], float),  # isotropic unless given
    "b": ("b", 0.0, float),
    "sigma0": ("sigma0", 0.0, float),
    "source": (None, {}, _SOURCE),
}
_NUMERICS = {
    "tol_admissibility": ("tol_admissibility", 1e-12, float),
    "source_tol": ("source_tol", 1e-14, float),
    "source_max_iter": ("source_max_iter", 30, int),
}
_TIME = {"dt": ("dt", None, float), "t_end": ("t_end", None, float)}
_OUTPUT = {"snapshots": ("snapshots", 11, int)}
_CONVERT = {float: _as_float, int: _as_int, str: lambda value, path: str(value)}
# the initial fields, the walls with their types, and each type's keys besides "type"
_IC_FIELDS = ("U", "v", "gamma")
_WALLS = {"u_left": U_BC_KINDS, "u_right": U_BC_KINDS, "gamma": GAMMA_BC_KINDS}
_IC_KEYS = {"zeros": set(), "constant": {"value"}, "gaussian": {"amplitude", "center", "width"},
            "sine": {"amplitude", "mode"}, "step": {"left", "right", "at"}, "tabulated": {"values"}}
_WALL_KEYS = {"fixed": {"value"}, "velocity": {"value"}, "traction": {"value", "until", "ramp"},
              "free": set(), "periodic": set(), "zero_flux": set(), "dirichlet": {"value"}}


def _mapping(raw: Any, path: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise InvalidValue(path, "must be a mapping")
    return raw


def _reject_unknown(raw: Any, known, path: str) -> None:
    # mistyped or retired keys must not silently fall back to defaults
    for key in _mapping(raw, path):
        if key not in known:
            raise InvalidValue(f"{path}.{key}" if path else str(key), "unknown key")


def _parse_section(raw: Any, table: dict, path: str) -> dict:
    """The fields of one config section by its table, defaults filled in."""
    _reject_unknown(raw, table, path)
    fields: dict = {}
    for key, (name, default, kind) in table.items():
        where = f"{path}.{key}"
        if isinstance(kind, dict):
            fields.update(_parse_section(raw.get(key) or default, kind, where))
        elif default is None:
            fields[name] = _CONVERT[kind](_need(raw, key, path), where)
        else:
            value = raw.get(key, default(fields) if callable(default) else default)
            fields[name] = _CONVERT[kind](value, where)
    return fields


def _emit(obj: Any, table: dict) -> dict:
    """The canonical dict of obj's fields under a section table."""
    return {key: _emit(obj, kind) if isinstance(kind, dict) else getattr(obj, name)
            for key, (name, _, kind) in table.items()}


def _per_axis(value: Any, grid: Grid, path: str):
    """A number per grid axis: a bare number in 1D, in 2D a list of one per
    axis or one number for all."""
    if grid.ndim == 1:
        return _as_float(value, path)
    values = value if isinstance(value, (list, tuple)) else [value] * grid.ndim
    if len(values) != grid.ndim:
        raise InvalidValue(path, f"needs {grid.ndim} values, one per axis")
    return [_as_float(v, path) for v in values]


def _parse_gauge(raw: Any, grid: Grid, path: str):
    """A gauge position inside the grid: a bare x in 1D, [x, y] in 2D."""
    coords = [raw] if grid.ndim == 1 else raw
    if not isinstance(coords, (list, tuple)) or len(coords) != grid.ndim:
        raise InvalidValue(path, "needs [x, y], one coordinate per axis")
    pos = tuple(_as_float(c, path) for c in coords)
    if not all(ax.origin <= x <= ax.origin + ax.n * ax.h for ax, x in zip(grid.axes, pos)):
        raise InvalidValue(path, "position outside the grid")
    return pos[0] if grid.ndim == 1 else pos


def _norm_ic_entry(raw: Optional[Mapping], path: str, grid: Grid) -> dict:
    raw = {} if raw is None else _mapping(raw, path)
    kind = _check_enum(str(raw.get("type", "zeros")), IC_KINDS, f"{path}.type")
    _reject_unknown(raw, {"type"} | _IC_KEYS[kind], path)
    out: dict = {"type": kind}
    if kind == "constant":
        out["value"] = _as_float(_need(raw, "value", path), f"{path}.value")
    elif kind == "gaussian":
        out["amplitude"] = _as_float(_need(raw, "amplitude", path), f"{path}.amplitude")
        out["center"] = _per_axis(_need(raw, "center", path), grid, f"{path}.center")
        out["width"] = _per_axis(_need(raw, "width", path), grid, f"{path}.width")
        if np.min(np.asarray(out["width"], dtype=float)) <= 0:
            raise InvalidValue(f"{path}.width", "must be > 0")
    elif kind == "sine":
        out["amplitude"] = _as_float(_need(raw, "amplitude", path), f"{path}.amplitude")
        out["mode"] = _as_int(raw.get("mode", 1), f"{path}.mode")
        if out["mode"] < 1:
            raise InvalidValue(f"{path}.mode", "must be >= 1")
    elif kind == "step":
        out["left"] = _as_float(_need(raw, "left", path), f"{path}.left")
        out["right"] = _as_float(_need(raw, "right", path), f"{path}.right")
        out["at"] = _as_float(_need(raw, "at", path), f"{path}.at")
    elif kind == "tabulated":
        values = _need(raw, "values", path)
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise InvalidValue(f"{path}.values", "expected an array of numbers")
        if arr.shape != grid.shape:
            raise ShapeMismatch(path, grid.shape, arr.shape)
        if not np.isfinite(arr).all():
            raise InvalidValue(f"{path}.values", "must be finite")
        out["values"] = arr.tolist()
    return out


def _norm_wall(raw: Optional[Mapping], path: str, kinds: tuple) -> dict:
    """One wall spec, a U wall (kinds U_BC_KINDS) or a damage wall
    (GAMMA_BC_KINDS); a missing spec or type is the first kind."""
    raw = {} if raw is None else _mapping(raw, path)
    kind = _check_enum(str(raw.get("type", kinds[0])), kinds, f"{path}.type")
    _reject_unknown(raw, {"type"} | _WALL_KEYS[kind], path)
    out: dict = {"type": kind}
    if kind in ("fixed", "velocity", "dirichlet"):
        out["value"] = _as_float(raw.get("value", 0.0), f"{path}.value")
    elif kind == "traction":
        out["value"] = _as_float(_need(raw, "value", path), f"{path}.value")
        until = raw.get("until")
        if until is not None:
            out["until"] = _as_float(until, f"{path}.until")
            if out["until"] <= 0:
                raise InvalidValue(f"{path}.until", "must be > 0")
        out["ramp"] = _as_float(raw.get("ramp", 0.0), f"{path}.ramp")
        if out["ramp"] < 0:
            raise InvalidValue(f"{path}.ramp", "must be >= 0")
    return out


def build_scenario(doc: Union[str, Mapping]) -> ScenarioConfig:
    """Parse and validate a scenario document (YAML text or a mapping).

    Fills every default so the result is canonical: emitting it with
    scenario_to_yaml and parsing again reproduces an equal ScenarioConfig.

    Raises MissingKey / InvalidValue / ShapeMismatch / ConfigConflict.
    """
    if isinstance(doc, str):
        try:
            raw = yaml.safe_load(doc)
        except yaml.YAMLError as exc:
            raise InvalidValue("document", f"not parseable YAML: {exc}")
    else:
        raw = doc
    if not isinstance(raw, Mapping):
        raise InvalidValue("document", "top level must be a mapping")
    _reject_unknown(raw, {"name", "grid", "material", "time", "ic", "bc",
                          "body_force", "gauges", "output", "numerics"}, "")

    grid = _parse_grid(_need(raw, "grid", ""))
    material = MaterialParams(**_parse_section(_need(raw, "material", ""), _MATERIAL, "material"))
    time_sec = _parse_section(_need(raw, "time", ""), _TIME, "time")
    dt, t_end = time_sec["dt"], time_sec["t_end"]
    if dt <= 0:
        raise InvalidValue("time.dt", "must be > 0")
    if t_end < dt:
        raise InvalidValue("time.t_end", "must be >= dt")

    ic_raw = raw.get("ic", {}) or {}
    _reject_unknown(ic_raw, _IC_FIELDS, "ic")
    ic = {f: _norm_ic_entry(ic_raw.get(f), f"ic.{f}", grid) for f in _IC_FIELDS}

    bc_raw = raw.get("bc", {}) or {}
    _reject_unknown(bc_raw, _WALLS, "bc")
    bc = {side: _norm_wall(bc_raw.get(side), f"bc.{side}", kinds) for side, kinds in _WALLS.items()}
    kinds = {wall["type"] for wall in bc.values()}
    if "periodic" in kinds and kinds != {"periodic"}:
        raise ConfigConflict("periodic boundaries must be periodic for U (both ends) and gamma")

    body_raw = raw.get("body_force", 0.0)
    if isinstance(body_raw, Mapping):
        _reject_unknown(body_raw, {"value"}, "body_force")
        body_force = _as_float(body_raw.get("value", 0.0), "body_force.value")
    else:
        body_force = _as_float(body_raw or 0.0, "body_force")

    gauges = tuple(_parse_gauge(g, grid, f"gauges[{i}]")
                   for i, g in enumerate(raw.get("gauges") or []))

    output = _parse_section(raw.get("output") or {}, _OUTPUT, "output")
    if output["snapshots"] < 2:
        raise InvalidValue("output.snapshots", "need at least first+last, so >= 2")

    numerics = _parse_section(raw.get("numerics") or {}, _NUMERICS, "numerics")
    if numerics["tol_admissibility"] < 0:
        raise InvalidValue("numerics.tol_admissibility", "must be >= 0")
    if numerics["source_max_iter"] < 1:
        raise InvalidValue("numerics.source_max_iter", "must be >= 1")

    return ScenarioConfig(
        name=str(raw.get("name", "scenario")),
        grid=grid,
        material=material,
        dt=dt,
        t_end=t_end,
        ic=ic,
        bc=bc,
        body_force=body_force,
        gauges=gauges,
        output=output,
        numerics=numerics,
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical plain-dict form of a config (for emission and hashing)."""
    g = cfg.grid
    grid = {key: value for keys, axis in zip(_axis_keys(g.ndim), zip(g.n, g.h, g.origin))
            for key, value in zip(keys, axis)}
    return {
        "name": cfg.name,
        "grid": grid,
        "material": _emit(cfg.material, _MATERIAL),
        "time": _emit(cfg, _TIME),
        "ic": cfg.ic,
        "bc": cfg.bc,
        "body_force": cfg.body_force,
        "gauges": [list(g) if isinstance(g, (list, tuple)) else g for g in cfg.gauges],
        "output": cfg.output,
        "numerics": cfg.numerics,
    }


def scenario_to_yaml(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(scenario_to_dict(cfg), sort_keys=True)


def config_hash(cfg: ScenarioConfig) -> str:
    """Content digest of the canonicalized config (stable across reruns)."""
    blob = json.dumps(scenario_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def refine(doc: Union[str, Mapping], k: int) -> dict:
    """The canonical dict of a scenario document with dt and each grid axis's
    cell width divided by 2**k and its cell count multiplied by 2**k; k < 0
    coarsens. Raises InvalidValue for an axis whose cell count 2**-k does
    not divide, and for tabulated initial data at k != 0."""
    cfg = build_scenario(doc)
    out = scenario_to_dict(cfg)
    for field, entry in out["ic"].items():
        if k and entry["type"] == "tabulated":
            raise InvalidValue(f"ic.{field}", "refinement cannot resample tabulated initial data")
    grid = out["grid"]
    for n, h, _ in AXIS_KEYS[:cfg.grid.ndim]:
        cells = grid[n] * 2**k
        if cells % 1:
            raise InvalidValue(f"grid.{n}", f"{grid[n]} cells do not coarsen by {2**-k}")
        grid[n], grid[h] = int(cells), grid[h] / 2**k
    out["time"]["dt"] /= 2**k
    return out


def _sample(entry: dict, grid: Grid) -> np.ndarray:
    """Initial data at the cell centers. A gaussian's center and width hold
    one value per grid axis; sine and step profiles vary along x."""
    kind = entry["type"]
    axes = grid.axes
    coords = np.meshgrid(*(ax.centers() for ax in axes))  # x first, each shaped like a field
    if kind == "zeros":
        return np.zeros(grid.shape)
    if kind == "constant":
        return np.full(grid.shape, entry["value"], dtype=float)
    if kind == "gaussian":
        spread = zip(coords, np.atleast_1d(entry["center"]), np.atleast_1d(entry["width"]))
        return entry["amplitude"] * np.exp(-0.5 * sum(((c - m) / w) ** 2 for c, m, w in spread))
    if kind == "sine":
        return entry["amplitude"] * np.sin(
            entry["mode"] * np.pi * (coords[0] - axes[0].origin) / (axes[0].n * axes[0].h)
        )
    if kind == "step":
        return np.where(coords[0] < entry["at"], entry["left"], entry["right"]).astype(float)
    if kind == "tabulated":
        arr = np.asarray(entry["values"], dtype=float)
        if arr.shape != grid.shape:
            raise ShapeMismatch("tabulated ic", grid.shape, arr.shape)
        return arr.copy()
    raise InvalidValue("ic.type", f"unhandled initial-condition type {kind!r}")


def initialize_state(cfg: ScenarioConfig) -> FieldState:
    """Sample initial data at cell centers and set the activation mask.

    A cell starts active when it is pre-damaged (gamma > 0) or the initial
    stress magnitude already meets the threshold (|S| >= sigma0; with the
    default sigma0 = 0 every cell is active from the start). Deterministic:
    identical cfg gives a bitwise-identical state.
    """
    from .constitutive import stress
    from .ops import strain_cells

    U = _sample(cfg.ic["U"], cfg.grid)
    v = _sample(cfg.ic["v"], cfg.grid)
    gamma = _sample(cfg.ic["gamma"], cfg.grid)
    uX = strain_cells(U, cfg.grid, cfg.bc, 0.0)
    S0 = stress(uX, gamma, cfg.material)
    active = (gamma > 0.0) | (np.abs(S0) >= cfg.material.sigma0)
    return FieldState(time=0.0, U=U, v=v, gamma=gamma, active=active)
