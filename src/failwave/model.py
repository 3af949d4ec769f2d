"""Grids, material parameters, field state, and scenario configuration.

Every other module consumes these types. A Grid is its axes, x first, so
no code path depends on the dimension. Configs are plain YAML mappings;
build_scenario validates and normalizes them into a ScenarioConfig whose
canonical dict form round-trips bitwise (same defaults filled in, same key
order when emitted). Each config key's type, default and range is one
entry of a key table, one table per config section and per initial-condition
or wall kind, and one parser reads them all, rejects unknown keys and emits;
the material rules live in MaterialParams and the source laws in SOURCE_LAWS.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import methodcaller
from typing import Any, Callable, Mapping, NamedTuple, Optional, Union

import numpy as np
import yaml

from .errors import ConfigConflict, InvalidValue, MissingKey, ShapeMismatch


class SourceLaw(NamedTuple):
    """A damage source law: one row of SOURCE_LAWS."""

    potential: Callable  # W(gamma, p), the damage potential in the free energy
    force: Callable  # -W'(gamma, p)
    # -W''(gamma, p), the force's slope, with which each damage step linearises
    # the source; a number when it does not read gamma
    slope: Callable
    saturation: Optional[Callable]  # the level(p) the damage saturates at, or None


SOURCE_LAWS = {
    "linear_decay": SourceLaw(lambda g, p: 0.5 * p.c2 * g**2, lambda g, p: -p.c2 * g,
                              lambda g, p: -p.c2, None),
    "logistic": SourceLaw(  # g * g * g spelled out: ** dispatches to pow
        lambda g, p: -(p.source_rate * p.lam) * (0.5 * g**2 - g * g * g / (3.0 * p.gamma_max)),
        lambda g, p: p.source_rate * p.lam * g * (1.0 - g / p.gamma_max),
        lambda g, p: p.source_rate * p.lam * (1.0 - 2.0 * g / p.gamma_max), lambda p: p.gamma_max),
}


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
    source_law  : a key of SOURCE_LAWS, the source law's row
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
        _check_enum(self.source_law, tuple(SOURCE_LAWS), "material.source.law")
        logistic = self.source_law == "logistic"
        rules = (  # written so that NaN fails them
            ("rho0", self.rho0 > 0, "must be > 0"),
            ("theta0", self.theta0 > 0, "must be > 0"),
            ("c1", self.c1 > 0, "must be > 0"),
            ("lambda", self.lam >= 0, "must be >= 0"),
            ("d1/d2", self.d1 >= 0 and self.d2 >= 0, "diffusivities must be >= 0"),
            ("lambda", self.lam * max(self.d1, self.d2) < math.inf, "lambda*d1, lambda*d2 overflow"),
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

    @property
    def saturation(self) -> Optional[float]:  # the source law's saturation level, or None
        level = SOURCE_LAWS[self.source_law].saturation
        return level and level(self)


@dataclass
class FieldState:
    """Simulation state on the grid at one instant.

    U, v, gamma are cell-centered arrays shaped like the grid; active marks
    cells where damage evolution is enabled (threshold reached, or seeded).
    Single-writer contract: one run owns these arrays, advances U, v and
    gamma in place and replaces active when a cell switches on; snapshots
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
    # 16.0 is 16 cells; 16.7 is no count at all, not 16
    try:
        out = int(value)
        whole = out == float(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidValue(path, f"expected an integer, got {value!r}")
    return out


def _check_enum(value: str, allowed: tuple, path: str) -> str:
    if value not in allowed:
        raise InvalidValue(path, f"must be one of {allowed}, got {value!r}")
    return value


def _per_axis(value: Any, path: str, grid: Grid):
    """A number per grid axis: a bare number in 1D, in 2D a list of one per
    axis or one number for all."""
    if grid.ndim == 1:
        return _as_float(value, path)
    values = value if isinstance(value, (list, tuple)) else [value] * grid.ndim
    if len(values) != grid.ndim:
        raise InvalidValue(path, f"needs {grid.ndim} values, one per axis")
    return [_as_float(v, path) for v in values]


def _field(value: Any, path: str, grid: Grid) -> list:
    """A tabulated field: finite numbers shaped like the grid. A wrong shape
    names the initial condition, not its values key."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidValue(path, "expected an array of numbers")
    if arr.shape != grid.shape:
        raise ShapeMismatch(path.rpartition(".")[0], grid.shape, arr.shape)
    if not np.isfinite(arr).all():
        raise InvalidValue(path, "must be finite")
    return arr.tolist()


# One table per config section and per initial-condition or wall kind,
# config key -> (field, default, type[, rule]), drives parsing, unknown-key
# rejection and canonical emission. A None default marks a required key,
# _OMIT an optional one left out of the canonical dict when absent or null,
# and a callable one reads the fields parsed before it. A table as the type
# is a nested section whose fields join its parent's; "axes" (a number per
# grid axis) and "field" (a tabulated field) are types bound to the grid. A
# rule (test(value, fields), reason) holds right after the value converts.
MAX_DIFFUSION_NUMBER = (2.0 * math.ulp(1.0)) ** -0.5  # 4.7e7; see build_scenario
_OMIT = object()
_POSITIVE = (lambda value, _: np.min(value) > 0, "must be > 0")  # on every axis
_NONNEGATIVE = (lambda value, _: value >= 0, "must be >= 0")
_SQUARE = (lambda h, _: 0.0 < h * h < math.inf, "its square under- or overflows")  # h**2 divides
_AT_LEAST_ONE = (lambda value, _: value >= 1, "must be >= 1")
_CONVERT = {float: _as_float, int: _as_int, str: lambda value, path: str(value)}

# The (cells, width, origin) keys of each grid axis, x first; a 1D grid's
# origin key is the bare "origin".
AXIS_KEYS = (("nx", "dx", "origin_x"), ("ny", "dy", "origin_y"))


def _axis_keys(ndim: int) -> tuple:
    return (("nx", "dx", "origin"),) if ndim == 1 else AXIS_KEYS[:ndim]


_AXIS = ((None, int, (lambda n, _: n >= 3, "need at least 3 cells")), (None, float, _POSITIVE, _SQUARE),
         (0.0, float))  # the (cells, width, origin) entries of an axis, less the key
_GRID = {ndim: {key: (key, *entry) for keys in _axis_keys(ndim) for key, entry in zip(keys, _AXIS)}
         for ndim in (1, 2)}
_GRID[1]["ny"] = ("ny", _OMIT, int)  # a null ny is a 1D grid
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
    "tol_admissibility": ("tol_admissibility", 1e-12, float, _NONNEGATIVE),
    "source_tol": ("source_tol", 1e-14, float),
    "source_max_iter": ("source_max_iter", 30, int, _AT_LEAST_ONE),
}
_TIME = {
    "dt": ("dt", None, float, _POSITIVE),
    "t_end": ("t_end", None, float, (lambda t_end, fields: t_end >= fields["dt"], "must be >= dt")),
}
_OUTPUT = {
    "snapshots": ("snapshots", 11, int, (lambda n, _: n >= 2, "need at least first+last, so >= 2")),
}
# Each initial-condition and wall kind's keys besides "type"; a missing
# entry or type is its table's first kind.
_IC = {
    "zeros": {},
    "constant": {"value": ("value", None, float)},
    "gaussian": {"amplitude": ("amplitude", None, float), "center": ("center", None, "axes"),
                 "width": ("width", None, "axes", _POSITIVE)},
    "sine": {"amplitude": ("amplitude", None, float), "mode": ("mode", 1, int, _AT_LEAST_ONE)},
    "step": {"left": ("left", None, float), "right": ("right", None, float), "at": ("at", None, float)},
    "tabulated": {"values": ("values", None, "field")},
}
_VALUE = {"value": ("value", 0.0, float)}
_TRACTION = {"value": ("value", None, float), "until": ("until", _OMIT, float, _POSITIVE),
             "ramp": ("ramp", 0.0, float, _NONNEGATIVE)}
_U_WALLS = {"fixed": _VALUE, "free": {}, "traction": _TRACTION, "velocity": _VALUE, "periodic": {}}
_GAMMA_WALLS = {"zero_flux": {}, "dirichlet": _VALUE, "periodic": {}}
U_BC_KINDS, GAMMA_BC_KINDS, IC_KINDS = tuple(_U_WALLS), tuple(_GAMMA_WALLS), tuple(_IC)
_IC_FIELDS = dict.fromkeys(("U", "v", "gamma"), _IC)
_WALLS = {"u_left": _U_WALLS, "u_right": _U_WALLS, "gamma": _GAMMA_WALLS}


def _mapping(raw: Any, path: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise InvalidValue(path, "must be a mapping")
    return raw


def _reject_unknown(raw: Any, known, path: str) -> None:
    # mistyped or retired keys must not silently fall back to defaults
    for key in _mapping(raw, path):
        if key not in known:
            raise InvalidValue(f"{path}.{key}" if path else str(key), "unknown key")


def _parse_section(raw: Any, table: dict, path: str, convert: dict = _CONVERT) -> dict:
    """The fields of one config section by its table, defaults filled in."""
    _reject_unknown(raw, table, path)
    fields: dict = {}
    for key, (name, default, kind, *rules) in table.items():
        where = f"{path}.{key}"
        if isinstance(kind, dict):
            fields.update(_parse_section(raw.get(key) or default, kind, where, convert))
            continue
        if default is _OMIT and raw.get(key) is None:
            continue
        if default is None:
            value = _need(raw, key, path)
        else:
            value = raw.get(key, default(fields) if callable(default) else default)
        fields[name] = value = convert[kind](value, where)
        for test, reason in rules:
            if not test(value, fields):
                raise InvalidValue(where, reason)
    return fields


def _parse_kinds(raw: Any, slots: dict, path: str, convert: dict = _CONVERT) -> dict:
    """A section of typed entries (the initial fields, the walls), each slot
    with its kind tables: the entry's type picks the table of its keys."""
    raw = raw or {}
    _reject_unknown(raw, slots, path)
    out = {}
    for slot, kinds in slots.items():
        where = f"{path}.{slot}"
        entry = {} if raw.get(slot) is None else _mapping(raw[slot], where)
        kind = _check_enum(str(entry.get("type", next(iter(kinds)))), tuple(kinds), f"{where}.type")
        rest = {key: value for key, value in entry.items() if key != "type"}
        out[slot] = {"type": kind, **_parse_section(rest, kinds[kind], where, convert)}
    return out


def _emit(obj: Any, table: dict) -> dict:
    """The canonical dict of obj's fields under a section table."""
    return {key: _emit(obj, kind) if isinstance(kind, dict) else getattr(obj, name)
            for key, (name, _, kind, *_) in table.items()}


def _parse_grid(raw: Any) -> Grid:
    ndim = 2 if isinstance(raw, Mapping) and raw.get("ny") is not None else 1
    fields = _parse_section(raw, _GRID[ndim], "grid")
    return Grid(*zip(*([fields[key] for key in keys] for keys in _axis_keys(ndim))))


def _parse_gauge(raw: Any, grid: Grid, path: str):
    """A gauge position inside the grid: a bare x in 1D, [x, y] in 2D."""
    coords = [raw] if grid.ndim == 1 else raw
    if not isinstance(coords, (list, tuple)) or len(coords) != grid.ndim:
        raise InvalidValue(path, "needs [x, y], one coordinate per axis")
    pos = tuple(_as_float(c, path) for c in coords)
    if not all(ax.origin <= x <= ax.origin + ax.n * ax.h for ax, x in zip(grid.axes, pos)):
        raise InvalidValue(path, "position outside the grid")
    return pos[0] if grid.ndim == 1 else pos


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
    # the damage operator divides each axis's diffusivity and conductance lam*d by h**2
    for ax, (_, key, _), d in zip(grid.axes, _axis_keys(grid.ndim), (material.d1, material.d2)):
        if not max(d, material.lam * d) / ax.h**2 < math.inf:
            raise InvalidValue(f"grid.{key}", "the diffusivity over its square overflows")
    time_sec = _parse_section(_need(raw, "time", ""), _TIME, "time")
    mass = 2.0 * grid.dx * material.rho0  # the elastic half kick is dt over it
    if not (mass > 0.0 and time_sec["dt"] / mass < math.inf):
        raise InvalidValue("material.rho0", "the elastic half kick dt/(2*dx*rho0) overflows")
    a = material.lam / time_sec["dt"]  # the damage operator's diagonal holds lam/dt
    if not a < math.inf:
        raise InvalidValue("material.lambda", "lambda/dt overflows")
    # plus each axis's lam*d/h**2 (3/2 of it beside a dirichlet wall), and a
    # periodic wrap's Sherman-Morrison update doubles that sum. Past
    # MAX_DIFFUSION_NUMBER the factor's roundoff reaches the audit (README)
    for ax, (_, key, _), d in zip(grid.axes, _axis_keys(grid.ndim), (material.d1, material.d2)):
        if not 2.0 * (a + material.lam * d / ax.h**2) < math.inf:
            raise InvalidValue(f"grid.{key}", "the damage operator's diagonal overflows")
        if material.lam and not d * time_sec["dt"] / ax.h**2 <= MAX_DIFFUSION_NUMBER:
            raise InvalidValue(f"grid.{key}", "the diffusion number d*dt/h**2 exceeds 1/sqrt(2*eps)")
    on_grid = {**_CONVERT, "axes": partial(_per_axis, grid=grid), "field": partial(_field, grid=grid)}
    ic = _parse_kinds(raw.get("ic"), _IC_FIELDS, "ic", on_grid)
    bc = _parse_kinds(raw.get("bc"), _WALLS, "bc")
    kinds = {wall["type"] for wall in bc.values()}
    if "periodic" in kinds and kinds != {"periodic"}:
        raise ConfigConflict("periodic boundaries must be periodic for U (both ends) and gamma")
    gauges = raw.get("gauges") or []
    if not isinstance(gauges, (list, tuple)):
        raise InvalidValue("gauges", "must be a list of positions")

    return ScenarioConfig(
        name=str(raw.get("name", "scenario")), grid=grid, material=material, **time_sec, ic=ic, bc=bc,
        body_force=_as_float(raw.get("body_force") or 0.0, "body_force"),  # null is 0
        gauges=tuple(_parse_gauge(g, grid, f"gauges[{i}]") for i, g in enumerate(gauges)),
        output=_parse_section(raw.get("output") or {}, _OUTPUT, "output"),
        numerics=_parse_section(raw.get("numerics") or {}, _NUMERICS, "numerics"),
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
        # offsets clipped at 40 widths, where exp(-z**2/2) is 0: no square overflows
        spread = zip(coords, np.atleast_1d(entry["center"]), np.atleast_1d(entry["width"]).tolist())
        z2 = sum((np.clip(c - m, -40.0 * w, 40.0 * w) / w) ** 2 for c, m, w in spread)
        return entry["amplitude"] * np.exp(-0.5 * z2)
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
