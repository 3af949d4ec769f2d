"""Grids, material parameters, field state, and scenario configuration.

Every other module consumes these types. Configs are plain YAML mappings;
build_scenario validates and normalizes them into a ScenarioConfig whose
canonical dict form round-trips bitwise (same defaults filled in, same
key order when emitted).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
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
    across: float  # cell measure across it: 1 in 1D, the other width in 2D
    view: Callable
    n: int  # cells along the axis
    origin: float  # coordinate of its first face

    def centers(self) -> np.ndarray:
        return self.origin + (np.arange(self.n) + 0.5) * self.h


def _unchanged(a):
    return a


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered 1D grid in material coordinates.

    nx cells of width dx (m); cell i is centered at origin + (i + 1/2)*dx.
    """

    nx: int
    dx: float
    origin: float = 0.0

    @property
    def ndim(self) -> int:
        return 1

    @property
    def shape(self) -> tuple:
        return (self.nx,)

    @property
    def length(self) -> float:
        return self.nx * self.dx

    @property
    def cell_volume(self) -> float:
        # per unit cross-section area (m)
        return self.dx

    @cached_property
    def axes(self) -> tuple:
        return (Axis(self.dx, 1.0, _unchanged, self.nx, self.origin),)

    def cell_centers(self) -> np.ndarray:
        return self.axes[0].centers()

    def faces(self) -> np.ndarray:
        return self.origin + np.arange(self.nx + 1) * self.dx


@dataclass(frozen=True)
class Grid2D:
    """Uniform cell-centered 2D grid; x is the loading direction, y transverse.

    Field arrays are shaped (ny, nx). Cell (j, i) is centered at
    (origin_x + (i + 1/2)*dx, origin_y + (j + 1/2)*dy).
    """

    nx: int
    ny: int
    dx: float
    dy: float
    origin_x: float = 0.0
    origin_y: float = 0.0

    @property
    def ndim(self) -> int:
        return 2

    @property
    def shape(self) -> tuple:
        return (self.ny, self.nx)

    @property
    def length(self) -> float:
        return self.nx * self.dx

    @property
    def width(self) -> float:
        return self.ny * self.dy

    @property
    def cell_volume(self) -> float:
        # per unit depth (m^2)
        return self.dx * self.dy

    @cached_property
    def axes(self) -> tuple:
        return (
            Axis(self.dx, self.dy, _unchanged, self.nx, self.origin_x),
            Axis(self.dy, self.dx, np.transpose, self.ny, self.origin_y),
        )

    def cell_centers_x(self) -> np.ndarray:
        return self.axes[0].centers()

    def cell_centers_y(self) -> np.ndarray:
        return self.axes[1].centers()


Grid = Union[Grid1D, Grid2D]


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


def _parse_grid(raw: Mapping) -> Grid:
    nx = _as_int(_need(raw, "nx", "grid"), "grid.nx")
    dx = _as_float(_need(raw, "dx", "grid"), "grid.dx")
    if dx <= 0:
        raise InvalidValue("grid.dx", "must be > 0")
    two_d = raw.get("ny") is not None
    _reject_unknown(raw, _GRID_KEYS[two_d], "grid")
    if two_d:
        ny = _as_int(raw["ny"], "grid.ny")
        dy = _as_float(_need(raw, "dy", "grid"), "grid.dy")
        if dy <= 0:
            raise InvalidValue("grid.dy", "must be > 0")
        if nx < 3 or ny < 3:
            raise InvalidValue("grid.nx/ny", "need at least 3 cells per direction")
        return Grid2D(
            nx=nx,
            ny=ny,
            dx=dx,
            dy=dy,
            origin_x=_as_float(raw.get("origin_x", 0.0), "grid.origin_x"),
            origin_y=_as_float(raw.get("origin_y", 0.0), "grid.origin_y"),
        )
    if nx < 3:
        raise InvalidValue("grid.nx", "need at least 3 cells")
    return Grid1D(nx=nx, dx=dx, origin=_as_float(raw.get("origin", 0.0), "grid.origin"))


_MATERIAL_KEYS = {"rho0", "c1", "c2", "c3", "theta0", "lambda", "d1", "d2", "b", "sigma0", "source"}
_SOURCE_KEYS = {"law", "rate", "gamma_max"}
_NUMERICS_KEYS = {"tol_admissibility", "source_tol", "source_max_iter"}
_GRID_KEYS = ({"nx", "dx", "origin", "ny"}, {"nx", "ny", "dx", "dy", "origin_x", "origin_y"})
# the keys each initial-condition and boundary type reads, besides "type"
_IC_KEYS = {"zeros": set(), "constant": {"value"}, "gaussian": {"amplitude", "center", "width"},
            "sine": {"amplitude", "mode"}, "step": {"left", "right", "at"}, "tabulated": {"values"}}
_WALL_KEYS = {"fixed": {"value"}, "velocity": {"value"}, "traction": {"value", "until", "ramp"},
              "free": set(), "periodic": set(), "zero_flux": set(), "dirichlet": {"value"}}


def _mapping(raw: Any, path: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise InvalidValue(path, "must be a mapping")
    return raw


def _reject_unknown(raw: Any, known: set, path: str) -> None:
    # mistyped or retired keys must not silently fall back to defaults
    for key in _mapping(raw, path):
        if key not in known:
            raise InvalidValue(f"{path}.{key}", "unknown key")


def _parse_material(raw: Mapping) -> MaterialParams:
    _reject_unknown(raw, _MATERIAL_KEYS, "material")
    rho0 = _as_float(_need(raw, "rho0", "material"), "material.rho0")
    c1 = _as_float(_need(raw, "c1", "material"), "material.c1")
    lam = _as_float(raw.get("lambda", 1.0), "material.lambda")
    source = raw.get("source", {}) or {}
    _reject_unknown(source, _SOURCE_KEYS, "material.source")
    law = _check_enum(str(source.get("law", "linear_decay")), SOURCE_LAWS, "material.source.law")
    rate = _as_float(source.get("rate", 0.0), "material.source.rate")
    gamma_max = _as_float(source.get("gamma_max", 1.0), "material.source.gamma_max")
    p = MaterialParams(
        rho0=rho0,
        c1=c1,
        theta0=_as_float(raw.get("theta0", 300.0), "material.theta0"),
        c2=_as_float(raw.get("c2", 0.0), "material.c2"),
        c3=_as_float(raw.get("c3", 0.0), "material.c3"),
        lam=lam,
        d1=_as_float(raw.get("d1", 0.0), "material.d1"),
        d2=_as_float(raw.get("d2", raw.get("d1", 0.0)), "material.d2"),
        b=_as_float(raw.get("b", 0.0), "material.b"),
        sigma0=_as_float(raw.get("sigma0", 0.0), "material.sigma0"),
        source_law=law,
        source_rate=rate,
        gamma_max=gamma_max,
    )
    if p.rho0 <= 0:
        raise InvalidValue("material.rho0", "must be > 0")
    if p.theta0 <= 0:
        raise InvalidValue("material.theta0", "must be > 0")
    if p.c1 <= 0:
        raise InvalidValue("material.c1", "must be > 0")
    if p.lam < 0:
        raise InvalidValue("material.lambda", "must be >= 0")
    if p.d1 < 0 or p.d2 < 0:
        raise InvalidValue("material.d1/d2", "diffusivities must be >= 0")
    if p.c2 < 0:
        raise InvalidValue("material.c2", "must be >= 0")
    if p.sigma0 < 0:
        raise InvalidValue("material.sigma0", "must be >= 0")
    if p.source_law == "logistic":
        if p.source_rate <= 0:
            raise InvalidValue("material.source.rate", "logistic source needs rate > 0")
        if p.gamma_max <= 0:
            raise InvalidValue("material.source.gamma_max", "must be > 0")
        if p.b != 0.0:
            raise ConfigConflict(
                "b != 0 couples the strain into a linear_decay source (-b*uX - c2*gamma); "
                "a logistic source needs b = 0"
            )
    return p


def _norm_ic_entry(raw: Optional[Mapping], path: str, grid: Grid) -> dict:
    raw = {} if raw is None else _mapping(raw, path)
    kind = _check_enum(str(raw.get("type", "zeros")), IC_KINDS, f"{path}.type")
    _reject_unknown(raw, {"type"} | _IC_KEYS[kind], path)
    out: dict = {"type": kind}
    if kind == "constant":
        out["value"] = _as_float(_need(raw, "value", path), f"{path}.value")
    elif kind == "gaussian":
        out["amplitude"] = _as_float(_need(raw, "amplitude", path), f"{path}.amplitude")
        center = _need(raw, "center", path)
        width = _need(raw, "width", path)
        if grid.ndim == 1:
            out["center"] = _as_float(center, f"{path}.center")
            out["width"] = _as_float(width, f"{path}.width")
        else:
            cx, cy = (center if isinstance(center, (list, tuple)) else (center, center))
            wx, wy = (width if isinstance(width, (list, tuple)) else (width, width))
            out["center"] = [_as_float(cx, f"{path}.center"), _as_float(cy, f"{path}.center")]
            out["width"] = [_as_float(wx, f"{path}.width"), _as_float(wy, f"{path}.width")]
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
    known = {"name", "grid", "material", "time", "ic", "bc",
             "body_force", "gauges", "output", "numerics"}
    for key in raw:
        if key not in known:
            raise InvalidValue(str(key), "unknown top-level key")

    grid = _parse_grid(_need(raw, "grid", ""))
    material = _parse_material(_need(raw, "material", ""))
    time_sec = _need(raw, "time", "")
    dt = _as_float(_need(time_sec, "dt", "time"), "time.dt")
    t_end = _as_float(_need(time_sec, "t_end", "time"), "time.t_end")
    _reject_unknown(time_sec, {"dt", "t_end"}, "time")
    if dt <= 0:
        raise InvalidValue("time.dt", "must be > 0")
    if t_end < dt:
        raise InvalidValue("time.t_end", "must be >= dt")

    ic_raw = raw.get("ic", {}) or {}
    _reject_unknown(ic_raw, {"U", "v", "gamma"}, "ic")
    ic = {
        "U": _norm_ic_entry(ic_raw.get("U"), "ic.U", grid),
        "v": _norm_ic_entry(ic_raw.get("v"), "ic.v", grid),
        "gamma": _norm_ic_entry(ic_raw.get("gamma"), "ic.gamma", grid),
    }

    bc_raw = raw.get("bc", {}) or {}
    _reject_unknown(bc_raw, {"u_left", "u_right", "gamma"}, "bc")
    bc = {
        "u_left": _norm_wall(bc_raw.get("u_left"), "bc.u_left", U_BC_KINDS),
        "u_right": _norm_wall(bc_raw.get("u_right"), "bc.u_right", U_BC_KINDS),
        "gamma": _norm_wall(bc_raw.get("gamma"), "bc.gamma", GAMMA_BC_KINDS),
    }
    kinds = (bc["u_left"]["type"], bc["u_right"]["type"], bc["gamma"]["type"])
    if "periodic" in kinds and set(kinds) != {"periodic"}:
        raise ConfigConflict("periodic boundaries must be periodic for U (both ends) and gamma")

    body_raw = raw.get("body_force", 0.0)
    if isinstance(body_raw, Mapping):
        _reject_unknown(body_raw, {"value"}, "body_force")
        body_force = _as_float(body_raw.get("value", 0.0), "body_force.value")
    else:
        body_force = _as_float(body_raw or 0.0, "body_force")

    gauges_raw = raw.get("gauges", []) or []
    gauges = []
    for i, g in enumerate(gauges_raw):
        if grid.ndim == 1:
            x = _as_float(g, f"gauges[{i}]")
            if not (grid.origin <= x <= grid.origin + grid.length):
                raise InvalidValue(f"gauges[{i}]", "position outside the grid")
            gauges.append(x)
        else:
            if not isinstance(g, (list, tuple)) or len(g) != 2:
                raise InvalidValue(f"gauges[{i}]", "2D gauge needs [x, y]")
            x = _as_float(g[0], f"gauges[{i}].x")
            y = _as_float(g[1], f"gauges[{i}].y")
            if not (grid.origin_x <= x <= grid.origin_x + grid.length):
                raise InvalidValue(f"gauges[{i}]", "x outside the grid")
            if not (grid.origin_y <= y <= grid.origin_y + grid.width):
                raise InvalidValue(f"gauges[{i}]", "y outside the grid")
            gauges.append((x, y))

    out_raw = raw.get("output", {}) or {}
    _reject_unknown(out_raw, {"snapshots"}, "output")
    snapshots = _as_int(out_raw.get("snapshots", 11), "output.snapshots")
    if snapshots < 2:
        raise InvalidValue("output.snapshots", "need at least first+last, so >= 2")
    output = {"snapshots": snapshots}

    num_raw = raw.get("numerics", {}) or {}
    _reject_unknown(num_raw, _NUMERICS_KEYS, "numerics")
    numerics = {
        "tol_admissibility": _as_float(
            num_raw.get("tol_admissibility", 1e-12), "numerics.tol_admissibility"
        ),
        "source_tol": _as_float(num_raw.get("source_tol", 1e-14), "numerics.source_tol"),
        "source_max_iter": _as_int(num_raw.get("source_max_iter", 30), "numerics.source_max_iter"),
    }
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
        gauges=tuple(gauges),
        output=output,
        numerics=numerics,
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical plain-dict form of a config (for emission and hashing)."""
    g = cfg.grid
    if g.ndim == 1:
        grid = {"nx": g.nx, "dx": g.dx, "origin": g.origin}
    else:
        grid = {
            "nx": g.nx,
            "ny": g.ny,
            "dx": g.dx,
            "dy": g.dy,
            "origin_x": g.origin_x,
            "origin_y": g.origin_y,
        }
    p = cfg.material
    material = {
        "rho0": p.rho0,
        "theta0": p.theta0,
        "c1": p.c1,
        "c2": p.c2,
        "c3": p.c3,
        "lambda": p.lam,
        "d1": p.d1,
        "d2": p.d2,
        "b": p.b,
        "sigma0": p.sigma0,
        "source": {
            "law": p.source_law,
            "rate": p.source_rate,
            "gamma_max": p.gamma_max,
        },
    }
    return {
        "name": cfg.name,
        "grid": grid,
        "material": material,
        "time": {"dt": cfg.dt, "t_end": cfg.t_end},
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
            entry["mode"] * np.pi * (coords[0] - axes[0].origin) / grid.length
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
