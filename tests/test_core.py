"""Grid geometry, config parsing/validation, initial sampling, activation."""

import importlib.util
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import failwave as fw
from failwave.errors import (
    ConfigConflict,
    InvalidValue,
    MissingKey,
    ShapeMismatch,
)
from failwave.model import MAX_DIFFUSION_NUMBER


def minimal_doc(**over):
    doc = {
        "grid": {"nx": 16, "dx": 0.0625},
        "material": {"rho0": 1.0, "c1": 1.0},
        "time": {"dt": 0.01, "t_end": 0.1},
    }
    doc.update(over)
    return doc


# -- grids ---------------------------------------------------------------------


def test_grid1d_geometry():
    g = fw.Grid((4,), (0.25,), (0.0,))
    (ax,) = g.axes
    assert (g.ndim, g.shape, g.nx, g.dx) == (1, (4,), 4, 0.25)
    assert g.cell_volume == 0.25 and ax.n * ax.h == 1.0
    assert ax.across == 1.0 and ax.view is not None
    assert np.array_equal(ax.centers(), [0.125, 0.375, 0.625, 0.875])


def test_grid1d_origin_offset():
    g = fw.Grid((2,), (0.5,), (-0.5,))
    assert np.array_equal(g.axes[0].centers(), [-0.25, 0.25])


def test_grid2d_geometry():
    g = fw.Grid((3, 2), (0.5, 0.3), (1.0, -0.3))
    x, y = g.axes
    assert (g.ndim, g.shape, g.nx, g.dx) == (2, (2, 3), 3, 0.5)  # row-major: (ny, nx)
    assert g.cell_volume == 0.5 * 0.3
    # the measure across an axis is the other axis's width itself, not
    # cell_volume / h (0.15 / 0.3 is not 0.5 in binary)
    assert (x.across, y.across) == (0.3, 0.5)
    assert np.array_equal(x.centers(), [1.25, 1.75, 2.25])
    assert np.allclose(y.centers(), [-0.15, 0.15], rtol=0, atol=1e-16)
    field = np.arange(6.0).reshape(g.shape)
    assert np.array_equal(x.view(field), field)
    assert np.array_equal(y.view(field), field.T)  # y moved to the last array axis


# -- parsing and validation ----------------------------------------------------


def test_missing_material_key():
    doc = minimal_doc(material={"c1": 1.0})
    with pytest.raises(MissingKey) as exc:
        fw.build_scenario(doc)
    assert "material.rho0" in str(exc.value)


def test_unknown_top_level_key_rejected():
    doc = minimal_doc(outputs={"snapshots": 3})  # typo for "output"
    with pytest.raises(InvalidValue) as exc:
        fw.build_scenario(doc)
    assert "outputs" in str(exc.value)


def test_unknown_material_key_rejected():
    # flat source keys were once silently ignored; they must hard-fail
    doc = minimal_doc(material={"rho0": 1.0, "c1": 1.0, "source_law": "logistic"})
    with pytest.raises(InvalidValue) as exc:
        fw.build_scenario(doc)
    assert "source_law" in str(exc.value)


def test_unknown_numerics_key_rejected():
    # a retired key (the explicit damage scheme) must not run silently as CN
    doc = minimal_doc(numerics={"scheme": "explicit"})
    with pytest.raises(InvalidValue) as exc:
        fw.build_scenario(doc)
    assert exc.value.name == "numerics.scheme"


@pytest.mark.parametrize("over, name", [
    ({"grid": {"nx": 16, "dx": 0.0625, "origin_x": 1.0}}, "grid.origin_x"),  # a 2D key in 1D
    ({"grid": {"nx": 4, "ny": 4, "dx": 0.25, "dy": 0.25, "origin": 1.0}}, "grid.origin"),
    ({"time": {"dt": 0.01, "t_end": 0.1, "tend": 0.2}}, "time.tend"),
    ({"output": {"snapshot": 3}}, "output.snapshot"),
    ({"ic": {"Gamma": {"type": "constant", "value": 0.5}}}, "ic.Gamma"),
    ({"ic": {"gamma": {"type": "sine", "amplitude": 0.5, "width": 0.1}}}, "ic.gamma.width"),
    ({"bc": {"gama": {"type": "dirichlet"}}}, "bc.gama"),
    ({"bc": {"u_left": {"type": "free", "value": 1.0}}}, "bc.u_left.value"),
    ({"bc": {"u_right": {"type": "traction", "value": 1.0, "untill": 0.1}}}, "bc.u_right.untill"),
    ({"bc": {"gamma": {"type": "zero_flux", "value": 0.3}}}, "bc.gamma.value"),
    ({"body_force": {"value": 1.0}}, "body_force"),  # a number, not a mapping
    # a section or a wall that is not a mapping
    ({"output": 3}, "output"),
    ({"ic": 5}, "ic"),
    ({"numerics": 2}, "numerics"),
    ({"material": {"rho0": 1.0, "c1": 1.0, "source": 3}}, "material.source"),
    ({"bc": {"u_left": 3}}, "bc.u_left"),
    ({"bc": {"gamma": 1}}, "bc.gamma"),
    # retired switches and spellings: the parameters decide the model
    ({"kind": "coupled"}, "kind"),
    ({"material": {"rho0": 1.0, "c1": 1.0, "model": "feng"}}, "material.model"),
    ({"material": {"rho0": 1.0, "c1": 1.0, "lam": 1.0}}, "material.lam"),
], ids=["grid-1d", "grid-2d", "time", "output", "ic", "ic-entry", "bc", "free-wall",
        "traction-wall", "gamma-wall", "body_force", "output-scalar", "ic-scalar",
        "numerics-scalar", "source-scalar", "u-wall-scalar", "gamma-wall-scalar",
        "kind", "material-model", "material-lam"])
def test_unknown_key_rejected_in_every_section(over, name):
    # a mistyped key must not fall back to its default silently
    with pytest.raises(InvalidValue) as exc:
        fw.build_scenario(minimal_doc(**over))
    assert exc.value.name == name


def test_readme_skeleton_builds():
    # the README's scenario skeleton stays a valid scenario
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        skeleton = re.search(r"```yaml\n(.*?)```", fh.read(), re.S).group(1)
    cfg = fw.build_scenario(skeleton)
    assert cfg.name == "my_run" and cfg.numerics["tol_admissibility"] == 1e-12


def test_unknown_source_key_rejected():
    doc = minimal_doc(
        material={
            "rho0": 1.0,
            "c1": 1.0,
            "source": {"law": "logistic", "rate": 1.0, "gama_max": 2.0},
        }
    )
    with pytest.raises(InvalidValue):
        fw.build_scenario(doc)


def test_yaml_text_and_mapping_agree():
    text = """
grid: {nx: 16, dx: 0.0625}
material: {rho0: 1.0, c1: 1.0}
time: {dt: 0.01, t_end: 0.1}
"""
    assert fw.build_scenario(text) == fw.build_scenario(minimal_doc())


def test_lambda_key_maps_to_lam():
    cfg = fw.build_scenario(minimal_doc(material={"rho0": 1.0, "c1": 1.0, "lambda": 2.5}))
    assert cfg.material.lam == 2.5


def test_numerics_defaults():
    cfg = fw.build_scenario(minimal_doc())
    assert cfg.numerics == {"tol_admissibility": 1e-12, "source_tol": 1e-14,
                            "source_max_iter": 30}
    assert cfg.output["snapshots"] == 11


def test_mixed_periodic_bc_conflict():
    doc = minimal_doc(
        bc={"u_left": {"type": "periodic"}, "u_right": {"type": "fixed"},
            "gamma": {"type": "periodic"}}
    )
    with pytest.raises(ConfigConflict):
        fw.build_scenario(doc)


def test_logistic_with_nonzero_b_conflict():
    # the Gamma >= 0 clamp of the logistic law is not admissible under the
    # strain forcing -b*uX, so the two do not combine
    doc = minimal_doc(
        material={
            "rho0": 1.0, "c1": 1.0, "b": 0.5,
            "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0},
        }
    )
    with pytest.raises(ConfigConflict):
        fw.build_scenario(doc)


_CONFIG_KEY = {"lam": "lambda", "source_law": "law", "source_rate": "rate",
               "gamma_max": "gamma_max"}


@pytest.mark.parametrize("fields, error, name", [
    ({"rho0": 0.0}, InvalidValue, "material.rho0"),
    ({"theta0": -1.0}, InvalidValue, "material.theta0"),
    ({"c1": -1.0}, InvalidValue, "material.c1"),
    ({"lam": -1.0}, InvalidValue, "material.lambda"),
    ({"d2": -1.0}, InvalidValue, "material.d1/d2"),
    ({"lam": 1e200, "d1": 1e200}, InvalidValue, "material.lambda"),  # the conductance overflows
    ({"c2": -1.0}, InvalidValue, "material.c2"),
    ({"sigma0": -1.0}, InvalidValue, "material.sigma0"),
    ({"source_law": "logistc"}, InvalidValue, "material.source.law"),
    ({"source_law": "logistic"}, InvalidValue, "material.source.rate"),
    ({"source_law": "logistic", "source_rate": 1.0, "gamma_max": 0.0}, InvalidValue,
     "material.source.gamma_max"),
    ({"source_law": "logistic", "source_rate": 1.0, "b": 0.5}, ConfigConflict, None),
    ({"lam": 0.0, "c2": 1.0}, ConfigConflict, None),
    ({"lam": 0.0, "b": 0.5}, ConfigConflict, None),
    ({"lam": 0.0, "source_law": "logistic", "source_rate": 1.0}, ConfigConflict, None),
], ids=["rho0", "theta0", "c1", "lambda", "d2", "conductance", "c2", "sigma0", "law", "rate",
        "gamma_max", "logistic-b", "frozen-c2", "frozen-b", "frozen-source"])
def test_material_rules_hold_however_the_material_is_built(fields, error, name):
    # the rules live in MaterialParams, so a direct construction, replace()
    # and a scenario document all raise the same error with the same path
    material = {"rho0": 1.0, "c1": 1.0}
    for field, value in fields.items():
        if field in _CONFIG_KEY:
            section = material if field == "lam" else material.setdefault("source", {})
            section[_CONFIG_KEY[field]] = value
        else:
            material[field] = value
    raised = []
    for build in (lambda: fw.MaterialParams(**{"rho0": 1.0, "c1": 1.0, **fields}),
                  lambda: replace(fw.MaterialParams(rho0=1.0, c1=1.0), **fields),
                  lambda: fw.build_scenario(minimal_doc(material=material))):
        with pytest.raises(error) as exc:
            build()
        raised.append(exc.value)
    assert {type(e) for e in raised} == {error}
    assert len({str(e) for e in raised}) == 1
    assert {getattr(e, "name", None) for e in raised} == {name}


def test_clifton_limit_runs_in_2d():
    # the conservative limit (lambda = 0) of a periodic sheet: damage frozen
    # bitwise, nothing dissipated, total energy held to discretization error
    periodic = {"type": "periodic"}
    doc = minimal_doc(
        grid={"nx": 64, "ny": 48, "dx": 1.0 / 64, "dy": 1.0 / 48},
        material={"rho0": 1.0, "c1": 1.0, "lambda": 0.0, "d1": 0.2},
        time={"dt": 0.2 / 64, "t_end": 1.0},
        ic={"v": {"type": "gaussian", "amplitude": 1.0, "center": [0.5, 0.5],
                  "width": [0.08, 0.2]},
            "gamma": {"type": "gaussian", "amplitude": 0.4, "center": [0.5, 0.5],
                      "width": 0.1}},
        bc={"u_left": periodic, "u_right": periodic, "gamma": periodic},
    )
    cfg = fw.build_scenario(doc)
    res = fw.run(cfg)
    assert np.array_equal(res.state.gamma, fw.initialize_state(cfg).gamma)
    assert np.all(res.reports["dissipated"] == 0.0)
    assert fw.budget_imbalance(res.reports) < 5e-4


def test_gauge_outside_grid_rejected():
    doc = minimal_doc(gauges=[2.0])  # grid spans [0, 1]
    with pytest.raises(InvalidValue):
        fw.build_scenario(doc)


def test_tabulated_ic_shape_mismatch():
    doc = minimal_doc(ic={"gamma": {"type": "tabulated", "values": [0.0, 1.0]}})
    with pytest.raises(ShapeMismatch):
        fw.build_scenario(doc)


def test_tabulated_ic_must_be_finite():
    values = [0.0] * 16
    values[5] = float("nan")
    doc = minimal_doc(ic={"gamma": {"type": "tabulated", "values": values}})
    with pytest.raises(InvalidValue) as exc:
        fw.build_scenario(doc)
    assert exc.value.name == "ic.gamma.values"
    doc["ic"]["gamma"]["values"] = ["a"] * 16  # not numbers at all
    with pytest.raises(InvalidValue):
        fw.build_scenario(doc)


GRID_2D = {"nx": 4, "ny": 4, "dx": 0.25, "dy": 0.25}


def _wall(**spec):
    return {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
            "gamma": {"type": "zero_flux"}, **spec}


@pytest.mark.parametrize("over, name, reason", [
    ({"grid": {"nx": 2, "dx": 0.5}}, "grid.nx", "need at least 3 cells"),
    ({"grid": {**GRID_2D, "ny": 2}}, "grid.ny", "need at least 3 cells"),
    ({"grid": {"nx": 16, "dx": -0.1}}, "grid.dx", "must be > 0"),
    ({"grid": {**GRID_2D, "dy": 0.0}}, "grid.dy", "must be > 0"),
    # the diffusion number divides by each width's square: a square of 0
    # was a raw ZeroDivisionError (with d1 = 0 too), an infinite one a raw
    # OverflowError
    ({"grid": {"nx": 16, "dx": 1e-170}, "material": {"rho0": 1.0, "c1": 1.0, "d1": 0.1}},
     "grid.dx", "its square under- or overflows"),
    ({"grid": {"nx": 16, "dx": 1e-170}}, "grid.dx", "its square under- or overflows"),
    ({"grid": {**GRID_2D, "dy": 1e-170}, "material": {"rho0": 1.0, "c1": 1.0, "d1": 0.1}},
     "grid.dy", "its square under- or overflows"),
    ({"grid": {"nx": 16, "dx": 1e200}}, "grid.dx", "its square under- or overflows"),
    # a subnormal square passes, but the diffusivity over it overflows (it
    # was NonFiniteState("damage operator"), which names no key)
    ({"grid": {"nx": 16, "dx": 1e-160}, "material": {"rho0": 1.0, "c1": 1.0, "d1": 0.1}},
     "grid.dx", "the diffusivity over its square overflows"),
    ({"grid": {**GRID_2D, "dy": 1e-160}, "material": {"rho0": 1.0, "c1": 1.0, "d1": 0.1}},
     "grid.dy", "the diffusivity over its square overflows"),
    ({"time": {"dt": 0.0, "t_end": 0.1}}, "time.dt", "must be > 0"),
    # 2*dx*rho0 underflows to 0: the elastic half kick dt over it was a raw
    # ZeroDivisionError
    ({"grid": {"nx": 16, "dx": 1e-160}, "material": {"rho0": 5e-324, "c1": 1.0}},
     "material.rho0", "the elastic half kick dt/(2*dx*rho0) overflows"),
    ({"grid": {"nx": 16, "dx": 1e-20}, "material": {"rho0": 5e-324, "c1": 1.0},
      "time": {"dt": 1e-30, "t_end": 1e-29}}, "material.rho0",
     "the elastic half kick dt/(2*dx*rho0) overflows"),
    # the damage operator's diagonal lam/dt overflowed to a non-finite
    # operator (NonFiniteState("damage operator"), which names no key)
    ({"grid": {"nx": 16, "dx": 1.0}, "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1e300, "d1": 1.0},
      "time": {"dt": 1e-10, "t_end": 1e-9}}, "material.lambda", "lambda/dt overflows"),
    # lam/dt and lam*d1/dx**2 are each finite, their sum on the operator's
    # diagonal is not (it was NonFiniteState("damage operator")); per axis
    ({"grid": {"nx": 16, "dx": 1.0}, "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1e300, "d1": 1e8},
      "time": {"dt": 6e-9, "t_end": 6e-8}}, "grid.dx", "the damage operator's diagonal overflows"),
    ({"grid": {**GRID_2D, "dy": 1.0}, "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1e300,
                                                   "d1": 1e-300, "d2": 1e8},
      "time": {"dt": 2e-8, "t_end": 2e-7}}, "grid.dy", "the damage operator's diagonal overflows"),
    # past 1/sqrt(2*eps) the damage factor's roundoff reaches the audit (a
    # 16-cell bar raised AdmissibilityViolation from d1 1e15, which names no
    # key, and NonFiniteState("damage operator ...") at 1e18); per axis
    ({"grid": {"nx": 16, "dx": 1.0}, "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 4.8e8},
      "time": {"dt": 0.1, "t_end": 1.0}}, "grid.dx", "the diffusion number d*dt/h**2 exceeds 1/sqrt(2*eps)"),
    ({"grid": {**GRID_2D, "dy": 1.0}, "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0,
                                                   "d1": 1.0, "d2": 4.8e8},
      "time": {"dt": 0.1, "t_end": 1.0}}, "grid.dy", "the diffusion number d*dt/h**2 exceeds 1/sqrt(2*eps)"),
    ({"time": {"dt": 0.01, "t_end": 0.005}}, "time.t_end", "must be >= dt"),
    ({"output": {"snapshots": 1}}, "output.snapshots", "need at least first+last, so >= 2"),
    ({"numerics": {"tol_admissibility": -1e-12}}, "numerics.tol_admissibility", "must be >= 0"),
    ({"numerics": {"source_max_iter": 0}}, "numerics.source_max_iter", "must be >= 1"),
    ({"ic": {"gamma": {"type": "gaussian", "amplitude": 0.5, "center": 0.5, "width": 0.0}}},
     "ic.gamma.width", "must be > 0"),
    ({"grid": GRID_2D, "ic": {"v": {"type": "gaussian", "amplitude": 0.5, "center": [0.5, 0.5],
                                    "width": [0.1, -0.1]}}}, "ic.v.width", "must be > 0"),
    ({"ic": {"U": {"type": "sine", "amplitude": 0.1, "mode": 0}}}, "ic.U.mode", "must be >= 1"),
    ({"bc": _wall(u_right={"type": "traction", "value": 1.0, "until": 0.0})},
     "bc.u_right.until", "must be > 0"),
    ({"bc": _wall(u_left={"type": "traction", "value": 1.0, "ramp": -0.1})},
     "bc.u_left.ramp", "must be >= 0"),
    ({"grid": GRID_2D, "gauges": [[0.5, 0.5], [0.5, 1.5]]}, "gauges[1]",
     "position outside the grid"),
    ({"gauges": 0.5}, "gauges", "must be a list of positions"),
    # an integer key takes an integral number, never a truncated fraction
    ({"grid": {"nx": 16.7, "dx": 0.0625}}, "grid.nx", "expected an integer, got 16.7"),
    ({"ic": {"U": {"type": "sine", "amplitude": 0.1, "mode": 2.5}}}, "ic.U.mode",
     "expected an integer, got 2.5"),
    ({"output": {"snapshots": 2.9}}, "output.snapshots", "expected an integer, got 2.9"),
    ({"numerics": {"source_max_iter": 1.5}}, "numerics.source_max_iter",
     "expected an integer, got 1.5"),
], ids=["nx", "ny", "dx", "dy", "dx-underflow", "dx-underflow-no-diffusion", "dy-underflow",
        "dx-overflow", "dx-diffusivity-overflow", "dy-diffusivity-overflow", "dt", "rho0-kick-underflow",
        "rho0-kick-underflow-small-dt", "lambda-dt-overflow",
        "dx-diagonal-overflow", "dy-diagonal-overflow", "dx-diffusion-number", "dy-diffusion-number",
        "t_end",
        "snapshots", "tol_admissibility",
        "source_max_iter", "width", "width-2d", "mode", "until", "ramp", "gauge-2d",
        "gauges-scalar", "nx-fraction", "mode-fraction", "snapshots-fraction", "source_max_iter-fraction"])
def test_range_rules(over, name, reason):
    # every range rule names its key and keeps its reason
    with pytest.raises(InvalidValue) as exc:
        fw.build_scenario(minimal_doc(**over))
    assert (exc.value.name, exc.value.reason) == (name, reason)


def test_integral_float_counts_parse():
    # an integral float is the integer it names
    cfg = fw.build_scenario(minimal_doc(grid={"nx": 16.0, "dx": 0.0625}, output={"snapshots": 3.0}))
    assert cfg.grid.n == (16,) and type(cfg.grid.nx) is int
    whole = minimal_doc(grid={"nx": 16, "dx": 0.0625}, output={"snapshots": 3})
    assert cfg == fw.build_scenario(whole)


# -- canonical form ------------------------------------------------------------


finite = st.floats(-1e100, 1e100)
positive = st.floats(0.0, 1e100, exclude_min=True)
nonnegative = st.floats(0.0, 1e100)
cell_width = st.floats(1e-160, 1e100)  # a width whose square underflows to 0 is refused


def _ic_entries(shape):
    two_d = len(shape) == 2
    point = st.lists(finite, min_size=2, max_size=2) if two_d else finite
    width = st.lists(positive, min_size=2, max_size=2) if two_d else positive
    return st.one_of(
        st.just({"type": "zeros"}),
        st.builds(lambda v: {"type": "constant", "value": v}, finite),
        st.builds(lambda a, c, w: {"type": "gaussian", "amplitude": a, "center": c, "width": w},
                  finite, point, width),
        st.builds(lambda a, m: {"type": "sine", "amplitude": a, "mode": m},
                  finite, st.integers(1, 8)),
        st.builds(lambda l, r, at: {"type": "step", "left": l, "right": r, "at": at},
                  finite, finite, finite),
        st.builds(lambda v: {"type": "tabulated", "values": v.tolist()},
                  hnp.arrays(float, shape, elements=finite)),
    )


_u_bcs = st.one_of(
    st.builds(lambda k, v: {"type": k, "value": v}, st.sampled_from(("fixed", "velocity")), finite),
    st.just({"type": "free"}),
    st.builds(
        lambda v, until, ramp: {"type": "traction", "value": v, "ramp": ramp}
        | ({} if until is None else {"until": until}),
        finite, st.none() | positive, nonnegative,
    ),
)
_gamma_bcs = st.one_of(
    st.just({"type": "zero_flux"}),
    st.builds(lambda v: {"type": "dirichlet", "value": v}, finite),
)


@st.composite
def scenario_docs(draw):
    """Valid scenario documents over 1D and 2D grids, every u and gamma
    boundary condition, both source laws and every numerics key."""
    nx = draw(st.integers(3, 6))
    if draw(st.booleans()):
        ny = draw(st.integers(3, 6))
        grid = {"nx": nx, "ny": ny, "dx": draw(cell_width), "dy": draw(cell_width),
                "origin_x": draw(finite), "origin_y": draw(finite)}
        shape = (ny, nx)
        lengths = (grid["origin_x"], nx * grid["dx"]), (grid["origin_y"], ny * grid["dy"])
        gauge = st.tuples(*(st.floats(0.0, 1.0).map(lambda f, o=o, n=n: o + f * n)
                            for o, n in lengths)).map(list)
    else:
        grid = {"nx": nx, "dx": draw(cell_width), "origin": draw(finite)}
        shape = (nx,)
        gauge = st.floats(0.0, 1.0).map(lambda f: grid["origin"] + f * (nx * grid["dx"]))
    # a logistic source needs b = 0; lambda = 0 needs c2 = 0, b = 0 and no source
    lam = draw(nonnegative)
    law = "linear_decay" if lam == 0.0 else draw(st.sampled_from(("linear_decay", "logistic")))
    coupled = law == "linear_decay" and lam != 0.0
    # each axis's diffusivity and conductance lam*d over its width squared stay finite
    widths = [grid["dx"], grid.get("dy", grid["dx"])]
    d1, d2 = (draw(st.floats(0.0, min(1e100, 1e300 * h * h / max(1.0, lam)))) for h in widths)
    material = {
        # 2*dx*rho0 stays normal, so the elastic half kick dt over it can be finite
        "rho0": draw(st.floats(1e-300 / grid["dx"], 1e100, exclude_min=True)), "c1": draw(positive), "c2": draw(nonnegative) if lam else 0.0,
        "c3": draw(finite), "theta0": draw(positive), "lambda": lam, "d1": d1,
        "d2": d2, "b": draw(finite) if coupled else 0.0,
        "sigma0": draw(nonnegative),
        "source": {"law": law, "rate": draw(positive), "gamma_max": draw(positive)},
    }
    if draw(st.booleans()):
        bc = {side: {"type": "periodic"} for side in ("u_left", "u_right", "gamma")}
    else:
        bc = {"u_left": draw(_u_bcs), "u_right": draw(_u_bcs), "gamma": draw(_gamma_bcs)}
    # lam/dt and the elastic half kick dt/(2*dx*rho0) stay finite, and each
    # axis's diffusion number d*dt/h**2 at most MAX_DIFFUSION_NUMBER
    kick = 2.0 * grid["dx"] * material["rho0"]
    top = min(1e100, kick * 1e300)
    if lam:  # 1e-6 below the limit: the subnormal squares of the narrowest widths round
        axes = list(zip(widths, (d1, d2)))[:len(shape)]
        top = min([top] + [0.999999 * MAX_DIFFUSION_NUMBER * h**2 / d for h, d in axes if d])
    dt = draw(st.floats(lam * 1e-300, top, exclude_min=True))
    ics = _ic_entries(shape)
    return {
        "name": draw(st.text("abcxyz019_- ", min_size=1, max_size=8)),
        "grid": grid,
        "material": material,
        "time": {"dt": dt, "t_end": draw(st.floats(dt, 2e100))},
        "ic": {"U": draw(ics), "v": draw(ics), "gamma": draw(ics)},
        "bc": bc,
        "body_force": draw(finite),
        "gauges": draw(st.lists(gauge, max_size=3)),
        "output": {"snapshots": draw(st.integers(2, 50))},
        "numerics": {
            "tol_admissibility": draw(nonnegative),
            "source_tol": draw(positive),
            "source_max_iter": draw(st.integers(1, 1000)),
        },
    }


@settings(max_examples=200, deadline=None)
@given(scenario_docs())
def test_yaml_round_trip_identity(doc):
    cfg = fw.build_scenario(doc)
    again = fw.build_scenario(fw.scenario_to_yaml(cfg))
    assert again == cfg
    assert fw.config_hash(again) == fw.config_hash(cfg)


ROOT = os.path.join(os.path.dirname(__file__), "..")
PINNED_HASHES = {
    "clifton_pulse": "c0f00c5b79e0084cb099595aff682d90b6d8979a94815f8f617b5be6126efbba",
    "damage_decay": "80ce810e8fe8208369ce3c10b3402687f77eb83abfbbcb33ef36b536c868139d",
    "heat_kernel": "cb5b02e544ed780eccd35297bc7bb1800551089bf9e2d1634c79d10d64d05131",
    "impact_k8": "5139f2130d171768485d95fe268bb9d72975a33f745433e4a360a9830e2308ba",
    "kpp_front": "a7ca684000cbb98eeb38c59945bfba086c26e9874263c05028f5fe0f4f9bd231",
    "linear_quadratic": "1e9850481eb4eb7520062692a4e2601104aee3ef13d7f6a288d0ee0a4db890be",
    "standing_wave": "e1fbb0d122ba750a4af168bc6976848a0e7ecad054b1c13c00431a42001e2508",
    "verify_smooth": "0f3b3ff0cfb4999d51a21067f2d735474db796fbe958907a710b8803a40d76da",
    "lateral_spread_2d": "270da970b51cc097fe7e91c5444fac70c57b3ddf0082657dd434e83183da8ad7",
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_config_hash_pinned(name):
    # the canonical dict of every shipped scenario and of the 2D demo's is
    # fixed: a schema refactor must not move a single key or default
    if name == "lateral_spread_2d":
        spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "demos", name + ".py"))
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        cfg = fw.build_scenario(demo.SCENARIO)
    else:
        with open(os.path.join(ROOT, "scenarios", name + ".yaml")) as fh:
            cfg = fw.build_scenario(fh.read())
    assert fw.config_hash(cfg) == PINNED_HASHES[name]


def test_config_hash_stable_and_sensitive():
    cfg_a = fw.build_scenario(minimal_doc())
    cfg_b = fw.build_scenario(minimal_doc())
    assert fw.config_hash(cfg_a) == fw.config_hash(cfg_b)
    cfg_c = fw.build_scenario(minimal_doc(time={"dt": 0.005, "t_end": 0.1}))
    assert fw.config_hash(cfg_a) != fw.config_hash(cfg_c)


# -- initial sampling ----------------------------------------------------------


def test_sine_ic_peaks_at_center_cell():
    doc = minimal_doc(grid={"nx": 5, "dx": 0.2},
                      ic={"U": {"type": "sine", "amplitude": 2.0, "mode": 1}})
    state = fw.initialize_state(fw.build_scenario(doc))
    assert np.argmax(state.U) == 2  # odd cell count: the middle cell wins
    assert state.U[2] == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(state.U, state.U[::-1])  # mode 1 is symmetric


def test_gaussian_ic_center_and_decay():
    doc = minimal_doc(
        grid={"nx": 64, "dx": 1.0 / 64},
        ic={"gamma": {"type": "gaussian", "amplitude": 0.8, "center": 0.5, "width": 0.05}},
    )
    state = fw.initialize_state(fw.build_scenario(doc))
    x = fw.build_scenario(doc).grid.axes[0].centers()
    expected = 0.8 * np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2))
    assert np.allclose(state.gamma, expected, rtol=0, atol=1e-14)


def test_narrow_gaussian_ic_samples_without_overflow():
    # a width of 1e-160 squared every offset into overflow: numpy warned,
    # though every cell away from the center still read 0
    doc = minimal_doc(ic={"gamma": {"type": "gaussian", "amplitude": 0.8, "center": 0.53125,
                                    "width": 1e-160}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma = fw.initialize_state(fw.build_scenario(doc)).gamma
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert gamma[8] == 0.8  # the cell centered on it
    assert np.count_nonzero(gamma) == 1


def test_step_ic_split():
    doc = minimal_doc(
        grid={"nx": 10, "dx": 0.1},
        ic={"gamma": {"type": "step", "left": 1.0, "right": 0.0, "at": 0.5}},
    )
    state = fw.initialize_state(fw.build_scenario(doc))
    assert np.array_equal(state.gamma[:5], np.ones(5))
    assert np.array_equal(state.gamma[5:], np.zeros(5))


def test_constant_and_tabulated_ic():
    values = list(np.linspace(0.0, 1.0, 16))
    doc = minimal_doc(
        ic={"v": {"type": "constant", "value": 3.0},
            "gamma": {"type": "tabulated", "values": values}},
    )
    state = fw.initialize_state(fw.build_scenario(doc))
    assert np.all(state.v == 3.0)
    assert np.allclose(state.gamma, values)


# -- activation mask -----------------------------------------------------------


def test_zero_threshold_means_all_active():
    state = fw.initialize_state(fw.build_scenario(minimal_doc()))
    assert state.active.all()


def test_quiescent_body_with_threshold_starts_inactive():
    doc = minimal_doc(material={"rho0": 1.0, "c1": 1.0, "sigma0": 0.5})
    state = fw.initialize_state(fw.build_scenario(doc))
    assert not state.active.any()


def test_predamaged_cells_start_active():
    doc = minimal_doc(
        material={"rho0": 1.0, "c1": 1.0, "sigma0": 0.5},
        ic={"gamma": {"type": "step", "left": 0.3, "right": 0.0, "at": 0.25}},
    )
    state = fw.initialize_state(fw.build_scenario(doc))
    assert state.active[:4].all()
    assert not state.active[4:].any()


def test_initial_stress_above_threshold_activates():
    # mode-1 sine displacement: strain peaks at the walls
    doc = minimal_doc(
        material={"rho0": 1.0, "c1": 1.0, "sigma0": 0.05},
        ic={"U": {"type": "sine", "amplitude": 0.05, "mode": 1}},
    )
    state = fw.initialize_state(fw.build_scenario(doc))
    assert state.active[0] and state.active[-1]
    assert not state.active[8]  # strain node at the center


def test_initialize_state_deterministic():
    doc = minimal_doc(ic={"U": {"type": "gaussian", "amplitude": 0.1,
                                "center": 0.5, "width": 0.2}})
    a = fw.initialize_state(fw.build_scenario(doc))
    b = fw.initialize_state(fw.build_scenario(doc))
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.active, b.active)
