"""Exception types, split by how the CLI reports them.

ConfigError subclasses mean the scenario description itself is unusable
(exit code 1). RuntimeViolation subclasses mean a run started and then
tripped a stability or admissibility contract (exit code 2); the run loop
attaches the state to them.
"""


class FailwaveError(Exception):
    pass


class ConfigError(FailwaveError):
    pass


class MissingKey(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required config key: {name}")


class InvalidValue(ConfigError):
    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"invalid value for {name}: {reason}")


class ShapeMismatch(ConfigError):
    def __init__(self, what: str, expected, got):
        self.what = what
        super().__init__(f"{what}: expected shape {expected}, got {got}")


class ConfigConflict(ConfigError):
    def __init__(self, reason: str):
        super().__init__(reason)


class RuntimeViolation(FailwaveError):
    """The run loop (solver._coupled_steps) sets .state to a copy of the
    state at the raise: a report column's level, the audit's new damage,
    else the level before the step. None outside a run."""

    state = None


class CflViolation(RuntimeViolation):
    """Hyperbolic step rejected: c_max*dt/dx exceeded 1."""

    def __init__(self, dt: float, dx: float, c_max: float):
        self.dt, self.dx, self.c_max = dt, dx, c_max
        super().__init__(
            f"CFL violation: c_max*dt/dx = {c_max * dt / dx:.6g} > 1 "
            f"(dt={dt:.6g}, dx={dx:.6g}, c_max={c_max:.6g})"
        )


class AdmissibilityViolation(RuntimeViolation):
    """min(Z*gamma_dot) fell below -tol: dissipation inequality broken.
    tol is the whole bound, the relative tolerance times the run's peak
    |Z*gamma_dot| plus the step's roundoff."""

    def __init__(self, time: float, value: float, tol: float):
        self.time, self.value, self.tol = time, value, tol
        super().__init__(
            f"admissibility violated at t={time:.6g}: min Z*dGamma/dt = {value:.6g} < -{tol:.6g}"
        )


class NonFiniteState(RuntimeViolation):
    """A run met a non-finite value: a (possibly singular) damage operator
    or right-hand side, the Courant number (read only when c3 != 0), the
    admissibility audit, or one of a level's report columns (what names
    the first in solver.REPORT_FIELDS order)."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"non-finite value in the {what}")


class PicardNotConverged(RuntimeViolation):
    """DamagePlan.step's 2D defect correction towards the step's linear
    system used all numerics.source_max_iter corrections without meeting
    numerics.source_tol (a 1D step is one exact solve and never raises it)."""

    def __init__(self, time: float, iterations: int, residual: float, limit: float):
        self.time, self.iterations = time, iterations
        self.residual, self.limit = residual, limit
        super().__init__(
            f"2D damage defect correction did not converge at t={time:.6g}: last change "
            f"{residual:.6g} > {limit:.6g} after {iterations} corrections"
        )


class NonpositiveSpeed(FailwaveError):
    def __init__(self, v_f: float):
        self.v_f = v_f
        super().__init__(f"front speed must be > 0, got {v_f:.6g}")


class NoFrontDetected(FailwaveError):
    def __init__(self, msg: str = "level crossing found in fewer than 5 snapshots"):
        super().__init__(msg)


class NoPlateau(FailwaveError):
    def __init__(self, msg: str = "gauge trace not settled: last 10% varies by more than 5%"):
        super().__init__(msg)


class TooFewLevels(FailwaveError):
    def __init__(self, n: int, what: str = "trajectory needs >= 3 time levels"):
        super().__init__(f"{what}, got {n}")


class SingularBasis(FailwaveError):
    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"basis Gram matrix ill-conditioned: cond = {cond:.3e} > 1e12")
