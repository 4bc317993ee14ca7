"""Time integrators: free flow, Landau-Pekar flow, dressed flow, and the
interaction-picture vector field.

The free flow is exact (frequency multipliers of modulus one).  The
Landau-Pekar stepper is a Strang splitting whose potential stage uses the
phonon field advanced to the half step, which keeps second order without an
implicit solve.  The dressed stepper splits off the same free part exactly
and Strang-splits the interaction once more: explicit-midpoint phonon
substeps around an implicit-midpoint electron substep (the dressed
interaction is not a multiplication operator because of its drift term).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRow, diagnostics_row, max_relative_drift
from .hamiltonians import (
    drift_du,
    grad_dressed_interaction,
    multiplication_potential,
    phonon_slope,
    quadratic_dalpha,
    static_potential,
)
from .spectral import (
    FormFactorSet,
    PhasePoint,
    SpectralGrid,
    field_A_half,
)

BLOWUP_FACTOR = 1e6
MASS_DRIFT_TOL = 1e-8
SUBSTEP_TOL = 1e-8
SUBSTEP_MAX_ITER = 12
# halving dt divides a second-order energy drift by a factor in this window
ENERGY_ORDER_WINDOW = (3.0, 5.0)


class BlowUpError(RuntimeError):
    """Numerical blow-up: the L2 theory guarantees global solutions, so
    runaway field growth signals integrator failure, not physics."""

    def __init__(self, step: int, t: float, peak: float, initial_peak: float):
        self.step = step
        self.t = t
        self.peak = peak
        self.initial_peak = initial_peak
        super().__init__(
            f"field blow-up at step {step} (t = {t:.6g}): max|u| = {peak:.3e} "
            f"exceeds {BLOWUP_FACTOR:.0e} x initial {initial_peak:.3e}")


class SubstepConvergenceError(RuntimeError):
    """The implicit-midpoint fixed point of the dressed electron substep did
    not reach its tolerance: the step is too large for the iteration, which
    contracts only while (h/2)||drift|| < 1.  update is the last fixed-point
    update relative to ||u||."""

    def __init__(self, h: float, iterations: int, update: float):
        self.h = h
        self.iterations = iterations
        self.update = update
        super().__init__(
            f"electron substep h = {h:.6g}: fixed point not converged after "
            f"{iterations} iterations (relative update {update:.3e})")


@dataclass
class EvolutionConfig:
    dt: float
    t_final: float
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(
                f"t_final must be nonnegative, got {self.t_final}")
        if self.record_every < 1:
            raise ValueError(
                f"record_every must be >= 1, got {self.record_every}")
        if abs(self.n_steps * self.dt - self.t_final) \
                > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"t_final must be a whole number of dt steps, got "
                f"t_final = {self.t_final}, dt = {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def records(self, step: int) -> bool:
        """True at the recorded steps: every record_every-th and the last."""
        return step % self.record_every == 0 or step == self.n_steps


@dataclass
class Trajectory:
    """Recorded time series: states every `record_every` steps plus their
    diagnostics rows.  First entry is always t = 0."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def append(self, t: float, z: PhasePoint, row: DiagnosticsRow | None):
        if self.times and t <= self.times[-1]:
            raise ValueError("trajectory times must increase strictly")
        self.times.append(t)
        self.states.append(z)
        self.rows.append(row)

    def final(self) -> PhasePoint:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.times)


# -- free flow ------------------------------------------------------------------


def free_flow(z: PhasePoint, t: float) -> PhasePoint:
    """Exact free evolution (e^{it Laplacian} u, e^{-it} alpha), with the
    electron propagator from SpectralGrid.free_phase."""
    g = z.grid
    u = g.inverse(g.free_phase(t) * g.fourier(z.u))
    alpha = cmath.exp(-1j * t) * z.alpha
    return PhasePoint(g, u, alpha, check=False)


# -- Landau-Pekar splitting -------------------------------------------------------


def lp_step(z: PhasePoint, dt: float) -> PhasePoint:
    """One Strang step of the Landau-Pekar flow.

    Half kinetic step, then an exact potential/phonon stage with the source
    f F(|u|^2) frozen (|u| is constant there) and the potential phase
    evaluated at the half-step phonon field, then the second kinetic half.
    """
    g = z.grid
    mult = g.free_phase(0.5 * dt)
    u = g.inverse(mult * g.fourier(z.u))

    w = u.real**2 + u.imag**2
    source = g.phonon_source(w)
    phase_half = cmath.exp(-0.5j * dt)
    alpha_mid = phase_half * z.alpha + (phase_half - 1.0) * source
    a_mid = g.field_real(alpha_mid, g.f_inf_sym)
    u = np.exp(-1j * dt * a_mid) * u
    phase_full = cmath.exp(-1j * dt)
    alpha = phase_full * z.alpha + (phase_full - 1.0) * source

    u = g.inverse(mult * g.fourier(u))
    return PhasePoint(g, u, alpha, check=False)


# -- dressed splitting -------------------------------------------------------------


def _rk4_increment(z: PhasePoint, dt: float, rhs,
                   t: float = 0.0) -> PhasePoint:
    """One RK4 step from time t for dz/dt = rhs(t, z) on phase points."""
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * dt, z.add(k1, 0.5 * dt))
    k3 = rhs(t + 0.5 * dt, z.add(k2, 0.5 * dt))
    k4 = rhs(t + dt, z.add(k3, dt))
    incr_u = (dt / 6.0) * (k1.u + 2.0 * k2.u + 2.0 * k3.u + k4.u)
    incr_a = (dt / 6.0) * (k1.alpha + 2.0 * k2.alpha + 2.0 * k3.alpha + k4.alpha)
    return PhasePoint(z.grid, z.u + incr_u, z.alpha + incr_a, check=False)


def _alpha_substep(grid: SpectralGrid, ff: FormFactorSet, u: np.ndarray,
                   uk: np.ndarray, alpha: np.ndarray, h: float,
                   big_w: np.ndarray | None = None) -> np.ndarray:
    """Explicit midpoint step for the phonon component of the interaction
    gradient with the electron field frozen.

    The slope is -i phonon_slope at alpha, whose W = 2 Re P enters through
    Q(W) = quadratic_dalpha(ff, W, |u|^2) only.  W and Q are linear, so the
    midpoint slope is k2 = k1 - i (h/2) Q(W(k1)).

    uk is fourier(u); big_w = 2 Re P at alpha, when the caller holds it."""
    g = grid
    w = u.real**2 + u.imag**2
    if big_w is None:
        big_w = g.field_real(alpha, ff.kB_sym)
    k1 = phonon_slope(ff, u, g.grad_d(uk), big_w, w)
    k1 *= -1j
    k2 = quadratic_dalpha(ff, g.field_real(k1, ff.kB_sym), w)
    k2 *= -0.5j * h
    k2 += k1
    return alpha + h * k2


def _u_substep(grid: SpectralGrid, ff: FormFactorSet, u: np.ndarray,
               alpha: np.ndarray, h: float) -> tuple:
    """Electron substage with the phonon field frozen, split once more into
    exact multiplication phases around an implicit-midpoint drift step.

    The multiplication part (infrared coupling + pair potential + quadratic
    field) leaves |u| pointwise invariant, so its self-consistent flow is an
    exact phase, like the potential stage of the undressed splitting.  The
    drift part is linear and hermitian at frozen phonons; the midpoint rule
    is its norm-preserving one-step approximation, fixed-point solved.

    Returns the new u and W = 2 Re P at the frozen alpha."""
    g = grid
    p = field_A_half(g, alpha, ff.kB_stack)
    big_w = 2.0 * p.real
    static = static_potential(ff, alpha, big_w)

    def mult_phase(v, tau):
        w = v.real**2 + v.imag**2
        return np.exp(-1j * tau * multiplication_potential(ff, static, w)) * v

    def midpoint_map(v):
        # u + (h/2) drift(v) with drift = -i drift_du
        out = drift_du(g, p, v, g.grad_d(g.fourier(v)))
        out *= -0.5j * h
        out += u
        return out

    u = mult_phase(u, 0.5 * h)
    # fixed point of the midpoint equation; the map contracts at rate
    # (h/2)||drift||.  It stops when the last update is below SUBSTEP_TOL
    # ||u||, a fixed tolerance with no h dependence.  The exact midpoint
    # conserves the mass, but the fixed point cut there moves it by up to
    # 2e-9 of the mass a step on the under-resolved standard data; the norm
    # projection afterwards takes that defect out, which is cheaper than the
    # 1.4 more updates a step that converging it away would take there.
    norm_in = g.norm_x(u)
    scale = max(norm_in, 1e-30)
    mid = midpoint_map(u)
    for _ in range(SUBSTEP_MAX_ITER):
        new_mid = midpoint_map(mid)
        update = g.norm_x(new_mid - mid)
        mid = new_mid
        if update <= SUBSTEP_TOL * scale:
            break
    else:
        raise SubstepConvergenceError(h, SUBSTEP_MAX_ITER, update / scale)
    u = 2.0 * mid - u
    norm_out = g.norm_x(u)
    if norm_out > 0.0:
        u *= norm_in / norm_out
    return mult_phase(u, 0.5 * h), big_w


def dressed_step(z: PhasePoint, dt: float, ff: FormFactorSet) -> PhasePoint:
    """One Strang step of the dressed flow: exact free halves around the
    split interaction stage.

    The interaction is not a pure multiplication operator (drift term), so
    the middle stage cannot be an exact phase; it is itself Strang-split
    into half phonon / full electron / half phonon substeps.  The electron
    substep freezes the phonon field and solves the implicit midpoint
    equation for i du/dt = M(u) u with hermitian M, so the mass ||u||^2 is
    preserved to solver tolerance (an explicit stage here loses it at
    O(dt^4) per unit time, far above the conservation budget on fine
    grids).  The phonon substeps leave u untouched, so they cannot move
    the mass at all.

    The spectra of u that the free halves hold feed the phonon substeps, and
    the second phonon substep starts from the W = 2 Re P of the electron
    substep, which sees the same alpha.
    """
    g = z.grid
    mult = g.free_phase(0.5 * dt)
    half_phase = cmath.exp(-0.5j * dt)
    uk = mult * g.fourier(z.u)
    u = g.inverse(uk)
    alpha = _alpha_substep(g, ff, u, uk, half_phase * z.alpha, 0.5 * dt)
    u, big_w = _u_substep(g, ff, u, alpha, dt)
    uk = g.fourier(u)
    alpha = _alpha_substep(g, ff, u, uk, alpha, 0.5 * dt, big_w)
    u = g.inverse(mult * uk)
    return PhasePoint(g, u, half_phase * alpha, check=False)


# -- evolution loops ----------------------------------------------------------------


def _evolve(z0: PhasePoint, cfg: EvolutionConfig, ff: FormFactorSet,
            stepper, collect: bool = True) -> Trajectory:
    traj = Trajectory()
    z = z0.copy()
    initial_peak = float(np.max(np.abs(z.u)))
    traj.append(0.0, z.copy(),
                diagnostics_row(z, ff, 0.0) if collect else None)
    for step in range(1, cfg.n_steps + 1):
        z = stepper(z)
        t = step * cfg.dt
        peak = float(np.max(np.abs(z.u)))
        if not math.isfinite(peak) or (
                initial_peak > 0 and peak > BLOWUP_FACTOR * initial_peak):
            raise BlowUpError(step, t, peak, initial_peak)
        if cfg.records(step):
            traj.append(t, z.copy(),
                        diagnostics_row(z, ff, t) if collect else None)
    return traj


def lp_evolve(z0: PhasePoint, cfg: EvolutionConfig, ff: FormFactorSet,
              collect: bool = True) -> Trajectory:
    """Evolve the Landau-Pekar equations, recording diagnostics."""
    return _evolve(z0, cfg, ff, lambda z: lp_step(z, cfg.dt), collect)


def dressed_evolve(z0: PhasePoint, cfg: EvolutionConfig, ff: FormFactorSet,
                   collect: bool = True) -> Trajectory:
    """Evolve the dressed Hamilton equations."""
    return _evolve(z0, cfg, ff, lambda z: dressed_step(z, cfg.dt, ff),
                   collect)


def conservation(traj: Trajectory, energy) -> tuple:
    """Mass and energy drifts of a recorded trajectory, as (info, verdicts,
    rows); energy(row) reads the flow's conserved energy off a diagnostics
    row, and rows are the diagnostics rows as dicts."""
    info = {
        "mass_drift": max_relative_drift([r.mass for r in traj.rows]),
        "records": len(traj),
        "energy_drift": max_relative_drift([energy(r) for r in traj.rows]),
    }
    return (info, {"mass_conserved": info["mass_drift"] < MASS_DRIFT_TOL},
            [r.as_dict() for r in traj.rows])


# -- interaction picture -------------------------------------------------------------


def interaction_field_X(t: float, w: PhasePoint, ff: FormFactorSet) -> PhasePoint:
    """Time-dependent field X(t, .) = -i phi0_{-t} grad_zbar hhat_I phi0_t.

    The free flow is linear and unitary, so it acts on gradient vectors the
    same way it acts on states.
    """
    zt = free_flow(w, t)
    grad = grad_dressed_interaction(zt, ff)
    gvec = PhasePoint(w.grid, grad.du, grad.dalpha, check=False)
    back = free_flow(gvec, -t)
    return PhasePoint(w.grid, -1j * back.u, -1j * back.alpha, check=False)


def evolve_interaction_picture(z0: PhasePoint, cfg: EvolutionConfig,
                               ff: FormFactorSet) -> PhasePoint:
    """Integrate w' = X(t, w) by RK4 and map back with the free flow.

    Equivalent route to the dressed endpoint, used as a cross-integrator
    consistency check.
    """
    w = z0.copy()
    rhs = lambda t, v: interaction_field_X(t, v, ff)
    for step in range(cfg.n_steps):
        w = _rk4_increment(w, cfg.dt, rhs, step * cfg.dt)
    return free_flow(w, cfg.t_final)


# -- second-order energy conservation ------------------------------------------------


def energy_order(z0: PhasePoint, ff: FormFactorSet, dt_levels,
                 t_final: float) -> tuple:
    """Energy drifts of the LP flow (h) and the dressed flow (hhat) on
    [0, t_final], recorded about 20 times, at each dt of dt_levels, and
    their successive ratios, as (info, verdicts, rows).  Fewer than two
    levels give no ratio to judge and raise ValueError."""
    if len(dt_levels) < 2:
        raise ValueError(
            f"need at least two dt levels, got {len(dt_levels)}")
    flows = (("lp", lp_evolve, lambda r: r.h.total),
             ("dressed", dressed_evolve, lambda r: r.hhat.total))
    drifts = {name: [] for name, _, _ in flows}
    rows = []
    for dt in dt_levels:
        cfg = EvolutionConfig(
            dt=dt, t_final=t_final,
            record_every=max(1, int(round(t_final / dt / 20))))
        for name, evolve, energy in flows:
            traj = evolve(z0, cfg, ff)
            drift = conservation(traj, energy)[0]["energy_drift"]
            drifts[name].append(drift)
            rows.append({"flow": name, "dt": dt, "energy_drift": drift})
    info = {"drifts": drifts}
    verdicts = {}
    lo, hi = ENERGY_ORDER_WINDOW
    for name, d in drifts.items():
        ratios = [a / b for a, b in zip(d, d[1:])]
        info[f"{name}_ratios"] = ratios
        verdicts[f"{name}_second_order"] = all(lo <= r <= hi for r in ratios)
    return info, verdicts, rows
