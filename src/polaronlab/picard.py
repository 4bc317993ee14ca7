"""The Duhamel fixed-point map as an executable solver.

The mild-solution map

    L(u, alpha)(t) = ( e^{it Lap} u0 - i int_0^t e^{i(t-s) Lap} A_{alpha(s)} u(s) ds,
                       e^{-it} alpha0 - i int_0^t e^{-i(t-s)} f F(|u(s)|^2) ds )

is discretized on a uniform time mesh with trapezoid quadrature in s and
exact free propagators, so L maps mesh trajectories to mesh trajectories.
Local existence shows up as a measured contraction of the iteration; the
contraction window in T is found by search, never asserted from theory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import pair_label, strichartz_pairs
from .dynamics import EvolutionConfig, Trajectory, free_flow, lp_evolve
from .spectral import FormFactorSet, PhasePoint, SpectralGrid

# a horizon contracts when the first N_RATIOS successive-difference ratios
# of the iteration stay at or below RATIO_TARGET
N_RATIOS = 5
RATIO_TARGET = 0.5
MATCH_HORIZON = 0.1
STRANG_GAP_TOL = 1e-6
INTERPOLATION_TOL = 1e-10


class PicardConvergenceError(RuntimeError):
    """The Picard iteration stopped at max_iter without reaching its
    tolerance, so its trajectory is not a certified fixed point."""

    def __init__(self, iterations: int, last_diff: float):
        self.iterations = iterations
        self.last_diff = last_diff
        super().__init__(
            f"Picard iteration not converged after {iterations} iterations "
            f"(last successive difference {last_diff:.3e})")


class PicardDivergenceError(RuntimeError):
    def __init__(self, ratios):
        self.ratios = list(ratios)
        super().__init__(
            "Picard iteration is not contracting: successive-difference "
            f"ratios {', '.join(f'{r:.3f}' for r in self.ratios[-3:])}")


@dataclass
class MeshTrajectory:
    """Fields sampled on the uniform time mesh of [0, T]."""

    grid: SpectralGrid
    times: np.ndarray
    u: np.ndarray       # (n_nodes, *grid.shape)
    alpha: np.ndarray

    @classmethod
    def from_free_flow(cls, z0: PhasePoint, t_final: float,
                       n_nodes: int) -> "MeshTrajectory":
        times = np.linspace(0.0, t_final, n_nodes)
        g = z0.grid
        u = np.empty((n_nodes,) + g.shape, dtype=np.complex128)
        alpha = np.empty_like(u)
        for i, t in enumerate(times):
            zt = free_flow(z0, t)
            u[i] = zt.u
            alpha[i] = zt.alpha
        return cls(grid=g, times=times, u=u, alpha=alpha)

    def endpoint(self) -> PhasePoint:
        return PhasePoint(self.grid, self.u[-1], self.alpha[-1], check=False)

    def sup_distance(self, other: "MeshTrajectory") -> float:
        """max over nodes of the L2 (+) L2 distance."""
        g = self.grid
        du = self.u - other.u
        da = self.alpha - other.alpha
        d2 = (np.sum(np.abs(du) ** 2, axis=tuple(range(1, du.ndim))) * g.dx
              + np.sum(np.abs(da) ** 2, axis=tuple(range(1, da.ndim))) * g.dk)
        return float(np.sqrt(np.max(d2)))


def duhamel_map(candidate: MeshTrajectory, z0: PhasePoint) -> MeshTrajectory:
    """Apply the mild-solution map to a mesh trajectory.

    The running integrals are accumulated incrementally; composing the exact
    free propagator with the trapezoid increments reproduces the full
    trapezoid sum node by node.  The free part and the electron accumulator
    are carried in k-space, where the free propagator over one mesh step is
    a multiplier, so each node costs one inverse transform of their sum.
    """
    g = z0.grid
    if not g.same_as(candidate.grid):
        raise ValueError("candidate lives on a different grid")
    times = candidate.times
    n = len(times)
    dt = times[1] - times[0] if n > 1 else 0.0
    f_inf = g.f_inf

    out_u = np.empty_like(candidate.u)
    out_a = np.empty_like(candidate.alpha)

    def integrand_u_k(i):
        a = g.field_real(candidate.alpha[i], g.f_inf_sym)
        return g.fourier(a * candidate.u[i])

    def integrand_a(i):
        w = candidate.u[i].real**2 + candidate.u[i].imag**2
        return f_inf * g.fourier_dx(w)

    acc_a = np.zeros(g.shape, dtype=np.complex128)
    prev_gu_k = integrand_u_k(0)
    prev_ga = integrand_a(0)
    out_u[0] = z0.u
    out_a[0] = z0.alpha
    if n > 1:
        kin_step = np.exp(-1j * dt * g.k_sq)
        phase_step = cmath.exp(-1j * dt)
        free_k = g.fourier(z0.u)
        acc_k = np.zeros(g.shape, dtype=np.complex128)
    for i in range(1, n):
        gu_k = integrand_u_k(i)
        ga = integrand_a(i)
        # acc(t_i) = e^{i dt Lap} acc(t_{i-1}) + dt/2 (e^{i dt Lap} g_{i-1} + g_i)
        free_k = kin_step * free_k
        acc_k = kin_step * (acc_k + 0.5 * dt * prev_gu_k) + 0.5 * dt * gu_k
        acc_a = phase_step * (acc_a + 0.5 * dt * prev_ga) + 0.5 * dt * ga
        out_u[i] = g.inverse(free_k - 1j * acc_k)
        out_a[i] = cmath.exp(-1j * times[i]) * z0.alpha - 1j * acc_a
        prev_gu_k, prev_ga = gu_k, ga
    return MeshTrajectory(grid=g, times=times, u=out_u, alpha=out_a)


@dataclass
class PicardResult:
    trajectory: MeshTrajectory
    diffs: list
    ratios: list
    iterations: int
    converged: bool


def picard_solve(z0: PhasePoint, t_final: float, tol: float = 1e-12,
                 n_nodes: int = 129, max_iter: int = 60) -> PicardResult:
    """Iterate the Duhamel map from the free flow to a fixed point.

    Aborts with the measured ratio when three consecutive
    successive-difference ratios reach 1 (non-contraction).
    """
    current = MeshTrajectory.from_free_flow(z0, t_final, n_nodes)
    diffs: list = []
    ratios: list = []
    bad_streak = 0
    scale = max(z0.norm(), 1e-30)
    for it in range(1, max_iter + 1):
        new = duhamel_map(current, z0)
        d = new.sup_distance(current)
        if diffs and diffs[-1] > 0:
            r = d / diffs[-1]
            ratios.append(r)
            bad_streak = bad_streak + 1 if r >= 1.0 else 0
            if bad_streak >= 3:
                raise PicardDivergenceError(ratios)
        diffs.append(d)
        current = new
        if d <= tol * scale:
            return PicardResult(current, diffs, ratios, it, True)
    return PicardResult(current, diffs, ratios, max_iter, False)


def measure_contraction(z0: PhasePoint, t_final: float, n_nodes: int = 129,
                        n_ratios: int = N_RATIOS) -> list:
    """First few successive-difference ratios of the iteration at horizon T
    (fewer once it reaches roundoff)."""
    return picard_solve(z0, t_final, tol=1e-13, n_nodes=n_nodes,
                        max_iter=n_ratios + 1).ratios


def find_contraction_time(z0: PhasePoint, t_start: float = 0.4,
                          ratio_target: float = RATIO_TARGET,
                          n_ratios: int = N_RATIOS,
                          n_nodes: int = 129, bisect_steps: int = 8) -> float:
    """Largest horizon (up to bisection resolution) on which the first
    n_ratios successive-iterate ratios all stay below ratio_target."""

    def ok(t: float) -> bool:
        try:
            ratios = measure_contraction(z0, t, n_nodes, n_ratios)
        except PicardDivergenceError:
            return False
        return len(ratios) > 0 and all(r <= ratio_target for r in ratios)

    t = t_start
    while not ok(t):
        t *= 0.5
        if t < 1e-6:
            raise RuntimeError("no contracting horizon found above 1e-6")
    lo, hi = t, 2.0 * t
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def picard_vs_strang(z0: PhasePoint, t_final: float, ff: FormFactorSet,
                     n_nodes: int = 257, dt: float = 1e-3,
                     max_iter: int = 60) -> float:
    """Endpoint distance between the fixed point and the Strang integrator.

    The Strang step is t_final / max(1, round(t_final / dt)).  Raises
    PicardConvergenceError when the iteration stops short of its tolerance:
    an unconverged iterate measures nothing about the flow.
    """
    res = picard_solve(z0, t_final, n_nodes=n_nodes, max_iter=max_iter)
    if not res.converged:
        raise PicardConvergenceError(res.iterations, res.diffs[-1])
    n_steps = max(1, int(round(t_final / dt)))
    cfg = EvolutionConfig(dt=t_final / n_steps, t_final=t_final,
                          record_every=10**9)
    traj: Trajectory = lp_evolve(z0, cfg, ff, collect=False)
    return res.trajectory.endpoint().distance(traj.final())


def contraction_check(z0: PhasePoint, ff: FormFactorSet, t_start: float,
                      n_nodes: int, match_nodes: int, dt: float,
                      bisect_steps: int = 8) -> tuple:
    """Contraction horizon T (searched from t_start), the first ratios of
    the iteration at T, and the picard_vs_strang gap on min(T,
    MATCH_HORIZON), as (info, verdicts, rows)."""
    t_c = find_contraction_time(z0, t_start=t_start, n_nodes=n_nodes,
                                bisect_steps=bisect_steps)
    ratios = measure_contraction(z0, t_c, n_nodes=n_nodes)
    t_match = min(t_c, MATCH_HORIZON)
    gap = picard_vs_strang(z0, t_match, ff, n_nodes=match_nodes, dt=dt)
    info = {"contraction_time": t_c, "ratios": ratios,
            "endpoint_gap": gap, "match_horizon": t_match}
    verdicts = {
        "contracting": len(ratios) >= N_RATIOS
        and all(r <= RATIO_TARGET for r in ratios[:N_RATIOS]),
        "matches_strang": gap < STRANG_GAP_TOL,
    }
    rows = [{"n": i + 1, "ratio": r} for i, r in enumerate(ratios)]
    return info, verdicts, rows


# -- space-time norms --------------------------------------------------------------


def strichartz_report(traj: Trajectory) -> dict:
    """Discrete L^p_t L^q_x norms over the recorded trajectory for the
    admissible pairs used in the well-posedness analysis.

    For d < 3 the exponent table degenerates and a not-applicable marker is
    returned instead.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    d = traj.states[0].grid.d
    pairs = strichartz_pairs(d)
    if pairs is None:
        return {"applicable": False, "dimension": d}
    times = np.asarray(traj.times)
    out = {"applicable": True, "dimension": d}
    for p, q in pairs:
        vals = np.array([z.grid.lq_norm_x(z.u, q) for z in traj.states])
        out[pair_label(p, q)] = float(np.trapezoid(vals**p, times) ** (1.0 / p))
    return out


def interpolation_residual(grid: SpectralGrid, u: np.ndarray) -> float:
    """Residual of the theta = 3/4 interpolation bound

        ||u||_{4d/(2d-1)} <= ||u||_2^{3/4} ||u||_{2d/(d-2)}^{1/4},

    nonnegative for every field up to quadrature roundoff (d >= 3)."""
    d = grid.d
    if d < 3:
        raise ValueError("interpolation exponents require d >= 3")
    q_mid = 4.0 * d / (2.0 * d - 1.0)
    q_hi = 2.0 * d / (d - 2.0)
    lhs = grid.lq_norm_x(u, q_mid)
    rhs = grid.lq_norm_x(u, 2.0) ** 0.75 * grid.lq_norm_x(u, q_hi) ** 0.25
    return rhs - lhs


def interpolation_residuals(states) -> tuple:
    """interpolation_residual of the electron fields of states, as (info,
    verdicts, rows); no states give the smallest residual inf."""
    rows = [{"state": i, "residual": interpolation_residual(z.grid, z.u)}
            for i, z in enumerate(states)]
    worst = min((r["residual"] for r in rows), default=math.inf)
    return ({"worst_residual": worst},
            {"interpolation_nonnegative": worst >= -INTERPOLATION_TOL}, rows)
