"""The Duhamel fixed-point map as an executable solver.

The mild-solution map

    L(u, alpha)(t) = ( e^{it Lap} u0 - i int_0^t e^{i(t-s) Lap} A_{alpha(s)} u(s) ds,
                       e^{-it} alpha0 - i int_0^t e^{-i(t-s)} f F(|u(s)|^2) ds )

is discretized on a uniform time mesh with trapezoid quadrature in s and
exact free propagators, so L maps mesh trajectories to mesh trajectories.
The map runs in place: picard_solve holds one mesh trajectory from the free
flow to the fixed point, and each map needs one stack of nodes on top.
Local existence shows up as a measured contraction of the iteration; the
contraction window in T is found by search, never asserted from theory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import pair_label, strichartz_pairs
from .dynamics import EvolutionConfig, Trajectory, lp_evolve
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


# The transforms of the map run on stacks of mesh nodes holding about this
# many bytes of complex data (16 nodes at N=16): enough nodes to spread the
# per-call cost of scipy.fft, few enough that a stack and its temporaries
# stay small.
CHUNK_BYTES = 1 << 20


def node_chunk(grid: SpectralGrid) -> int:
    """Mesh nodes per transform stack on grid."""
    return max(1, CHUNK_BYTES // (16 * grid.size))


def _chunks(n_nodes: int, grid: SpectralGrid):
    m = node_chunk(grid)
    for start in range(0, n_nodes, m):
        yield slice(start, min(start + m, n_nodes))


def _node_sq_norms(stack: np.ndarray) -> np.ndarray:
    """sum |a|^2 over each field of a stack, in one pass over the real and
    imaginary parts (einsum, not BLAS)."""
    x = stack.view(np.float64).reshape(len(stack), -1)
    return np.einsum("ij,ij->i", x, x)


def _sq_distances(g: SpectralGrid, u, u_ref, alpha, alpha_ref) -> np.ndarray:
    """Squared L2 (+) L2 distance at each node of two node stacks."""
    return (_node_sq_norms(u - u_ref) * g.dx
            + _node_sq_norms(alpha - alpha_ref) * g.dk)


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
        """free_flow(z0, t) at every node, from one forward transform of u0,
        one SpectralGrid.free_phase stack and one inverse call per stack of
        nodes: the same numbers free_flow computes."""
        times = np.linspace(0.0, t_final, n_nodes)
        g = z0.grid
        u0_k = g.fourier(z0.u)
        u = np.empty((n_nodes,) + g.shape, dtype=np.complex128)
        for c in _chunks(n_nodes, g):
            np.multiply(g.free_phase(times[c]), u0_k, out=u[c])
            u[c] = g.inverse(u[c], scratch=True)
        phases = np.array([cmath.exp(-1j * t) for t in times])
        alpha = phases.reshape((-1,) + (1,) * g.d) * z0.alpha
        return cls(grid=g, times=times, u=u, alpha=alpha)

    def endpoint(self) -> PhasePoint:
        return PhasePoint(self.grid, self.u[-1], self.alpha[-1], check=False)

    def sup_distance(self, other: "MeshTrajectory") -> float:
        """max over nodes of the L2 (+) L2 distance, one stack of nodes at
        a time."""
        g = self.grid
        worst = 0.0
        for c in _chunks(len(self.times), g):
            d2 = _sq_distances(g, self.u[c], other.u[c], self.alpha[c],
                               other.alpha[c])
            worst = max(worst, float(np.max(d2)))
        return math.sqrt(worst)


def duhamel_map(candidate: MeshTrajectory, z0: PhasePoint) -> float:
    """Replace the samples of a mesh trajectory by their image under the
    mild-solution map, in place, and return the sup distance between the
    old and the new iterate.

    Composing the exact free propagator K over one mesh step with the
    trapezoid increments reproduces the full trapezoid sum node by node.
    The map carries y_i = free_i - i acc_i, which obeys

        y_i = K (y_{i-1} + q_{i-1}) + q_i,    q = -i (dt/2) g,

    for the electron in k-space (K = SpectralGrid.free_phase(dt)) and for
    the phonon (K the phase e^{-i dt}).  Output node i reads only candidate
    nodes <= i, so the map runs in place: for each stack of nodes, one call
    transforms each integrand, the recurrence writes y node by node into a
    stack-sized scratch pair, one inverse call brings the electron stack
    back to x-space, and the new stack is measured against the old one
    (the arithmetic and chunking of MeshTrajectory.sup_distance) before it
    is copied over it.  The map holds the trajectory plus one node stack.
    """
    g = z0.grid
    if not g.same_as(candidate.grid):
        raise ValueError("candidate lives on a different grid")
    times = candidate.times
    n = len(times)
    dt = times[1] - times[0] if n > 1 else 0.0
    kin_step = g.free_phase(dt)
    phase_step = cmath.exp(-1j * dt)

    stack_shape = (min(node_chunk(g), n),) + g.shape
    scratch_u = np.empty(stack_shape, dtype=np.complex128)
    scratch_a = np.empty(stack_shape, dtype=np.complex128)
    # y and q at the node before the current one, copied out of the stacks
    # that the next stack reuses or frees
    y_u, y_a = g.fourier(z0.u), z0.alpha
    q_u = q_a = None
    worst = 0.0
    for c in _chunks(n, g):
        old_u, old_a = candidate.u[c], candidate.alpha[c]
        a = g.field_real(old_a, g.f_inf_sym)
        qu = g.fourier(a * old_u)
        qu *= -0.5j * dt
        qa = g.phonon_source(old_u.real**2 + old_u.imag**2)
        qa *= -0.5j * dt
        m = c.stop - c.start
        yu, ya = scratch_u[:m], scratch_a[:m]
        for j in range(m):
            if q_u is None:
                yu[j], ya[j] = y_u, y_a
            else:
                np.add(y_u, q_u, out=yu[j])
                yu[j] *= kin_step
                yu[j] += qu[j]
                np.add(y_a, q_a, out=ya[j])
                ya[j] *= phase_step
                ya[j] += qa[j]
            y_u, y_a, q_u, q_a = yu[j], ya[j], qu[j], qa[j]
        y_u, y_a, q_u, q_a = y_u.copy(), y_a.copy(), q_u.copy(), q_a.copy()
        new_u = g.inverse(yu, scratch=True)
        if c.start == 0:
            new_u[0] = z0.u
        d2 = _sq_distances(g, new_u, old_u, ya, old_a)
        worst = max(worst, float(np.max(d2)))
        old_u[...] = new_u
        old_a[...] = ya
    return math.sqrt(worst)


@dataclass
class PicardResult:
    trajectory: MeshTrajectory
    diffs: list
    ratios: list
    iterations: int
    converged: bool


def picard_solve(z0: PhasePoint, t_final: float, tol: float = 1e-12,
                 n_nodes: int = 129, max_iter: int = 60) -> PicardResult:
    """Iterate the Duhamel map from the free flow to a fixed point, in
    place on the one trajectory that the result holds.

    Aborts with the measured ratio when three consecutive
    successive-difference ratios reach 1 (non-contraction).
    """
    current = MeshTrajectory.from_free_flow(z0, t_final, n_nodes)
    diffs: list = []
    ratios: list = []
    bad_streak = 0
    scale = max(z0.norm(), 1e-30)
    for it in range(1, max_iter + 1):
        d = duhamel_map(current, z0)
        if diffs and diffs[-1] > 0:
            r = d / diffs[-1]
            ratios.append(r)
            bad_streak = bad_streak + 1 if r >= 1.0 else 0
            if bad_streak >= 3:
                raise PicardDivergenceError(ratios)
        diffs.append(d)
        if d <= tol * scale:
            return PicardResult(current, diffs, ratios, it, True)
    return PicardResult(current, diffs, ratios, max_iter, False)


def measure_contraction(z0: PhasePoint, t_final: float,
                        n_nodes: int = 129) -> list:
    """First N_RATIOS successive-difference ratios of the iteration at
    horizon T (fewer once it reaches roundoff)."""
    return picard_solve(z0, t_final, tol=1e-13, n_nodes=n_nodes,
                        max_iter=N_RATIOS + 1).ratios


def find_contraction_time(z0: PhasePoint, t_start: float = 0.4,
                          n_nodes: int = 129, bisect_steps: int = 8) -> float:
    """Largest horizon (up to bisection resolution) on which the first
    N_RATIOS successive-iterate ratios all stay below RATIO_TARGET."""

    def ok(t: float) -> bool:
        try:
            ratios = measure_contraction(z0, t, n_nodes)
        except PicardDivergenceError:
            return False
        return len(ratios) > 0 and all(r <= RATIO_TARGET for r in ratios)

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
    admissible pairs used in the well-posedness analysis, from the L^q_x
    norms that its diagnostics rows hold.

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
        vals = np.array([r.lq[pair_label(p, q)] for r in traj.rows])
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
