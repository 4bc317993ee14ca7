"""The classical Gross dressing flow in closed form and its structural
identities.

The dressing generator produces the flow

    u_theta = u0 exp(-i theta A_{alpha0, iB}),
    alpha_theta = alpha0 + theta B F(|u0|^2),

which is exactly solvable because |u| is theta-invariant and because the
alpha increment B F(|u|^2) contributes nothing to the phase field: B is even
and |u|^2 real, so the induced half-pairing is real and drops out of
A_{., iB}.  That cancellation is asserted numerically on every call rather
than assumed.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import convergence_order
from .dynamics import EvolutionConfig, Trajectory, dressed_evolve, lp_evolve
from .hamiltonians import h_dressed, h_undressed
from .spectral import (FormFactorSet, GridMismatchError, PhasePoint,
                       SpectralGrid, field_A)

CANCELLATION_TOL = 1e-10
IDENTITY_TOL = 1e-9
T0_TOL = 1e-12
CONJUGATION_ORDER_WINDOW = (1.7, 2.3)
PAIRING_STEPS = (1e-3, 1e-4)
PAIRING_PAIRS = 5


def cancellation_residual(z: PhasePoint, ff: FormFactorSet) -> float:
    """Peak value of the phase field induced by the alpha increment of the
    dressing; zero up to roundoff because the generating symbol is even."""
    g = z.grid
    w = z.u.real**2 + z.u.imag**2
    return _induced_phase_peak(g, ff, ff.B * g.fourier_dx(w))


def _induced_phase_peak(g: SpectralGrid, ff: FormFactorSet,
                        induced: np.ndarray) -> float:
    """Peak of the phase field A_{induced, iB} of an alpha increment."""
    return float(np.max(np.abs(field_A(g, induced, 1j * ff.B))))


def dressing_apply(z: PhasePoint, theta: float,
                   ff: FormFactorSet) -> PhasePoint:
    """Apply the dressing flow at parameter theta (pure phase on u, shift
    on alpha; mass preserved exactly).  The phase is A_{alpha, iB}(x); an
    AssertionError if the alpha shift induces one, checked on the one
    transform F(|u|^2) that the shift is built from."""
    g = z.grid
    if not g.same_as(ff.grid):
        raise GridMismatchError("form factors built on a different grid")
    phase = field_A(g, z.alpha, 1j * ff.B)
    w = z.u.real**2 + z.u.imag**2
    fw = g.fourier_dx(w)
    resid = _induced_phase_peak(g, ff, ff.B * fw)
    scale = 1.0 + float(np.max(np.abs(phase)))
    if resid > CANCELLATION_TOL * scale:
        raise AssertionError(
            f"self-induced phase fails to cancel: residual {resid:.3e}")
    u = z.u * np.exp(-1j * theta * phase)
    alpha = z.alpha + theta * ff.B * fw
    return PhasePoint(g, u, alpha, check=False)


def verify_dressed_identity(z: PhasePoint, ff: FormFactorSet) -> float:
    """Relative residual of hhat(z) = h(D(1) z)."""
    lhs = h_dressed(z, ff).total
    rhs = h_undressed(dressing_apply(z, 1.0, ff)).total
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def identity_residuals(ff: FormFactorSet, states) -> tuple:
    """verify_dressed_identity over states, as (info, verdicts, rows)."""
    rows = [{"state": i, "residual": verify_dressed_identity(z, ff)}
            for i, z in enumerate(states)]
    worst = max(r["residual"] for r in rows)
    return ({"worst_residual": worst, "n_states": len(rows)},
            {"identity": worst < IDENTITY_TOL}, rows)


def verify_conjugation(z0: PhasePoint, cfg: EvolutionConfig,
                       ff: FormFactorSet) -> tuple:
    """Distance curve between phi_t(z0) and the dressing conjugate of the
    dressed flow, D(1) phihat_t(D(-1) z0).

    The direction of the conjugation is fixed by the energy identity
    hhat = h o D(1): the flow of a pulled-back Hamiltonian is the pulled-back
    flow, phihat_t = D(-1) o phi_t o D(1), hence phi_t = D(1) o phihat_t o
    D(-1).  (Writing the conjugation with the opposite signs leaves an O(1)
    mismatch for every dt, which is how the orientation was pinned down.)

    Returns (times, errors) on [0, cfg.t_final] at the recording stride.
    """
    lp: Trajectory = lp_evolve(z0, cfg, ff, collect=False)
    dressed: Trajectory = dressed_evolve(dressing_apply(z0, -1.0, ff), cfg, ff,
                                         collect=False)
    times = []
    errors = []
    for t, z_lp, z_hat in zip(lp.times, lp.states, dressed.states):
        back = dressing_apply(z_hat, 1.0, ff)
        times.append(t)
        errors.append(z_lp.distance(back))
    return np.asarray(times), np.asarray(errors)


def conjugation_order(z0: PhasePoint, ff: FormFactorSet, dt_levels,
                      t_sample: float) -> tuple:
    """verify_conjugation curves on [0, t_sample], recorded about 10
    times, at each dt of dt_levels and the convergence orders of their end
    errors, as (info, verdicts, rows).  Fewer than two levels give no order
    to judge and raise ValueError before any flow runs."""
    if len(dt_levels) < 2:
        raise ValueError(
            f"need at least two dt levels, got {len(dt_levels)}")
    rows, end_errors = [], []
    for dt in dt_levels:
        cfg = EvolutionConfig(
            dt=dt, t_final=t_sample,
            record_every=max(1, int(round(t_sample / dt / 10))))
        times, errors = verify_conjugation(z0, cfg, ff)
        end_errors.append(float(errors[-1]))
        rows.extend({"dt": dt, "t": float(t), "error": float(e)}
                    for t, e in zip(times, errors))
    orders, monotone = convergence_order(end_errors)
    lo, hi = CONJUGATION_ORDER_WINDOW
    info = {"errors": end_errors, "orders": orders.tolist(),
            "t0_error": rows[0]["error"]}
    verdicts = {
        "t0_exact": rows[0]["error"] < T0_TOL,
        "second_order": monotone and all(lo <= o <= hi for o in orders),
    }
    return info, verdicts, rows


def symplectic_pairing_defect(z: PhasePoint, v: PhasePoint, w: PhasePoint,
                              ff: FormFactorSet, h: float) -> float:
    """Defect |Im<Tv, Tw> - Im<v, w>| for the finite-difference pushforward
    T of D(1) at z along tangent directions v, w."""

    def push(direction: PhasePoint) -> PhasePoint:
        plus = dressing_apply(z.add(direction, h), 1.0, ff)
        minus = dressing_apply(z.add(direction, -h), 1.0, ff)
        return PhasePoint(z.grid, (plus.u - minus.u) / (2.0 * h),
                          (plus.alpha - minus.alpha) / (2.0 * h), check=False)

    tv = push(v)
    tw = push(w)
    ref = v.pairing(w).imag
    return abs(tv.pairing(tw).imag - ref)


def pairing_defects(z: PhasePoint, ff: FormFactorSet,
                    rng: np.random.Generator) -> dict:
    """Worst symplectic_pairing_defect over PAIRING_PAIRS random tangent
    pairs at each step h of PAIRING_STEPS; D(1) is symplectic, so each is
    O(h)."""
    tangent = lambda: PhasePoint.random_unit(z.grid, rng)
    return {h: max(symplectic_pairing_defect(z, tangent(), tangent(), ff, h)
                   for _ in range(PAIRING_PAIRS)) for h in PAIRING_STEPS}
