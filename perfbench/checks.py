"""Output checks of the benchmark, computed apart from the program.

Each check takes plain numbers or arrays that a workload produced and raises
CheckFailure when they fall outside the stated tolerance.  Norms, drifts,
commutators and Poisson tails are computed here with numpy alone, so a
fault in the program's own diagnostics cannot hide a fault in its results.
"""

from __future__ import annotations

import math

import numpy as np

# dressed-n32: |phi_T(z0) - D(1) phihat_T(D(-1) z0)| <= CONJ_C dt^2.  The
# measured constant is about 1e-3 on the smooth data; flipping the dressing
# signs leaves an O(1) gap.
CONJ_C = 1e-2
MASS_TOL = 1e-8
# hhat drift <= ENERGY_C dt^2 (measured about 6e-5 dt^2 over T = 0.2).
ENERGY_C = 2e-3
GRADIENT_TOL = 1e-6
# duhamel-n16
RATIO_MAX = 0.5
PICARD_GAP_TOL = 1e-6
# fock-expansion
RESTRICTED_TOL = 1e-6
INVARIANT_TOL = 1e-10
# fock-bohr
NORM_TOL = 1e-10
TAIL_FACTOR = 10.0


class CheckFailure(Exception):
    """An output of the program lies outside its tolerance."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# -- helpers computed without the program --


def phase_distance(u_a, alpha_a, u_b, alpha_b, dx: float, dk: float) -> float:
    """L2 (+) L2 distance with the dx- and dk-weighted norms."""
    du = np.asarray(u_a) - np.asarray(u_b)
    da = np.asarray(alpha_a) - np.asarray(alpha_b)
    return math.sqrt(float(np.vdot(du, du).real) * dx
                     + float(np.vdot(da, da).real) * dk)


def mass(u, dx: float) -> float:
    return float(np.vdot(u, u).real) * dx


def max_drift(values) -> float:
    """Largest |v - v0| / (1 + |v0|) along a series."""
    v = np.asarray(values, dtype=np.float64)
    return float(np.max(np.abs(v - v[0])) / (1.0 + abs(v[0])))


def poisson_tail(mean: float, n_max: int) -> float:
    """P(N > n_max) for N Poisson with the given mean."""
    head = sum(math.exp(-mean) * mean**n / math.factorial(n)
               for n in range(n_max + 1))
    return max(0.0, 1.0 - head)


# -- dressed-n32 --


def conjugation(distance: float, dt: float) -> None:
    tol = CONJ_C * dt**2
    _require(distance <= tol,
             f"conjugation distance {distance:.3e} > {tol:.3e} "
             f"(= {CONJ_C} dt^2)")


def mass_drift(masses, what: str) -> None:
    drift = max_drift(masses)
    _require(drift <= MASS_TOL,
             f"{what} mass drift {drift:.3e} > {MASS_TOL:.0e}")


def energy_drift(energies, dt: float) -> None:
    drift = max_drift(energies)
    tol = ENERGY_C * dt**2
    _require(drift <= tol,
             f"hhat energy drift {drift:.3e} > {tol:.3e} (= {ENERGY_C} dt^2)")


def gradient_agreement(fd, analytic) -> None:
    fd = np.asarray(fd, dtype=np.float64)
    an = np.asarray(analytic, dtype=np.float64)
    worst = float(np.max(np.abs(fd - an) / (1.0 + np.abs(an))))
    _require(worst <= GRADIENT_TOL,
             f"FD gradient of hhat off by {worst:.3e} > {GRADIENT_TOL:.0e}")


# -- duhamel-n16 --


def picard(converged: bool, ratios, gap: float) -> None:
    _require(bool(converged), "Picard iteration did not converge")
    worst = max(ratios) if len(ratios) else 0.0
    _require(worst <= RATIO_MAX,
             f"successive-difference ratio {worst:.3f} > {RATIO_MAX}")
    _require(gap < PICARD_GAP_TOL,
             f"endpoint gap to Strang {gap:.3e} >= {PICARD_GAP_TOL:.0e}")


# -- fock-expansion --


def restricted_difference(conjugated, assembled, sel) -> None:
    """Spectral norm of the difference on the sub-basis sel is below
    RESTRICTED_TOL."""
    block = np.ix_(sel, sel)
    diff = float(np.linalg.norm(conjugated[block] - assembled[block], 2))
    _require(diff < RESTRICTED_TOL,
             f"restricted difference {diff:.3e} >= {RESTRICTED_TOL:.0e}")


def commutes_with_number(op, n1, what: str) -> None:
    """[op, N1] = 0 exactly: N1 is diagonal, so every entry joining two
    different particle numbers must be exactly zero."""
    n1 = np.asarray(n1)
    leak = float(np.max(np.abs(op[n1[:, None] != n1[None, :]]), initial=0.0))
    _require(leak == 0.0, f"[{what}, N1] has an entry of size {leak:.3e}")


def unitary_invariants(conjugated, h) -> None:
    """U H U* keeps the trace and the Frobenius norm of H."""
    tr_h = complex(np.trace(h))
    tr_c = complex(np.trace(conjugated))
    fro_h = float(np.linalg.norm(h))
    fro_c = float(np.linalg.norm(conjugated))
    d_tr = abs(tr_c - tr_h) / (1.0 + abs(tr_h))
    d_fro = abs(fro_c - fro_h) / (1.0 + fro_h)
    _require(d_tr <= INVARIANT_TOL, f"trace moved by {d_tr:.3e} (relative)")
    _require(d_fro <= INVARIANT_TOL,
             f"Frobenius norm moved by {d_fro:.3e} (relative)")


# -- fock-bohr --


def errors_decrease(final_errors) -> None:
    e = list(final_errors)
    _require(all(b < a for a, b in zip(e, e[1:])),
             "final errors do not decrease with eps: "
             + " > ".join(f"{x:.3e}" for x in e))


def unit_norms(norms) -> None:
    worst = float(np.max(np.abs(np.asarray(norms) - 1.0)))
    _require(worst <= NORM_TOL, f"state norm off unity by {worst:.3e}")


def truncation_tolerance(eps: float, particle_amps, phonon_amps,
                         n_max_particles: int, n_max_phonons: int) -> float:
    """TAIL_FACTOR times the Poisson weight a coherent state loses beyond
    the occupancy cutoffs (occupancies have mean |z|^2 / eps)."""
    lam_p = float(np.sum(np.abs(particle_amps) ** 2)) / eps
    lam_f = float(np.sum(np.abs(phonon_amps) ** 2)) / eps
    return TAIL_FACTOR * (poisson_tail(lam_p, n_max_particles)
                          + poisson_tail(lam_f, n_max_phonons))


def initial_match(error: float, tol: float, eps: float) -> None:
    _require(error <= tol,
             f"t=0 mode expectations off by {error:.3e} > {tol:.3e} "
             f"at eps={eps}")
