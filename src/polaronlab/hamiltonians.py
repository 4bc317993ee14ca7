"""Classical energy functionals and their Wirtinger gradients.

The undressed Hamiltonian is

    h(u, alpha) = ||grad u||^2 + ||alpha||^2 + int A_{alpha,f} |u|^2 dx,

and the dressed Hamiltonian replaces the singular coupling by its
infrared part plus an effective pair potential, a quadratic field term and
a drift term (the image of h under the Gross dressing at theta = 1).

Gradients are Wirtinger derivatives with respect to the weighted inner
products, so that i dz/dt = grad_zbar h is the Hamilton equation and

    d/dh f(z + h v) |_{h=0} = 2 Re < grad_zbar f, v >.

Every analytic gradient here is certified against central finite
differences of the corresponding functional (fd_gradient_errors).  The
dressed gradient terms are derived by hand, and the dressed Strang substeps
evaluate the same functions, so the finite-difference gate certifies the
code the stepper runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .spectral import (
    FormFactorSet,
    GridMismatchError,
    PhasePoint,
    SpectralGrid,
    abs2_sum,
    field_A_half,
)

_REALITY_TOL = 1e-12
FD_STEP = 1e-5
GRADIENT_TOL = 1e-6


@dataclass
class EnergyBreakdown:
    """Itemized energy: kinetic + phonon + named interaction terms."""

    kinetic: float
    phonon: float
    interaction: dict
    total: float

    @classmethod
    def assemble(cls, kinetic: float, phonon: float,
                 interaction: dict) -> "EnergyBreakdown":
        total = kinetic + phonon + sum(interaction.values())
        return cls(kinetic=kinetic, phonon=phonon,
                   interaction=dict(interaction), total=total)

    def as_dict(self, prefix: str = "") -> dict:
        out = {f"{prefix}total": self.total,
               f"{prefix}kinetic": self.kinetic,
               f"{prefix}phonon": self.phonon}
        for name, val in self.interaction.items():
            out[f"{prefix}{name}"] = val
        return out


@dataclass
class GradientPair:
    """Wirtinger gradient components (d/d u-bar on x-lattice, d/d alpha-bar
    on k-lattice)."""

    du: np.ndarray
    dalpha: np.ndarray

    def pairing(self, v: PhasePoint) -> complex:
        g = v.grid
        return g.inner_x(self.du, v.u) + g.inner_k(self.dalpha, v.alpha)


def _real(x: complex, scale: float, what: str) -> float:
    if abs(x.imag) > _REALITY_TOL * (1.0 + scale):
        raise AssertionError(
            f"{what} has imaginary residue {x.imag:.3e} (scale {scale:.3e})")
    return float(x.real)


def kinetic_energy(z: PhasePoint, uk: np.ndarray | None = None) -> float:
    """||grad u||^2; uk is fourier(u) when the caller already holds it."""
    g = z.grid
    if uk is None:
        uk = g.fourier(z.u)
    return float(np.sum(g.k_sq * (uk.real**2 + uk.imag**2)) * g.dk)


def phonon_energy(z: PhasePoint) -> float:
    return abs2_sum(z.alpha) * z.grid.dk


# -- undressed ------------------------------------------------------------------


def h_undressed(z: PhasePoint) -> EnergyBreakdown:
    """Energy of the Landau-Pekar system, itemized."""
    g = z.grid
    a = g.field_real(z.alpha, g.f_inf_sym)
    w = z.u.real**2 + z.u.imag**2
    coupling = float(np.sum(a * w) * g.dx)
    return EnergyBreakdown.assemble(kinetic_energy(z), phonon_energy(z),
                                    {"coupling": coupling})


def grad_undressed(z: PhasePoint) -> GradientPair:
    """grad_zbar h: the right-hand sides (-Delta u + A u, alpha + f F(|u|^2))."""
    return _with_free_part(z, grad_undressed_interaction(z))


def _with_free_part(z: PhasePoint, gi: GradientPair) -> GradientPair:
    """gi plus the gradient (-Delta u, alpha) of the free energy."""
    g = z.grid
    return GradientPair(du=g.inverse(g.k_sq * g.fourier(z.u)) + gi.du,
                        dalpha=z.alpha + gi.dalpha)


# -- dressed --------------------------------------------------------------------


def _dressed_fields(z: PhasePoint, ff: FormFactorSet):
    """Shared precomputation for the dressed energy and gradient."""
    g = z.grid
    if not g.same_as(ff.grid):
        raise GridMismatchError("form factors built on a different grid")
    w = z.u.real**2 + z.u.imag**2
    # P_j(x) = <alpha, k_j B e^{-ik.x}>, stacked over components
    p = field_A_half(g, z.alpha, ff.kB_stack)
    big_w = 2.0 * p.real
    uk = g.fourier(z.u)
    return w, p, big_w, g.grad_d(uk), uk


# -- the dressed terms shared by the energy, its gradient and the dressed
# Strang substeps -------------------------------------------------------------


def drift_du(g: SpectralGrid, p: np.ndarray, v: np.ndarray,
             dv: np.ndarray) -> np.ndarray:
    """u-gradient of the drift term, -2 [P . D + D . conj(P)] v, for the
    stack P and dv = D v (hermitian in v at fixed P)."""
    return -2.0 * ((p * dv).sum(axis=0) + g.div_d(np.conj(p) * v))


def kb_contract(ff: FormFactorSet, r: np.ndarray) -> np.ndarray:
    """sum_j k_j B fourier_dx(r_j) for a (d, ...) stack r."""
    s = ff.grid.fourier_dx(r)
    s *= ff.kB_stack
    return s.sum(axis=0)


def pair_convolution(ff: FormFactorSet, w: np.ndarray) -> np.ndarray:
    """(V * w)(x) by transform-based circular convolution of real fields."""
    g = ff.grid
    return sfft.irfftn(ff.V_hat * sfft.rfftn(w), s=g.shape) * g.dx


def phonon_slope(ff: FormFactorSet, u: np.ndarray, du_d: np.ndarray,
                 big_w: np.ndarray, w: np.ndarray) -> np.ndarray:
    """alpha-gradient of the dressed interaction, f_ir F(w) + 2 sum_j k_j B
    F(W_j w - conj(u) D_j u) for w = |u|^2, W = 2 Re P and du_d = D u."""
    r = np.conj(u) * du_d
    np.subtract(big_w * w, r, out=r)
    s = kb_contract(ff, r)
    s *= 2.0
    s += ff.f_ir * ff.grid.fourier_dx(w)
    return s


def quadratic_dalpha(ff: FormFactorSet, big_w: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """alpha-gradient of the quadratic field term, 2 sum_j k_j B F(W_j |u|^2)
    with W = 2 Re P."""
    return 2.0 * kb_contract(ff, big_w * w)


def static_potential(ff: FormFactorSet, alpha: np.ndarray,
                     big_w: np.ndarray) -> np.ndarray:
    """A_{alpha,f_ir} + |W|^2, the infrared and quadratic potentials."""
    return ff.grid.field_real(alpha, ff.f_ir_sym) + (big_w**2).sum(axis=0)


def multiplication_potential(ff: FormFactorSet, static: np.ndarray,
                             w: np.ndarray) -> np.ndarray:
    """static + 2 V * w; times u, the u-gradient of all but the drift."""
    return static + 2.0 * pair_convolution(ff, w)


def h_dressed(z: PhasePoint, ff: FormFactorSet) -> EnergyBreakdown:
    """Dressed energy: infrared coupling, pair potential, quadratic field
    term, and the drift term pairing the phonon field with D_x = -i grad."""
    g = z.grid
    w, p, big_w, du_d, uk = _dressed_fields(z, ff)

    a_ir = g.field_real(z.alpha, ff.f_ir_sym)
    coupling_ir = float(np.sum(a_ir * w) * g.dx)

    pair = float(np.sum(w * pair_convolution(ff, w)) * g.dx)

    quad = float(np.sum((big_w**2).sum(axis=0) * w) * g.dx)

    # -2 int conj(u) [ P . D + D . conj(P) ] u dx, D applied spectrally
    drift_c = g.inner_x(z.u, drift_du(g, p, z.u, du_d))
    drift = _real(drift_c, abs(drift_c), "drift term")

    return EnergyBreakdown.assemble(
        kinetic_energy(z, uk), phonon_energy(z),
        {"coupling_ir": coupling_ir, "pair": pair,
         "quadratic": quad, "drift": drift})


def grad_dressed_interaction(z: PhasePoint, ff: FormFactorSet) -> GradientPair:
    """Wirtinger gradient of the dressed interaction terms only."""
    w, p, big_w, du_d, _ = _dressed_fields(z, ff)
    potential = multiplication_potential(
        ff, static_potential(ff, z.alpha, big_w), w)
    return GradientPair(
        du=potential * z.u + drift_du(z.grid, p, z.u, du_d),
        dalpha=phonon_slope(ff, z.u, du_d, big_w, w))


def grad_dressed(z: PhasePoint, ff: FormFactorSet) -> GradientPair:
    """grad_zbar of the full dressed Hamiltonian."""
    return _with_free_part(z, grad_dressed_interaction(z, ff))


def grad_undressed_interaction(z: PhasePoint) -> GradientPair:
    """Gradient of the cubic coupling term of h alone."""
    g = z.grid
    a = g.field_real(z.alpha, g.f_inf_sym)
    w = z.u.real**2 + z.u.imag**2
    return GradientPair(du=a * z.u, dalpha=g.phonon_source(w))


# -- finite-difference certification --------------------------------------------


def fd_gradient_errors(fun, grad: GradientPair, z: PhasePoint,
                       n_directions: int, rng: np.random.Generator,
                       h: float = FD_STEP) -> list:
    """|fd - an| / (1 + |an|) for an = 2 Re <grad, v> and fd the central
    difference of fun at z, along n_directions random unit v."""
    errors = []
    for _ in range(n_directions):
        v = PhasePoint.random_unit(z.grid, rng)
        fd = (fun(z.add(v, h)) - fun(z.add(v, -h))) / (2.0 * h)
        an = 2.0 * grad.pairing(v).real
        errors.append(abs(fd - an) / (1.0 + abs(an)))
    return errors


def gradient_check(z: PhasePoint, ff: FormFactorSet, n_directions: int,
                   rng: np.random.Generator, h: float = FD_STEP) -> tuple:
    """Finite-difference gate of grad_undressed, then grad_dressed, at z,
    as (info, verdicts, rows)."""
    targets = {
        "h": (lambda zz: h_undressed(zz).total, grad_undressed(z)),
        "hhat": (lambda zz: h_dressed(zz, ff).total, grad_dressed(z, ff)),
    }
    rows, worst = [], {}
    for name, (fun, grad) in targets.items():
        errors = fd_gradient_errors(fun, grad, z, n_directions, rng, h)
        worst[name] = max(errors)
        rows.extend({"functional": name, "direction": i, "rel_error": e}
                    for i, e in enumerate(errors))
    verdicts = {f"grad_{k}": v < GRADIENT_TOL for k, v in worst.items()}
    return ({"worst": worst, "fd_step": h, "n_directions": n_directions},
            verdicts, rows)
