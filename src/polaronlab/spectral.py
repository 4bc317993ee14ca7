"""Periodic-box spectral discretization, transforms, and form-factor tables.

Everything downstream works on a d-dimensional torus [0, L)^d sampled on N
points per axis.  The discrete Fourier pair is the unitary one,

    F(u)(k)  = (2pi)^{-d/2} sum_x u(x) e^{-i k.x} dx,
    F'(v)(x) = (2pi)^{-d/2} sum_k v(k) e^{+i k.x} dk,

with quadrature weights dx = (L/N)^d and dk = (2pi/L)^d, so Parseval holds
exactly.  Physical-space fields carry the dx-weighted L2 inner product,
frequency-space fields the dk-weighted one.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

_TWO_PI = 2.0 * math.pi

# glibc's mallopt parameters and the values _keep_heap gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit systems
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _keep_heap() -> bool:
    """Keep freed field temporaries in glibc's heap, once per process.

    A lattice step allocates and frees many 0.5-1.5 MB arrays.  Under
    glibc's dynamic thresholds they are mmap'd or trimmed from the heap
    when freed, and every new one is page-faulted back in: about 140 000
    minor faults per dressed-n32 round.  Raising the mmap threshold to
    32 MiB and the trim threshold to 64 MiB keeps them in the heap for
    reuse, and the faults fall to none.  Setting either parameter turns
    the dynamic mode off, so both are set; with a trim threshold of 8 MiB
    55 840 faults a round remained.

    The setting is process-wide and lasts for the life of the process:
    glibc has no getter and cannot restore its dynamic mode.  The first
    SpectralGrid calls this; where the C library has no mallopt it does
    nothing.  Returns whether it found mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return True


class GridMismatchError(ValueError):
    """Raised when fields from different grids are combined."""


class SpectralGrid:
    """Uniform periodic grid with its dual frequency lattice.

    Parameters
    ----------
    d : spatial dimension, 1 to 3.
    n : points per axis, even and >= 4 (powers of two are fastest).
    length : box side L > 0.
    """

    def __init__(self, d: int, n: int, length: float):
        if d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
        if n < 4 or n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 4, got {n}")
        if not length > 0:
            raise ValueError(f"box length must be positive, got {length}")
        _keep_heap()
        self.d = d
        self.n = int(n)
        self.length = float(length)
        self.shape = (self.n,) * d
        self.size = self.n**d
        self.dx = (self.length / self.n) ** d
        self.dk = (_TWO_PI / self.length) ** d
        self.x_axis = np.arange(self.n) * (self.length / self.n)
        # FFT-natural ordering: {0, 1, ..., N/2-1, -N/2, ..., -1} * 2pi/L
        self.k_axis = _TWO_PI * sfft.fftfreq(self.n, d=self.length / self.n)
        # broadcastable per-axis frequency arrays, shape e.g. (N,1,1), (1,N,1), ...
        self.k_comps = tuple(
            self.k_axis.reshape((1,) * i + (self.n,) + (1,) * (d - 1 - i))
            for i in range(d)
        )
        self.k_sq = sum(kc**2 for kc in self.k_comps)
        self.k_mag = np.sqrt(self.k_sq)
        # the distinct values of |k|^2 (827 at d = 3, N = 32) and the index
        # of each lattice point's value among them
        self._k_sq_distinct, where = np.unique(self.k_sq, return_inverse=True)
        self._k_sq_where = where.reshape(self.shape)
        # the same components as one (d, N, ..., N) stack
        self.k_vec = np.stack(np.broadcast_arrays(*self.k_comps))
        self._norm_fwd = (_TWO_PI) ** (-d / 2.0) * self.dx
        self._norm_inv = (_TWO_PI) ** (-d / 2.0) * self.dk * self.size
        # half lattice of the real transforms: the last axis keeps the
        # indices 0 .. N/2 (Nyquist included)
        self.n_half = self.n // 2 + 1
        self.half_shape = self.shape[:-1] + (self.n_half,)
        # flat indices into the full lattice of -k for the points of the
        # half lattice; along every axis index i maps to (-i) mod N, so a
        # Nyquist index maps to itself
        neg = np.ix_(*[(-np.arange(self.n)) % self.n] * d)
        neg_flat = np.ravel_multi_index(neg, self.shape)
        self._neg_of_half = neg_flat[..., :self.n_half].ravel()
        # the coupling 1/|k|^{(d-1)/2}, zero at k = 0; the lattice is its
        # only ultraviolet cutoff
        self.f_inf = form_factor_f(self.k_mag, d, math.inf)
        self.f_inf_sym = self.half_symbol(self.f_inf)

    # -- transforms ---------------------------------------------------------

    def fourier(self, u: np.ndarray) -> np.ndarray:
        """Unitary forward transform of a spatial field."""
        return self._c2c(sfft.fftn, u, self._norm_fwd)

    def inverse(self, v: np.ndarray, scratch: bool = False) -> np.ndarray:
        """Unitary inverse transform of a frequency field; scratch = True
        lets the transform write its result over v."""
        return self._c2c(sfft.ifftn, v, self._norm_inv, scratch)

    def fourier_dx(self, u: np.ndarray) -> np.ndarray:
        """dx-weighted transform sum_x u e^{-ik.x} dx (no 2pi normalization).

        This is the transform appearing in the phonon source f * F(|u|^2) and
        in every frequency-side Wirtinger gradient.
        """
        return self._c2c(sfft.fftn, u, self.dx)

    def phonon_source(self, w: np.ndarray) -> np.ndarray:
        """f_inf * fourier_dx(w): the source f F(|u|^2) of the phonon
        equation for w = |u|^2, a real field or a stack of them.

        scipy's fftn of a real array runs pocketfft's real-input transform
        and fills the conjugate half in C: 0.42 ms for one field at N=32,
        against 0.99 ms for an r2c transform whose conjugate half is filled
        in numpy (2-vCPU Xeon VM, numpy 2.4, scipy 1.17).
        """
        return self.f_inf * self.fourier_dx(w)

    def inverse_dk(self, v: np.ndarray) -> np.ndarray:
        """dk-weighted sum sum_k v e^{+ik.x} dk, inverse partner of fourier_dx."""
        return self._c2c(sfft.ifftn, v, self.dk * self.size)

    def _c2c(self, transform, a: np.ndarray, scale: float,
             scratch: bool = False) -> np.ndarray:
        # scaled in place; scratch = True lets the transform overwrite a,
        # a temporary of the caller's, which saves one array of the size of
        # a (a 32^3 component stack is 1.5 MB)
        out = transform(a, axes=self._axes(a), overwrite_x=scratch)
        out *= scale
        return out

    # -- real fields on the half lattice -------------------------------------

    def reflect(self, a: np.ndarray) -> np.ndarray:
        """a(-k) at the points of the half lattice, for a on the full
        lattice; a may carry one leading stacking axis."""
        lead = a.shape[:self._axes(a)[0]]  # () or the stacking axis
        flat = a.reshape(lead + (-1,))
        return np.take(flat, self._neg_of_half, axis=-1).reshape(
            lead + self.half_shape)

    def half_symbol(self, g: np.ndarray) -> tuple:
        """The pair (g(k), g(-k)) on the half lattice that field_real takes;
        g may be a (d, ...) stack."""
        return np.ascontiguousarray(g[..., :self.n_half]), self.reflect(g)

    def field_real(self, alpha: np.ndarray, sym: tuple) -> np.ndarray:
        """2 Re sum_k conj(alpha) g e^{-ik.x} dk, with sym = half_symbol(g).

        The spectrum alpha conj(g) is Hermitian-symmetrised on the half
        lattice, alpha conj(g) + conj(alpha(-k)) g(-k), and brought back by
        one c2r transform per component of g, so the field is real by
        construction.
        """
        g_half, g_neg = sym
        a_neg = np.conj(self.reflect(alpha))
        spec = alpha[..., :self.n_half] * _conj(g_half) + a_neg * g_neg
        spec *= self.dk * self.size
        return sfft.irfftn(spec, s=self.shape, axes=self._half_axes(spec))

    def _axes(self, a: np.ndarray) -> tuple:
        # allow one leading stacking axis (e.g. the d components of a vector)
        if a.ndim == self.d and a.shape == self.shape:
            return tuple(range(self.d))
        if a.ndim == self.d + 1 and a.shape[1:] == self.shape:
            return tuple(range(1, self.d + 1))
        raise GridMismatchError(f"field of shape {a.shape} does not live on {self}")

    def _half_axes(self, a: np.ndarray) -> tuple:
        if a.shape[-self.d:] != self.half_shape or a.ndim > self.d + 1:
            raise GridMismatchError(
                f"spectrum of shape {a.shape} does not live on the half "
                f"lattice of {self}")
        return tuple(range(a.ndim - self.d, a.ndim))

    # -- calculus -----------------------------------------------------------

    def free_phase(self, t) -> np.ndarray:
        """The free propagator e^{it Laplacian} as the multiplier
        exp(-it|k|^2) on the lattice, for a scalar t, or a stack of them, one
        per entry of a 1-D array of times.

        Only the distinct values of |k|^2 are exponentiated and then spread
        over the lattice, with the same arithmetic as the full-lattice exp:
        0.13 ms against 1.5 ms at d = 3, N = 32 (2-vCPU Xeon VM, numpy 2.4).
        """
        phase = np.exp(-1j * np.asarray(t)[..., None] * self._k_sq_distinct)
        return phase[..., self._k_sq_where]

    def grad_d(self, uk: np.ndarray) -> np.ndarray:
        """D u = -i grad u as a (d, N, ..., N) stack, from uk = fourier(u)."""
        return self._c2c(sfft.ifftn, self.k_vec * uk, self._norm_inv, True)

    def div_d(self, q: np.ndarray) -> np.ndarray:
        """D . q = sum_j D_j q_j of a (d, N, ..., N) stack q."""
        # the normalisations of fourier and inverse multiply to one
        qk = sfft.fftn(q, axes=self._axes(q))
        qk *= self.k_vec
        return sfft.ifftn(qk.sum(axis=0), axes=tuple(range(self.d)),
                          overwrite_x=True)

    # -- inner products and norms -------------------------------------------

    # ufunc reductions, never BLAS: a BLAS dot product leaves its worker
    # threads spinning for a fraction of a second after each call

    def inner_x(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(np.sum(np.conj(a) * b) * self.dx)

    def inner_k(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(np.sum(np.conj(a) * b) * self.dk)

    def norm_x(self, a: np.ndarray) -> float:
        return math.sqrt(abs2_sum(a) * self.dx)

    def norm_k(self, a: np.ndarray) -> float:
        return math.sqrt(abs2_sum(a) * self.dk)

    def lq_norm_x(self, a: np.ndarray, q: float) -> float:
        """Discrete L^q norm (sum |a|^q dx)^(1/q)."""
        return float(np.sum(np.abs(a) ** q) * self.dx) ** (1.0 / q)

    # -- misc ----------------------------------------------------------------

    def same_as(self, other: "SpectralGrid") -> bool:
        return (
            self.d == other.d and self.n == other.n and self.length == other.length
        )

    def check_field(self, a: np.ndarray) -> None:
        if a.shape != self.shape:
            raise GridMismatchError(
                f"field of shape {a.shape} does not match grid shape {self.shape}"
            )

    def __repr__(self) -> str:
        return f"SpectralGrid(d={self.d}, n={self.n}, length={self.length})"


def build_grid(d: int, n: int, length: float) -> SpectralGrid:
    return SpectralGrid(d, n, length)


def _conj(a: np.ndarray) -> np.ndarray:
    return np.conj(a) if np.iscomplexobj(a) else a


def abs2_sum(a: np.ndarray) -> float:
    """sum |a|^2 as a ufunc reduction."""
    return float(np.sum(a.real**2 + a.imag**2))


# -- phase points -------------------------------------------------------------


class PhasePoint:
    """Classical state z = (u, alpha): electron field on the x-lattice and
    phonon field on the k-lattice of one grid."""

    __slots__ = ("grid", "u", "alpha")

    def __init__(self, grid: SpectralGrid, u: np.ndarray, alpha: np.ndarray,
                 check: bool = True):
        u = np.asarray(u, dtype=np.complex128)
        alpha = np.asarray(alpha, dtype=np.complex128)
        if check:
            grid.check_field(u)
            grid.check_field(alpha)
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(alpha))):
                raise ValueError("phase point contains non-finite entries")
        self.grid = grid
        self.u = u
        self.alpha = alpha

    @classmethod
    def zero(cls, grid: SpectralGrid) -> "PhasePoint":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128),
                   np.zeros(grid.shape, dtype=np.complex128), check=False)

    @classmethod
    def random_unit(cls, grid: SpectralGrid,
                    rng: np.random.Generator) -> "PhasePoint":
        """Unit tangent direction with standard normal entries, drawn in the
        order u.real, u.imag, alpha.real, alpha.imag."""
        u, alpha = (rng.standard_normal(grid.shape)
                    + 1j * rng.standard_normal(grid.shape) for _ in range(2))
        v = cls(grid, u, alpha, check=False)
        return v.scaled(1.0 / v.norm())

    def copy(self) -> "PhasePoint":
        return PhasePoint(self.grid, self.u.copy(), self.alpha.copy(), check=False)

    def mass(self) -> float:
        """||u||^2 in the dx-weighted L2 norm."""
        return abs2_sum(self.u) * self.grid.dx

    def norm(self) -> float:
        """L2 (+) L2 norm of the pair."""
        return math.sqrt(self.grid.norm_x(self.u) ** 2
                         + self.grid.norm_k(self.alpha) ** 2)

    def distance(self, other: "PhasePoint") -> float:
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("phase points live on different grids")
        du = self.grid.norm_x(self.u - other.u)
        da = self.grid.norm_k(self.alpha - other.alpha)
        return math.sqrt(du**2 + da**2)

    def scaled(self, c: complex) -> "PhasePoint":
        return PhasePoint(self.grid, c * self.u, c * self.alpha, check=False)

    def add(self, other: "PhasePoint", c: complex = 1.0) -> "PhasePoint":
        return PhasePoint(self.grid, self.u + c * other.u,
                          self.alpha + c * other.alpha, check=False)

    def pairing(self, other: "PhasePoint") -> complex:
        """Weighted complex inner product on L2 (+) L2."""
        return (self.grid.inner_x(self.u, other.u)
                + self.grid.inner_k(self.alpha, other.alpha))


# -- form factors --------------------------------------------------------------


def form_factor_f(k_mag: np.ndarray, d: int, sigma: float) -> np.ndarray:
    """Electron-phonon coupling 1_{|k|<=sigma} / |k|^{(d-1)/2}, zero at k = 0."""
    k = np.asarray(k_mag, dtype=np.float64)
    out = np.zeros(k.shape)
    nz = k > 0
    out[nz] = k[nz] ** (-(d - 1) / 2.0)
    if math.isfinite(sigma):
        out[k > sigma] = 0.0
    return out


def gross_generator_b(k_mag: np.ndarray, d: int, sigma0: float) -> np.ndarray:
    """Dressing symbol -1_{|k|>=sigma0} / ((1+|k|^2)|k|^{(d-1)/2})."""
    k = np.asarray(k_mag, dtype=np.float64)
    out = np.zeros(k.shape)
    sel = (k >= sigma0) & (k > 0)
    out[sel] = -1.0 / ((1.0 + k[sel] ** 2) * k[sel] ** ((d - 1) / 2.0))
    return out


@dataclass
class FormFactorSet:
    """Precomputed coupling tables on one grid's frequency lattice; the
    full coupling f is grid.f_inf."""

    grid: SpectralGrid
    sigma0: float
    f_ir: np.ndarray       # f_{sigma0}, the infrared part kept by the dressing
    B: np.ndarray
    kB_stack: np.ndarray   # (d, ...) stack of k_j * B
    f_ir_sym: tuple        # half_symbol(f_ir)
    kB_sym: tuple          # half_symbol(kB_stack)
    pair_symbol: np.ndarray  # |B|^2 + 2 B f, the symbol generating V
    V: np.ndarray          # effective pair potential on the x-lattice
    V_hat: np.ndarray      # raw rfftn(V), cached for the convolution kernel
    sigma0_below_first_shell: bool = field(default=False)


def build_form_factors(grid: SpectralGrid, sigma0: float) -> FormFactorSet:
    """Tabulate f_{sigma0}, B, k B and the pair potential V.

    B runs from the infrared cutoff sigma0 to the edge of the lattice, which
    is the only ultraviolet cutoff.  The pair potential is the
    dk-quadrature of Re (|B|^2 + 2 B f) e^{-ik.x} with f = grid.f_inf.
    """
    if not sigma0 > 0:
        raise ValueError("the infrared cutoff sigma0 must be positive, "
                         f"got {sigma0}")
    k = grid.k_mag
    nonzero = k[k > 0]
    first_shell = float(nonzero.min())
    below = sigma0 < first_shell
    if below:
        warnings.warn(
            f"sigma0 = {sigma0} sits below the first lattice shell "
            f"{first_shell:.6g}; B starts at that shell", stacklevel=2)
    if np.any(np.abs(k - sigma0) < 1e-9):
        warnings.warn(
            f"sigma0 = {sigma0} coincides with a lattice shell; the cutoff "
            "indicator is ambiguous there, prefer a generic value",
            stacklevel=2)
    B = gross_generator_b(k, grid.d, sigma0)
    f_ir = form_factor_f(k, grid.d, sigma0)
    kB_stack = grid.k_vec * B
    s = B * B + 2.0 * B * grid.f_inf
    v_complex = grid.inverse_dk(s)
    resid = float(np.max(np.abs(v_complex.imag)))
    if resid > 1e-12 * (1.0 + float(np.max(np.abs(v_complex.real)))):
        raise AssertionError(f"pair potential has imaginary residue {resid}")
    v = v_complex.real
    return FormFactorSet(grid=grid, sigma0=float(sigma0), f_ir=f_ir, B=B,
                         kB_stack=kB_stack, f_ir_sym=grid.half_symbol(f_ir),
                         kB_sym=grid.half_symbol(kB_stack), pair_symbol=s,
                         V=v, V_hat=sfft.rfftn(v),
                         sigma0_below_first_shell=below)


# -- the auxiliary field A ------------------------------------------------------


def field_A(grid: SpectralGrid, alpha: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Evaluate A_{alpha,g}(x) = 2 Re sum_k conj(alpha) g e^{-ik.x} dk.

    g is a table on the k-lattice: real (the couplings f), purely imaginary
    (the dressing generator iB), or a (d, ...) stack for vector couplings like
    k B.  One c2r transform per component; the result is exactly real.
    Callers holding half_symbol(g) call grid.field_real directly.
    """
    grid.check_field(alpha)
    return grid.field_real(alpha, grid.half_symbol(g))


def field_A_half(grid: SpectralGrid, alpha: np.ndarray,
                 g: np.ndarray) -> np.ndarray:
    """The half-pairing P(x) = sum_k conj(alpha) g e^{-ik.x} dk (complex).

    field_A = 2 Re field_A_half; the complex half is what the dressed drift
    term pairs with D_x.
    """
    return np.conj(grid.inverse_dk(alpha * np.conj(g)))
