"""Finite-mode, occupancy-truncated second quantization.

The toy keeps a handful of particle plane-wave modes (momenta p, kinetic
|p|^2) and phonon modes (momenta k, unit frequency), with ladder operators
scaled so [a, a*] = eps.  Phonon emission and absorption shift the particle
momentum; transitions leaving the retained mode set are dropped (compressed
momentum conservation).  Two Hamiltonians live here: the direct one, with
the singular coupling f, and its Gross conjugate exp(iT/eps) H exp(-iT/eps),
which is compared term by term against the dressed expansion (infrared
coupling, pair potential, quadratic field term, drift term, and the
number-weighted constant).

Everything is dense linear algebra; model sizes are capped so correctness,
not scale, is the product.  Operator identities are asserted away from the
occupancy-truncation edge (sub-basis with total occupancy <= n_max/2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.integrate import solve_ivp

from .spectral import form_factor_f, gross_generator_b

HERMITICITY_TOL = 1e-10
EXPANSION_TOL = 1e-6
KLMN_A_CAP = 0.9
BOHR_SLACK = 1.1


@dataclass
class OperatorMatrix:
    """Dense operator with an optional certified-hermitian flag."""

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if self.hermitian:
            defect = np.linalg.norm(m - m.conj().T)
            if defect > HERMITICITY_TOL * (1.0 + np.linalg.norm(m)):
                raise AssertionError(f"hermiticity defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _sector_tuples(n_modes: int, n_max: int):
    """All occupation tuples of n_modes with total occupancy <= n_max."""
    out = []
    for total in range(n_max + 1):
        for combo in itertools.combinations_with_replacement(
                range(n_modes), total):
            occ = [0] * n_modes
            for c in combo:
                occ[c] += 1
            out.append(tuple(occ))
    return sorted(out)


def _momentum_table(momenta) -> np.ndarray:
    """(M, dim) momenta; a plain list of floats gives dim = 1."""
    m = np.asarray(momenta, dtype=float)
    return m[:, None] if m.ndim == 1 else m


class FockModel:
    """Workspace: basis index, ladder matrices, mode tables.

    Parameters
    ----------
    particle_momenta, phonon_momenta : arrays of shape (M, dim) (a plain
        list of floats is promoted to one-dimensional momenta).
    dk : quadrature weight attached to each phonon mode in mode sums.
    eps : semiclassical parameter; [a, a*] = eps.
    n_max_particles, n_max_phonons : per-sector total occupancy cutoffs.
    sigma0, sigma : infrared/ultraviolet cutoffs splitting the coupling
        into its f_{sigma0} part and the dressing range of B.
    """

    def __init__(self, particle_momenta, phonon_momenta, dk: float,
                 eps: float, n_max_particles: int, n_max_phonons: int,
                 sigma0: float, sigma: float = math.inf,
                 max_dim: int = 5000):
        self.p = _momentum_table(particle_momenta)
        self.k = _momentum_table(phonon_momenta)
        if self.p.shape[1] != self.k.shape[1]:
            raise ValueError("particle and phonon momenta need equal dimension")
        self.space_dim = self.p.shape[1]
        self.n_particle_modes = self.p.shape[0]
        self.n_phonon_modes = self.k.shape[0]
        self.dk = float(dk)
        self.eps = float(eps)
        self.n_max_particles = int(n_max_particles)
        self.n_max_phonons = int(n_max_phonons)
        self.sigma0 = float(sigma0)
        self.sigma = float(sigma)

        k_mag = np.linalg.norm(self.k, axis=1)
        self.f = form_factor_f(k_mag, self.space_dim, self.sigma)
        self.f_ir = form_factor_f(k_mag, self.space_dim, self.sigma0)
        self.B = gross_generator_b(k_mag, self.space_dim, self.sigma0,
                                   self.sigma)
        self.pair_symbol = self.B**2 + 2.0 * self.B * self.f

        p_tuples = _sector_tuples(self.n_particle_modes, self.n_max_particles)
        f_tuples = _sector_tuples(self.n_phonon_modes, self.n_max_phonons)
        self.basis = [pt + ft for pt in p_tuples for ft in f_tuples]
        self.dim = len(self.basis)
        if self.dim > max_dim:
            raise ValueError(
                f"basis dimension {self.dim} exceeds the dense-algebra cap "
                f"{max_dim}")
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.occupancy = np.asarray(self.basis, dtype=np.int64)

        n_modes = self.n_particle_modes + self.n_phonon_modes
        self._lower = [self._build_lowering(m) for m in range(n_modes)]

        # one-particle matrices on the particle mode space
        self.kinetic_1p = np.diag(
            np.sum(self.p**2, axis=1)).astype(np.complex128)
        self.D_1p = tuple(np.diag(self.p[:, ax]).astype(np.complex128)
                          for ax in range(self.space_dim))
        self.E = tuple(self._build_shift(self.k[j])
                       for j in range(self.n_phonon_modes))

    # -- construction helpers ------------------------------------------------

    def _build_lowering(self, mode: int) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for col, occ in enumerate(self.basis):
            n = occ[mode]
            if n == 0:
                continue
            target = list(occ)
            target[mode] = n - 1
            row = self.index[tuple(target)]
            a[row, col] = math.sqrt(self.eps * n)
        return a

    def _build_shift(self, kvec: np.ndarray) -> np.ndarray:
        """Compressed one-particle matrix of multiplication by e^{-ik.x}:
        |p - k><p| whenever both momenta are retained modes."""
        e = np.zeros((self.n_particle_modes, self.n_particle_modes),
                     dtype=np.complex128)
        for col in range(self.n_particle_modes):
            target = self.p[col] - kvec
            hits = np.where(
                np.all(np.abs(self.p - target) < 1e-9, axis=1))[0]
            if hits.size:
                e[hits[0], col] = 1.0
        return e

    # -- ladder accessors -----------------------------------------------------

    def psi(self, m: int) -> np.ndarray:
        return self._lower[m]

    def a(self, j: int) -> np.ndarray:
        return self._lower[self.n_particle_modes + j]

    def number_operator(self, sector: str) -> np.ndarray:
        """Diagonal N1 or N2 with spectrum eps * occupancy."""
        if sector == "particles":
            tot = self.occupancy[:, : self.n_particle_modes].sum(axis=1)
        elif sector == "phonons":
            tot = self.occupancy[:, self.n_particle_modes:].sum(axis=1)
        else:
            raise ValueError("sector must be 'particles' or 'phonons'")
        return np.diag(self.eps * tot).astype(np.complex128)

    def gamma(self, m_1p: np.ndarray) -> np.ndarray:
        """Second quantization sum_ij M_ij psi_i* psi_j of a one-particle
        matrix (restriction to n particles equals eps * sum_j M at particle j)."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mp = self.n_particle_modes
        for col, occ in enumerate(self.basis):
            for j in range(mp):
                nj = occ[j]
                if nj == 0:
                    continue
                for i in range(mp):
                    mij = m_1p[i, j]
                    if mij == 0:
                        continue
                    target = list(occ)
                    target[j] = nj - 1
                    ni = target[i]
                    target[i] = ni + 1
                    row = self.index.get(tuple(target))
                    if row is None:
                        continue
                    out[row, col] += mij * self.eps * math.sqrt(
                        nj * (ni + 1))
        return out

    def total_occupancy(self) -> np.ndarray:
        return self.occupancy.sum(axis=1)

    def low_occupancy_indices(self, n_cut: int) -> np.ndarray:
        return np.where(self.total_occupancy() <= n_cut)[0]


# -- Hamiltonians ----------------------------------------------------------------


def _coupled_hamiltonian(model: FockModel, coupling) -> np.ndarray:
    """Kinetic + phonon number + sum_j sqrt(dk) c_j (a_j* Gamma(E_j) + h.c.)
    for the coupling table c (one entry per phonon mode)."""
    h = model.gamma(model.kinetic_1p)
    h += sum(model.a(j).conj().T @ model.a(j)
             for j in range(model.n_phonon_modes))
    for j in np.flatnonzero(coupling):
        coup = math.sqrt(model.dk) * coupling[j]
        block = model.a(j).conj().T @ model.gamma(model.E[j])
        h += coup * (block + block.conj().T)
    return h


def build_hamiltonian(model: FockModel) -> OperatorMatrix:
    """Direct Hamiltonian: kinetic + phonon number + f-coupling."""
    return OperatorMatrix(_coupled_hamiltonian(model, model.f), hermitian=True)


def build_free_hamiltonian(model: FockModel) -> OperatorMatrix:
    return OperatorMatrix(
        _coupled_hamiltonian(model, np.zeros(model.n_phonon_modes)),
        hermitian=True)


def build_T(model: FockModel) -> OperatorMatrix:
    """Gross-transform generator sum_k sqrt(dk) B_k (i a_k* Gamma(E_k) + h.c.)."""
    t = np.zeros((model.dim, model.dim), dtype=np.complex128)
    for j in range(model.n_phonon_modes):
        if model.B[j] == 0.0:
            continue
        coup = math.sqrt(model.dk) * model.B[j]
        block = 1j * model.a(j).conj().T @ model.gamma(model.E[j])
        t += coup * (block + block.conj().T)
    return OperatorMatrix(t, hermitian=True)


def unitary_from_generator(generator: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * G) for hermitian G via eigendecomposition (exactly
    unitary up to roundoff; backward error at the 1e-12 class of dense
    scaling-and-squaring)."""
    vals, vecs = sla.eigh(generator, driver="evr")
    return (vecs * np.exp(1j * scale * vals)) @ vecs.conj().T


def dress_hamiltonian(model: FockModel, h: OperatorMatrix,
                      t: OperatorMatrix) -> OperatorMatrix:
    """U H U* with U = exp(i T / eps)."""
    u = unitary_from_generator(t.matrix, 1.0 / model.eps)
    dressed = u @ h.matrix @ u.conj().T
    return OperatorMatrix(dressed, hermitian=True)


def assemble_dressed(model: FockModel, composed_shifts: bool = True) -> dict:
    """Term-by-term finite-mode assembly of the dressed expansion.

    Returns the named summands and their sum under key "total":
      - "infrared": H_{sigma0},
      - "pair": the normal-ordered pair-potential two-body operator,
      - "quadratic": the a#(kB)^2 and 2 a* a block,
      - "drift": the D-coupled block,
      - "constant": the number-weighted constant, kept in its mode-compressed
        operator form sum_k dk s(k) eps Gamma(E_k* E_k) (the scalar
        eps^2 n <B, B+2f> is its restriction to fully shiftable modes).

    With composed_shifts the e^{-ikx} factors multiply as the compressed
    matrices they are in the model; this is the convention under which the
    conjugation identity holds up to truncation-edge effects.
    """
    dim = model.dim
    sd = math.sqrt(model.dk)

    infrared = _coupled_hamiltonian(model, model.f_ir)

    pair = np.zeros((dim, dim), dtype=np.complex128)
    constant = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(model.n_phonon_modes):
        s = model.pair_symbol[j]
        if s == 0.0:
            continue
        ge = model.gamma(model.E[j])
        gee = model.gamma(model.E[j].conj().T @ model.E[j])
        pair += model.dk * s * (ge.conj().T @ ge - model.eps * gee)
        constant += model.dk * s * model.eps * gee

    quadratic = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(model.n_phonon_modes):
        for l in range(model.n_phonon_modes):
            kdot = float(model.k[j] @ model.k[l])
            w = model.dk * kdot * model.B[j] * model.B[l]
            if w == 0.0:
                continue
            if composed_shifts:
                e_jl = model.E[j] @ model.E[l]
                e_jl_mix = model.E[j] @ model.E[l].conj().T
            else:
                e_jl = model._build_shift(model.k[j] + model.k[l])
                e_jl_mix = model._build_shift(model.k[j] - model.k[l])
            creation = (model.a(j).conj().T @ model.a(l).conj().T
                        @ model.gamma(e_jl))
            quadratic += w * (creation + creation.conj().T)
            quadratic += 2.0 * w * (model.a(j).conj().T @ model.a(l)
                                    @ model.gamma(e_jl_mix))

    drift = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(model.n_phonon_modes):
        if model.B[j] == 0.0:
            continue
        kd = sum(model.k[j][ax] * model.D_1p[ax]
                 for ax in range(model.space_dim))
        block = model.a(j).conj().T @ model.gamma(model.E[j] @ kd)
        drift += -2.0 * sd * model.B[j] * (block + block.conj().T)

    total = infrared + pair + quadratic + drift + constant
    return {"infrared": infrared, "pair": pair, "quadratic": quadratic,
            "drift": drift, "constant": constant, "total": total}


def dressed_comparison(model: FockModel, n_cut: int | None = None) -> dict:
    """Conjugated U H U* versus the term-assembled expansion, compared on
    the sub-basis with total occupancy <= n_cut (default n_max/2)."""
    h = build_hamiltonian(model)
    t = build_T(model)
    conj = dress_hamiltonian(model, h, t)
    parts = assemble_dressed(model)
    if n_cut is None:
        n_cut = min(model.n_max_particles, model.n_max_phonons) // 2
    sel = model.low_occupancy_indices(n_cut)
    diff = conj.matrix[np.ix_(sel, sel)] - parts["total"][np.ix_(sel, sel)]
    scale = np.linalg.norm(conj.matrix[np.ix_(sel, sel)], 2)
    return {
        "conjugated": conj,
        "assembled": OperatorMatrix(parts["total"], hermitian=True),
        "parts": parts,
        "restricted_diff_norm": float(np.linalg.norm(diff, 2)),
        "restricted_scale": float(scale),
        "n_cut": int(n_cut),
        "subspace_dim": int(sel.size),
    }


# -- states -----------------------------------------------------------------------


def vacuum(model: FockModel) -> np.ndarray:
    v = np.zeros(model.dim, dtype=np.complex128)
    v[model.index[tuple([0] * (model.n_particle_modes
                               + model.n_phonon_modes))]] = 1.0
    return v


def coherent_state(model: FockModel, particle_amps,
                   phonon_amps) -> np.ndarray:
    """Displaced vacuum exp((a*(z) - a(z))/eps) Omega concentrated at the
    classical mode amplitudes; expectation of each annihilator is the
    amplitude, occupancies are Poisson with mean |z_m|^2 / eps."""
    phi = np.asarray(particle_amps, dtype=np.complex128)
    alp = np.asarray(phonon_amps, dtype=np.complex128)
    if phi.shape != (model.n_particle_modes,):
        raise ValueError("particle amplitude vector has wrong length")
    if alp.shape != (model.n_phonon_modes,):
        raise ValueError("phonon amplitude vector has wrong length")
    for norm2, n_max, name in (
            (float(np.sum(np.abs(phi) ** 2)), model.n_max_particles,
             "particle"),
            (float(np.sum(np.abs(alp) ** 2)), model.n_max_phonons, "phonon")):
        if norm2 / model.eps > n_max / 3.0:
            raise ValueError(
                f"{name} amplitude too large for the truncation: "
                f"|z|^2/eps = {norm2 / model.eps:.3f} > n_max/3 = "
                f"{n_max / 3.0:.3f}")
    gen = np.zeros((model.dim, model.dim), dtype=np.complex128)
    amps = np.concatenate([phi, alp])
    for m, zm in enumerate(amps):
        if zm != 0:
            gen += zm * model._lower[m].conj().T - np.conj(zm) * model._lower[m]
    # gen is anti-hermitian; exp(gen) = exp(-i (i gen)) with i gen hermitian
    u = unitary_from_generator(1j * gen, -1.0 / model.eps)
    return u @ vacuum(model)


def weyl_operator(model: FockModel, mode_amps) -> np.ndarray:
    """W(f) = exp(i phi(f)), phi(f) = (a(f) + a*(f))/sqrt(2), f given by its
    amplitudes on all modes (particles first)."""
    f = np.asarray(mode_amps, dtype=np.complex128)
    af = sum(np.conj(fm) * model._lower[m] for m, fm in enumerate(f))
    phi_f = (af + af.conj().T) / math.sqrt(2.0)
    return unitary_from_generator(phi_f, 1.0)


def expect(op: np.ndarray, state: np.ndarray) -> complex:
    return complex(np.vdot(state, op @ state))


def mode_expectations(model: FockModel, state: np.ndarray) -> np.ndarray:
    """<a_m> for every mode, particles first."""
    return np.array([expect(low, state) for low in model._lower])


# -- quantum evolution ---------------------------------------------------------------


class Propagator:
    """exp(-i t H / eps) applied through one eigendecomposition."""

    def __init__(self, h: OperatorMatrix, eps: float):
        self.eps = eps
        self.vals, self.vecs = sla.eigh(h.matrix, driver="evr")

    def apply(self, state: np.ndarray, t: float) -> np.ndarray:
        coef = self.vecs.conj().T @ state
        return self.vecs @ (np.exp(-1j * t * self.vals / self.eps) * coef)


# -- classical finite-mode flow --------------------------------------------------------


def classical_rhs(model: FockModel, phi: np.ndarray,
                  alp: np.ndarray) -> tuple:
    """-i grad_zbar of the finite-mode symbol of the direct Hamiltonian
    (each ladder replaced by its mode amplitude in the normal-ordered form)."""
    dphi = (np.sum(model.p**2, axis=1)) * phi
    dalp = alp.copy()
    for j in range(model.n_phonon_modes):
        if model.f[j] == 0.0:
            continue
        c = math.sqrt(model.dk) * model.f[j]
        e = model.E[j]
        dphi += c * (np.conj(alp[j]) * (e @ phi) + alp[j] * (e.conj().T @ phi))
        dalp[j] += c * np.vdot(phi, e @ phi)
    return -1j * dphi, -1j * dalp


def classical_flow(model: FockModel, phi0, alp0, times,
                   rtol: float = 1e-12, atol: float = 1e-12) -> np.ndarray:
    """High-order reference integration of the finite-mode Hamiltonian ODE,
    returning mode amplitudes (particles first) at the requested times."""
    mp = model.n_particle_modes
    mf = model.n_phonon_modes

    def rhs(_t, y):
        zc = y[: mp + mf] + 1j * y[mp + mf:]
        dphi, dalp = classical_rhs(model, zc[:mp], zc[mp:])
        dz = np.concatenate([dphi, dalp])
        return np.concatenate([dz.real, dz.imag])

    z0 = np.concatenate([np.asarray(phi0, dtype=np.complex128),
                         np.asarray(alp0, dtype=np.complex128)])
    y0 = np.concatenate([z0.real, z0.imag])
    sol = solve_ivp(rhs, (0.0, max(times)), y0, t_eval=times, method="DOP853",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"classical reference flow failed: {sol.message}")
    out = sol.y[: mp + mf, :] + 1j * sol.y[mp + mf:, :]
    return out.T


# -- experiments -----------------------------------------------------------------------


def correspondence_experiment(model_factory, eps_values, particle_amps,
                              phonon_amps, t_final: float,
                              n_times: int = 6) -> dict:
    """Quantum mode expectations under e^{-itH/eps} against the classical
    flow of the same finite-mode symbol, for a decreasing family of eps.

    model_factory(eps) must return models sharing the mode layout.  Returns
    the error table err[eps][t], the final errors in decreasing eps, and
    whether they fall with eps (BOHR_SLACK allowed; no rate claimed).
    """
    times = np.linspace(0.0, t_final, n_times)
    table = {}
    reference = None
    for eps in eps_values:
        model = model_factory(eps)
        if reference is None:
            reference = classical_flow(model, particle_amps, phonon_amps,
                                       times)
        h = build_hamiltonian(model)
        prop = Propagator(h, model.eps)
        psi0 = coherent_state(model, particle_amps, phonon_amps)
        errs = []
        for i, t in enumerate(times):
            psi_t = prop.apply(psi0, t)
            modes = mode_expectations(model, psi_t)
            errs.append(float(np.linalg.norm(modes - reference[i])))
        table[eps] = errs
    eps_desc = sorted(table, reverse=True)
    final = [table[eps][-1] for eps in eps_desc]
    monotone = all(b <= BOHR_SLACK * a for a, b in zip(final, final[1:]))
    return {"times": times.tolist(), "errors": table, "eps": eps_desc,
            "final_errors": final, "monotone": monotone}


def klmn_check(model: FockModel, n_samples: int = 1000, seed: int = 0,
               sectors=(1, 2), a_cap: float = KLMN_A_CAP) -> dict:
    """Sampled relative form bound |<H_I>| <= a <H0> + C ||phi||^2 for the
    dressed interaction, over random states in fixed-N1 sectors.

    Reports the smallest sampled a on a grid of C, and whether some pair
    (a <= a_cap, C) dominates every sample (existence claim only)."""
    h0 = build_free_hamiltonian(model).matrix
    comp = dress_hamiltonian(model, build_hamiltonian(model), build_T(model))
    h_i = comp.matrix - h0
    n1 = model.occupancy[:, : model.n_particle_modes].sum(axis=1)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n_samples):
        sector = sectors[rng.integers(len(sectors))]
        idx = np.where(n1 == sector)[0]
        v = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        state = np.zeros(model.dim, dtype=np.complex128)
        state[idx] = v / np.linalg.norm(v)
        xs.append(float(np.vdot(state, h0 @ state).real))
        ys.append(abs(complex(np.vdot(state, h_i @ state))))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    c_grid = np.linspace(0.0, float(ys.max()) * 1.5 + 1e-12, 121)
    best = None
    for c in c_grid:
        excess = ys - c
        mask = excess > 0
        if not np.any(mask):
            a_needed = 0.0
        elif np.any(xs[mask] <= 1e-14):
            continue
        else:
            a_needed = float(np.max(excess[mask] / xs[mask]))
        if best is None or a_needed < best[0]:
            best = (a_needed, float(c))
    found = best is not None and best[0] <= a_cap
    return {"a": None if best is None else best[0],
            "C": None if best is None else best[1],
            "satisfied": bool(found),
            "norm_kB_sq": float(model.dk * np.sum(
                np.sum(model.k**2, axis=1) * model.B**2)),
            "samples": int(n_samples)}
