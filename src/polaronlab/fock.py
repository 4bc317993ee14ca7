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

The model keeps its basis once, as the (dim, M) occupancy array of its M
modes in lexicographic order (the vacuum is row 0), and two per-mode
ladder tables: for a_m and a_m* the image (index and value) of every
basis state, with a null state for the images that lowering an empty mode
or raising past the occupancy cap drop.  Operators are scipy.sparse arrays
built from the tables.  A monomial of ladder operators is applied to the
whole basis at once by indexing through its factors, right
to left, so truncation acts at each factor as in a product of the
truncated matrices; monomials with the same number of factors run as one
stack, and each operator is one sparse construction over the (row,
column, value) triples of all its terms.  No operator is kept on the
model.  An OperatorMatrix keeps them sparse (a dense copy is built only on
demand).  Every exponential of the layer is one Chebyshev series in a
sparse hermitian generator, mapped into [-1, 1] by a Gershgorin enclosure
of its spectrum: the propagator e^{-itH/eps} and the Weyl operators
(coherent states among them) apply it to states, and a Propagator makes
the enclosure once for its operator, so each apply pays only sparse
products.  The Gross conjugation applies the series of exp(iT/eps) to the
sparse identity, which yields the whole unitary U as a csr array, and
returns U H U* from two sparse products.  U keeps the nonzero pattern of
the powers of T, which conserve particle number and total momentum, so
nothing is stored across those sectors.  The layer calls no
eigendecomposition.  Model sizes are capped before the basis is
enumerated, so correctness, not scale, is the product.  Operator
identities are asserted away from the occupancy-truncation edge
(sub-basis with total occupancy <= n_max/2).

The one SciPy module that only this layer needs (solve_ivp) is imported at
its call site, and the Bessel functions of the Chebyshev coefficients come
from scipy.special, which scipy.fft loads for the lattice layer.  So
importing the module loads scipy.sparse and nothing more of SciPy: a
process that never builds a Fock operator does not pay for
scipy.integrate, scipy.optimize, scipy.linalg, scipy.sparse.linalg or
scipy.sparse.csgraph, and the conjugation and the form-bound samples load
none of them either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import jv  # loaded with scipy.fft by .spectral

from .spectral import abs2_sum, form_factor_f, gross_generator_b

HERMITICITY_TOL = 1e-10
EXPANSION_TOL = 1e-6
# klmn_check samples states with N1 in KLMN_SECTORS and certifies a form
# bound with a <= KLMN_A_CAP
KLMN_SECTORS = (1, 2)
KLMN_A_CAP = 0.9
BOHR_SLACK = 1.1
# the final Bohr error must fall at least like eps**BOHR_RATE from the
# largest eps to the smallest
BOHR_RATE = 0.5
# relative and absolute tolerance of the DOP853 reference in classical_flow
CLASSICAL_FLOW_TOL = 1e-12
# the Chebyshev series of e^{-i tau H} stops when the discarded Bessel tail
# is below the unit roundoff (expm_multiply's target too), and refuses to
# take more than CHEBYSHEV_TERMS terms (sparse products); with [a - b, a + b]
# the spectral enclosure of H it takes about tau*b + 11 (tau*b)^(1/3) terms
CHEBYSHEV_TOL = 2.0**-53
CHEBYSHEV_TERMS = 10_000


def _frobenius(m: sparse.csr_array) -> float:
    """Frobenius norm of a sparse matrix (of its stored entries), as a ufunc
    sum: np.linalg.norm is a BLAS dot, threaded on long vectors."""
    return math.sqrt(abs2_sum(m.data))


@dataclass
class OperatorMatrix:
    """Sparse (csr) hermitian operator, certified on construction; a dense
    input is converted."""

    csr: sparse.csr_array

    def __post_init__(self):
        m = self.csr if sparse.issparse(self.csr) else np.asarray(self.csr)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        m = sparse.csr_array(m, dtype=np.complex128, copy=True)
        m.sum_duplicates()
        defect = _frobenius(m - m.conj().T)
        if defect > HERMITICITY_TOL * (1.0 + _frobenius(m)):
            raise AssertionError(f"hermiticity defect {defect:.3e}")
        self.csr = m

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy, built on each access."""
        return self.csr.toarray()

    @property
    def dim(self) -> int:
        return self.csr.shape[0]


def _sector_occupations(n_modes: int, n_max: int) -> np.ndarray:
    """All occupations of n_modes with total occupancy <= n_max, one row
    each, in lexicographic order: mode by mode, a row with r quanta left
    is followed by its r + 1 extensions 0, ..., r."""
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        parent = np.repeat(np.arange(len(occ)), n_max + 1 - occ.sum(axis=1))
        n = np.arange(parent.size) - np.searchsorted(parent, parent)
        occ = np.column_stack([occ[parent], n])
    return occ


def _ladder_tables(occupancy: np.ndarray, eps: float) -> tuple:
    """(index, value), two (2M, dim + 1) tables of the M modes' ladder
    operators: row m is a_m and row M + m is a_m*, which send basis state s
    to value[., s] times state index[., s].  Column dim is a null state,
    the target of lowering an empty mode and of raising past the occupancy
    cap; it maps to itself with value 0.

    a_m|n> = sqrt(eps n_m)|n - e_m>.  The basis is sorted lexicographically,
    so the mixed-radix keys of its occupation tuples increase and
    searchsorted finds each target state (lowering never leaves the basis);
    raising is its transpose.  The keys are int64: a ValueError if they
    could overflow, radix**M > 2**63 - 1."""
    dim, n_modes = occupancy.shape
    radix = int(occupancy.max(initial=0)) + 1
    if radix ** n_modes > 2**63 - 1:
        raise ValueError(
            f"{n_modes} modes at occupancy cap {radix - 1} overflow the int64 "
            f"occupation keys: {radix}**{n_modes} > 2**63 - 1")
    weights = radix ** np.arange(n_modes - 1, -1, -1, dtype=np.int64)
    keys = occupancy @ weights
    index = np.full((2 * n_modes, dim + 1), dim, dtype=np.intp)
    value = np.zeros((2 * n_modes, dim + 1))
    for m in range(n_modes):
        cols = np.flatnonzero(occupancy[:, m])
        rows = np.searchsorted(keys, keys[cols] - weights[m])
        vals = np.sqrt(eps * occupancy[cols, m])
        index[m, cols], value[m, cols] = rows, vals
        index[n_modes + m, rows], value[n_modes + m, rows] = cols, vals
    return index, value


def _momentum_table(momenta) -> np.ndarray:
    """(M, dim) momenta; a plain list of floats gives dim = 1."""
    m = np.asarray(momenta, dtype=float)
    return m[:, None] if m.ndim == 1 else m


class FockModel:
    """Workspace: the occupation basis as one (dim, M) array, its two
    ladder tables, and the mode tables and one-particle matrices.

    Parameters
    ----------
    particle_momenta, phonon_momenta : arrays of shape (M, dim) (a plain
        list of floats is promoted to one-dimensional momenta).
    dk : quadrature weight attached to each phonon mode in mode sums.
    eps : semiclassical parameter; [a, a*] = eps.
    n_max_particles, n_max_phonons : per-sector total occupancy cutoffs.
    sigma0 : infrared cutoff splitting the coupling f into its f_{sigma0}
        part and the dressing range |k| >= sigma0 of B; the retained phonon
        modes are the only ultraviolet cutoff.
    max_dim : basis-size guard; a larger occupation basis is refused.
    """

    def __init__(self, particle_momenta, phonon_momenta, dk: float,
                 eps: float, n_max_particles: int, n_max_phonons: int,
                 sigma0: float, max_dim: int = 5000):
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

        k_mag = np.linalg.norm(self.k, axis=1)
        self.f = form_factor_f(k_mag, self.space_dim, math.inf)
        self.f_ir = form_factor_f(k_mag, self.space_dim, self.sigma0)
        self.B = gross_generator_b(k_mag, self.space_dim, self.sigma0)
        self.pair_symbol = self.B**2 + 2.0 * self.B * self.f

        sectors = ((self.n_particle_modes, self.n_max_particles),
                   (self.n_phonon_modes, self.n_max_phonons))
        # M modes hold comb(M + n, M) occupation tuples of total <= n
        self.dim = math.prod(math.comb(m + n, m) for m, n in sectors)
        if self.dim > max_dim:
            raise ValueError(
                f"basis dimension {self.dim} exceeds the basis-size guard "
                f"max_dim = {max_dim}")
        self.n_modes = self.n_particle_modes + self.n_phonon_modes
        p_occ, f_occ = (_sector_occupations(m, n) for m, n in sectors)
        # the sector product in lexicographic order: each particle row
        # followed by every phonon row
        self.occupancy = np.hstack([np.repeat(p_occ, len(f_occ), axis=0),
                                    np.tile(f_occ, (len(p_occ), 1))])
        self._ladder_index, self._ladder_value = _ladder_tables(
            self.occupancy, self.eps)

        # one-particle matrices on the particle mode space
        self.kinetic_1p = np.diag(
            np.sum(self.p**2, axis=1)).astype(np.complex128)
        self.D_1p = tuple(np.diag(self.p[:, ax]).astype(np.complex128)
                          for ax in range(self.space_dim))
        self.E = tuple(self._build_shift(self.k[j])
                       for j in range(self.n_phonon_modes))

    # -- construction helpers ------------------------------------------------

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

    def psi(self, m: int) -> sparse.csr_array:
        """The lowering operator a_m (particles first), built from the
        ladder tables on each call."""
        return _ladder_sum(self, [(np.ones(1), np.array([[m]]))])

    def sector_totals(self) -> tuple:
        """Total particle and phonon occupancy of every basis state."""
        mp = self.n_particle_modes
        return (self.occupancy[:, :mp].sum(axis=1),
                self.occupancy[:, mp:].sum(axis=1))

    def gamma(self, m_1p: np.ndarray) -> sparse.csr_array:
        """Second quantization sum_ij M_ij psi_i* psi_j of a one-particle
        matrix (restriction to n particles equals eps * sum_j M at particle j).
        Exact on the truncated basis: a hop keeps the particle number."""
        return _ladder_sum(self, [_gamma_terms(self, m_1p)])

    def low_occupancy_indices(self, n_cut: int) -> np.ndarray:
        return np.where(self.occupancy.sum(axis=1) <= n_cut)[0]


# -- operators from the ladder tables --------------------------------------------
#
# A monomial c X_1 ... X_k of ladder operators is its coefficient c and its
# factor codes, left to right: code m is a_m and code M + m is a_m*, for the
# M modes numbered particles first.  A list of terms holds (coefficients,
# codes) pairs, the codes an (n, k) array of n monomials of k factors.


def _gamma_terms(model: FockModel, m_1p: np.ndarray, prefix=()) -> tuple:
    """X psi_i* psi_j with coefficient M_ij over the nonzero entries of the
    one-particle matrix M, X the ladder monomial with codes prefix."""
    i, j = np.nonzero(m_1p)
    codes = np.empty((i.size, len(prefix) + 2), dtype=np.intp)
    codes[:, :len(prefix)] = prefix
    codes[:, -2] = model.n_modes + i
    codes[:, -1] = j
    return m_1p[i, j], codes


def _field_terms(model: FockModel, coupling, one_particle) -> list:
    """sqrt(dk) c_j a_j* Gamma(M_j) over the modes with c_j != 0, for the
    coupling table c and the one-particle matrices M."""
    terms = []
    for j in np.flatnonzero(coupling):
        coefs, codes = _gamma_terms(
            model, one_particle[j],
            (model.n_modes + model.n_particle_modes + j,))
        terms.append((math.sqrt(model.dk) * coupling[j] * coefs, codes))
    return terms


def _apply_monomials(model: FockModel, codes: np.ndarray) -> tuple:
    """(rows, values), both (dim, n): the n monomials of codes send basis
    state s to values[s, .] times state rows[s, .].  Every state runs
    through the factors right to left in the ladder tables, so truncation
    acts at each factor, as in a product of the truncated matrices; a
    truncated image has row dim (the null state) and value 0."""
    index, value = model._ladder_index.ravel(), model._ladder_value.ravel()
    rows = np.arange(model.dim)[:, None]
    values = 1.0
    for start in codes.T[::-1, None, :] * (model.dim + 1):
        at = start + rows
        values = values * value.take(at)
        rows = index.take(at)
    return rows, values


def _ladder_sum(model: FockModel, terms, hermitian=()) -> sparse.csr_array:
    """sum_t c_t X_t over the monomials of the terms, plus each monomial of
    hermitian and its adjoint.  Monomials with the same number of factors
    run as one stack, and the operator is one sparse construction over the
    concatenated (row, column, value) triples, which sums their duplicates;
    an adjoint half is its monomial's triples swapped and conjugated."""
    stacks = {}
    for adjoint, pairs in ((False, terms), (True, hermitian)):
        for coefs, codes in pairs:
            stacks.setdefault((adjoint, codes.shape[1]), []).append(
                (coefs, codes))
    dim = model.dim
    triples = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for (adjoint, _), pairs in stacks.items():
        coefs = np.concatenate([c for c, _ in pairs])
        rows, values = _apply_monomials(
            model, np.concatenate([k for _, k in pairs]))
        (keep,) = np.nonzero(rows.ravel() < dim)
        t = (rows.take(keep), keep // coefs.size,
             (values * coefs).take(keep))
        triples.append(t)
        if adjoint:
            triples.append((t[1], t[0], t[2].conj()))
    rows, cols, data = (np.concatenate(x) for x in zip(*triples))
    out = sparse.csr_array((data, (rows, cols)), shape=(dim, dim),
                           dtype=np.complex128)
    out.eliminate_zeros()
    return out


# -- Hamiltonians ----------------------------------------------------------------


def _coupled_hamiltonian(model: FockModel, coupling) -> sparse.csr_array:
    """Kinetic + phonon number + sum_j sqrt(dk) c_j (a_j* Gamma(E_j) + h.c.)
    for the coupling table c (one entry per phonon mode)."""
    phonons = model.n_particle_modes + np.arange(model.n_phonon_modes)
    number = np.column_stack([model.n_modes + phonons, phonons])
    return _ladder_sum(
        model, [_gamma_terms(model, model.kinetic_1p),
                (np.ones(model.n_phonon_modes), number)],
        _field_terms(model, coupling, model.E))


def build_hamiltonian(model: FockModel) -> OperatorMatrix:
    """Direct Hamiltonian: kinetic + phonon number + f-coupling."""
    return OperatorMatrix(_coupled_hamiltonian(model, model.f))


def build_free_hamiltonian(model: FockModel) -> OperatorMatrix:
    return OperatorMatrix(
        _coupled_hamiltonian(model, np.zeros(model.n_phonon_modes)))


def build_T(model: FockModel) -> OperatorMatrix:
    """Gross-transform generator sum_k sqrt(dk) B_k (i a_k* Gamma(E_k) + h.c.)."""
    return OperatorMatrix(_ladder_sum(
        model, (), _field_terms(model, 1j * model.B, model.E)))


def dress_hamiltonian(model: FockModel, h: OperatorMatrix,
                      t: OperatorMatrix) -> OperatorMatrix:
    """U H U* with U = exp(i T / eps): the Chebyshev series of e^{-i tau T}
    at tau = -1/eps applied to the sparse identity, which yields U as a csr
    array.  U keeps the nonzero pattern of the powers of T, so neither U
    nor U H U* stores an entry across the sectors that H and T conserve."""
    identity = sparse.eye_array(h.dim, dtype=np.complex128, format="csr")
    u = _chebyshev_exp(_enclosure(t.csr), -1.0 / model.eps, identity)
    return OperatorMatrix(u @ h.csr @ u.conj().T)


def assemble_dressed(model: FockModel) -> dict:
    """Term-by-term finite-mode assembly of the dressed expansion.

    Returns the named summands (sparse) and their sum under key "total":
      - "infrared": H_{sigma0},
      - "pair": the normal-ordered pair-potential two-body operator,
      - "quadratic": the a#(kB)^2 and 2 a* a block,
      - "drift": the D-coupled block,
      - "constant": the number-weighted constant, kept in its mode-compressed
        operator form sum_k dk s(k) eps Gamma(E_k* E_k) (the scalar
        eps^2 n <B, B+2f> is its restriction to fully shiftable modes).

    The e^{-ikx} factors multiply as the compressed matrices they are in the
    model; this is the convention under which the conjugation identity holds
    up to truncation-edge effects.
    """
    infrared = _coupled_hamiltonian(model, model.f_ir)

    # the pair term in normal order, sum conj(E_pq) E_rs psi_q* psi_r* psi_p
    # psi_s, which is Gamma(E)* Gamma(E) - eps Gamma(E* E) on the truncated
    # basis too (each factor of Gamma(E)* Gamma(E) that raises acts after
    # one that lowered, below the cap); it is zero on one-particle states
    pair, constant = [], []
    for j in np.flatnonzero(model.pair_symbol):
        w = model.dk * model.pair_symbol[j]
        coefs, codes = _gamma_terms(model, model.E[j])
        up_p, low_q = codes.T
        n = coefs.size
        pair.append((w * np.outer(coefs.conj(), coefs).ravel(),
                     np.column_stack([np.repeat(low_q + model.n_modes, n),
                                      np.tile(up_p, n),
                                      np.repeat(up_p - model.n_modes, n),
                                      np.tile(low_q, n)])))
        coefs, codes = _gamma_terms(model, model.E[j].conj().T @ model.E[j])
        constant.append((w * model.eps * coefs, codes))

    creation, mixed = [], []
    for j in range(model.n_phonon_modes):
        for l in range(model.n_phonon_modes):
            kdot = float(model.k[j] @ model.k[l])
            w = model.dk * kdot * model.B[j] * model.B[l]
            if w == 0.0:
                continue
            up_j = model.n_modes + model.n_particle_modes + j
            low_l = model.n_particle_modes + l
            coefs, codes = _gamma_terms(model, model.E[j] @ model.E[l],
                                        (up_j, model.n_modes + low_l))
            creation.append((w * coefs, codes))
            coefs, codes = _gamma_terms(
                model, model.E[j] @ model.E[l].conj().T, (up_j, low_l))
            mixed.append((2.0 * w * coefs, codes))

    drift = _field_terms(model, -2.0 * model.B, [
        e @ sum(kx * d for kx, d in zip(k, model.D_1p))
        for e, k in zip(model.E, model.k)])

    pair = _ladder_sum(model, pair)
    constant = _ladder_sum(model, constant)
    quadratic = _ladder_sum(model, mixed, creation)
    drift = _ladder_sum(model, (), drift)
    total = infrared + pair + quadratic + drift + constant
    return {"infrared": infrared, "pair": pair, "quadratic": quadratic,
            "drift": drift, "constant": constant, "total": total}


def dressed_comparison(model: FockModel) -> dict:
    """Conjugated U H U* versus the term-assembled expansion, compared on
    the sub-basis with total occupancy <= n_cut = n_max/2; expansion_holds
    when their difference there is below EXPANSION_TOL."""
    h = build_hamiltonian(model)
    t = build_T(model)
    conj = dress_hamiltonian(model, h, t)
    parts = assemble_dressed(model)
    assembled = OperatorMatrix(parts["total"])
    n_cut = min(model.n_max_particles, model.n_max_phonons) // 2
    sel = model.low_occupancy_indices(n_cut)
    restricted = conj.csr[sel][:, sel].toarray()
    diff = restricted - assembled.csr[sel][:, sel].toarray()
    diff_norm = float(np.linalg.norm(diff, 2))
    scale = float(np.linalg.norm(restricted, 2))
    return {
        "conjugated": conj,
        "assembled": assembled,
        "parts": parts,
        "restricted_diff_norm": diff_norm,
        "expansion_holds": diff_norm < EXPANSION_TOL,
        "restricted_scale": scale,
        "n_cut": n_cut,
        "subspace_dim": int(sel.size),
    }


# -- states -----------------------------------------------------------------------


def vacuum(model: FockModel) -> np.ndarray:
    """The empty state, row 0 of the lexicographic basis."""
    v = np.zeros(model.dim, dtype=np.complex128)
    v[0] = 1.0
    return v


def mode_amplitudes(model: FockModel, particle_amps,
                    phonon_amps) -> np.ndarray:
    """Coherent-state amplitudes z on model, particles first; a ValueError
    if a vector has the wrong length or if |z|^2/eps > n_max/3 in a sector
    (the state would lean on the occupancy truncation)."""
    phi = np.asarray(particle_amps, dtype=np.complex128)
    alp = np.asarray(phonon_amps, dtype=np.complex128)
    for z, n_modes, n_max, name in (
            (phi, model.n_particle_modes, model.n_max_particles, "particle"),
            (alp, model.n_phonon_modes, model.n_max_phonons, "phonon")):
        if z.shape != (n_modes,):
            raise ValueError(f"{name} amplitude vector has wrong length")
        load = float(np.sum(np.abs(z) ** 2)) / model.eps
        if load > n_max / 3.0:
            raise ValueError(
                f"{name} amplitude too large for the truncation: "
                f"|z|^2/eps = {load:.3f} > n_max/3 = {n_max / 3.0:.3f}")
    return np.concatenate([phi, alp])


def coherent_state(model: FockModel, particle_amps,
                   phonon_amps) -> np.ndarray:
    """Displaced vacuum W(sqrt(2) z/(i eps)) Omega = exp((a*(z) - a(z))/eps)
    Omega at the mode amplitudes z: <a_m> = z_m, and the occupancies are
    Poisson with mean |z_m|^2 / eps."""
    z = mode_amplitudes(model, particle_amps, phonon_amps)
    return weyl_operator(model, math.sqrt(2) * z / (1j * model.eps),
                         vacuum(model))


def weyl_operator(model: FockModel, mode_amps, vectors) -> np.ndarray:
    """W(f) applied to vectors (a state or a (dim, k) stack of them), with
    W(f) = exp(i phi(f)), phi(f) = (a(f) + a*(f))/sqrt(2), f given by its
    amplitudes on all modes (particles first): the Chebyshev series of
    e^{-i tau H} at H = -phi(f), tau = 1, on the sparse phi(f); no dim x dim
    array is built."""
    minus_phi_f = _ladder_sum(model, (), [(
        np.conj(np.asarray(mode_amps, dtype=np.complex128)),
        np.arange(model.n_modes)[:, None])])
    minus_phi_f.data *= -1.0 / math.sqrt(2.0)
    return _chebyshev_exp(_enclosure(minus_phi_f), 1.0, vectors)


def mode_expectations(model: FockModel, state: np.ndarray) -> np.ndarray:
    """<a_m> for every mode, particles first.  a_m has at most one entry
    per row, so a_m state is value * state scattered through row m of the
    index table (the truncated images land on the null state, dropped)."""
    n, dim = model.n_modes, model.dim
    at = model._ladder_index[:n, :dim] + (dim + 1) * np.arange(n)[:, None]
    images = np.zeros((n, dim + 1), dtype=np.complex128)
    images.ravel()[at] = model._ladder_value[:n, :dim] * state
    return np.array([np.vdot(state, image[:dim]) for image in images])


# -- quantum evolution ---------------------------------------------------------------


def _enclosure(h: sparse.csr_array) -> tuple:
    """(a, b, X) for a hermitian h: [a - b, a + b] encloses its spectrum by
    Gershgorin (the diagonal, plus or minus the off-diagonal absolute row
    sums), and X = (h - a)/b, so ||X|| <= 1; X is None when b = 0."""
    n = h.shape[0]
    d = h.diagonal().real
    rows = np.repeat(np.arange(n), np.diff(h.indptr))
    r = np.bincount(rows, weights=np.abs(h.data), minlength=n) - np.abs(d)
    lo, hi = float(np.min(d - r)), float(np.max(d + r))
    a, b = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if b == 0.0:
        return a, 0.0, None
    x = h - sparse.csr_array((np.full(n, a), np.arange(n), np.arange(n + 1)),
                             shape=h.shape)
    x.data /= b
    return a, b, x


def _bessel_coefficients(x: float) -> np.ndarray:
    """J_k(x) for k < K, x >= 0, K the least with 2 sum_{k >= K} |J_k(x)| <=
    CHEBYSHEV_TOL; a RuntimeError if K > CHEBYSHEV_TERMS.

    jv is evaluated on a window of n > x orders, widened until the tail
    falls below the tolerance.  Past x the ratios J_{k+1}/J_k stay below
    x/(k + 1), so a geometric series in x/n bounds the terms past the
    window."""
    extra = 64
    while True:
        n = min(int(x) + extra, CHEBYSHEV_TERMS + 1)
        j = jv(np.arange(n), x)
        r = x / n
        rest = abs(j[-1]) * r / (1.0 - r) if r < 1.0 else math.inf
        tail = 2.0 * (np.cumsum(np.abs(j[::-1]))[::-1] + rest)
        (within,) = np.nonzero(tail <= CHEBYSHEV_TOL)
        if within.size:  # the tail does not increase with k
            return j[:within[0]]
        if n > CHEBYSHEV_TERMS:
            raise RuntimeError(
                f"Chebyshev series of exp(-i tau H) at tau*b = {x:.4g} needs "
                f"more than {CHEBYSHEV_TERMS} terms")
        extra *= 2


def _chebyshev_exp(enclosure: tuple, tau: float, vectors):
    """e^{-i tau H} applied to vectors (a state, a (dim, k) stack, or a
    sparse array, which stays sparse: the sparse identity gives the whole
    operator), for a hermitian H given by its _enclosure (a, b, X):
    e^{-i tau a} sum_k c_k T_k(X) vectors with c_0 = J_0(tau b), c_k =
    2 (-i)^k J_k(tau b), summed by the three-term recurrence (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967, 1984).  ||T_k(X)|| <= 1, so the
    discarded tail of the Bessel coefficients bounds the truncation error.
    At b = 0 (H a multiple of the identity) or tau = 0 the series is its
    first term, J_0(0) = 1: the result is e^{-i tau a} vectors exactly."""
    a, b, x = enclosure
    v = vectors if sparse.issparse(vectors) else np.asarray(
        vectors, dtype=np.complex128)
    # J_k(-y) = (-1)^k J_k(y): a negative tau flips the sign of -i
    j = _bessel_coefficients(abs(tau) * b)
    step = -1j if tau > 0 else 1j
    out = j[0] * v
    if j.size > 1:
        prev, cur = v, x @ v
        out += (2.0 * step * j[1]) * cur
        coef = 2.0 * step
        for jk in j[2:]:
            prev, cur = cur, 2.0 * (x @ cur) - prev
            coef *= step
            out += (coef * jk) * cur
    out *= np.exp(-1j * tau * a)
    return out


class Propagator:
    """exp(-i t H / eps) as a Chebyshev series in X = (H - a)/b, where
    [a - b, a + b] is a Gershgorin enclosure of H's spectrum: the enclosure
    and X are made once here, and each apply pays only the series.  No
    eigendecomposition and no dense matrix is made."""

    def __init__(self, h: OperatorMatrix, eps: float):
        self.eps = eps
        self.enclosure = _enclosure(h.csr)

    def apply(self, state: np.ndarray, t: float) -> np.ndarray:
        return _chebyshev_exp(self.enclosure, t / self.eps, state)


# -- classical finite-mode flow --------------------------------------------------------


def _rhs_stack(model: FockModel) -> np.ndarray:
    """The matrices of the classical right-hand side stacked as one
    ((1 + 2 M_f) M_p, M_p) array: the kinetic diagonal, then the M_f
    couplings sqrt(dk) f_j E_j, then their adjoints."""
    mp = model.n_particle_modes
    e = np.reshape(model.E, (model.n_phonon_modes, mp, mp))
    c = math.sqrt(model.dk) * model.f[:, None, None] * e
    return np.concatenate([model.kinetic_1p[None], c,
                           c.conj().swapaxes(1, 2)]).reshape(-1, mp)


def classical_rhs(stack: np.ndarray, phi: np.ndarray,
                  alp: np.ndarray) -> tuple:
    """-i grad_zbar of the finite-mode symbol of the direct Hamiltonian
    (each ladder replaced by its mode amplitude in the normal-ordered form),
    with the matrices of _rhs_stack: one matrix product gives K phi and
    every c_j E_j phi and (c_j E_j)* phi."""
    w = (stack @ phi).reshape(-1, phi.size)
    mf = alp.size
    dphi = w[0] + np.conj(alp) @ w[1:mf + 1] + alp @ w[mf + 1:]
    dalp = alp + w[1:mf + 1] @ np.conj(phi)
    return -1j * dphi, -1j * dalp


def classical_flow(model: FockModel, phi0, alp0, times) -> np.ndarray:
    """High-order reference integration of the finite-mode Hamiltonian ODE,
    returning mode amplitudes (particles first) at the requested times."""
    from scipy.integrate import solve_ivp

    mp = model.n_particle_modes
    n = model.n_modes
    stack = _rhs_stack(model)

    def rhs(_t, y):
        zc = y[:n] + 1j * y[n:]
        dphi, dalp = classical_rhs(stack, zc[:mp], zc[mp:])
        dz = np.concatenate([dphi, dalp])
        return np.concatenate([dz.real, dz.imag])

    z0 = np.concatenate([np.asarray(phi0, dtype=np.complex128),
                         np.asarray(alp0, dtype=np.complex128)])
    y0 = np.concatenate([z0.real, z0.imag])
    sol = solve_ivp(rhs, (0.0, max(times)), y0, t_eval=times, method="DOP853",
                    rtol=CLASSICAL_FLOW_TOL, atol=CLASSICAL_FLOW_TOL)
    if not sol.success:
        raise RuntimeError(f"classical reference flow failed: {sol.message}")
    out = sol.y[:n, :] + 1j * sol.y[n:, :]
    return out.T


# -- experiments -----------------------------------------------------------------------


def correspondence_experiment(model_factory, eps_values, particle_amps,
                              phonon_amps, t_final: float,
                              n_times: int = 6) -> dict:
    """Quantum mode expectations under e^{-itH/eps} against the classical
    flow of the same finite-mode symbol, for a decreasing family of eps.

    model_factory(eps) must return models sharing the mode layout.  Returns
    the error table err[eps][t], the final errors in decreasing eps, and two
    verdicts, both False with fewer than two distinct eps, where nothing can
    fall: monotone, whether the final errors fall with eps (BOHR_SLACK
    allowed; no rate claimed), and sqrt_rate, whether the final error at the
    smallest eps is at most (eps_min/eps_max)**BOHR_RATE times the one at
    the largest, which a flat error curve fails.  Also returns
    edge_weight[eps], the largest probability over the sampled times on
    basis states at an occupancy cap (N1 = n_max_particles or
    N2 = n_max_phonons), where the truncation acts.
    """
    times = np.linspace(0.0, t_final, n_times)
    table = {}
    edge_weight = {}
    reference = None
    for eps in eps_values:
        model = model_factory(eps)
        if reference is None:
            reference = classical_flow(model, particle_amps, phonon_amps,
                                       times)
        prop = Propagator(build_hamiltonian(model), model.eps)
        psi_t = coherent_state(model, particle_amps, phonon_amps)
        n1, n2 = model.sector_totals()
        edge = (n1 == model.n_max_particles) | (n2 == model.n_max_phonons)
        errs, weights = [], []
        for i, t in enumerate(times):
            if i:  # psi_t starts as the coherent state at times[0] = 0
                psi_t = prop.apply(psi_t, t - times[i - 1])
            modes = mode_expectations(model, psi_t)
            errs.append(float(np.linalg.norm(modes - reference[i])))
            weights.append(float(np.sum(np.abs(psi_t[edge]) ** 2)))
        table[eps] = errs
        edge_weight[eps] = max(weights)
    eps_desc = sorted(table, reverse=True)
    final = [table[eps][-1] for eps in eps_desc]
    monotone = len(final) >= 2 and all(
        b <= BOHR_SLACK * a for a, b in zip(final, final[1:]))
    sqrt_rate = len(final) >= 2 and (
        final[-1] <= (eps_desc[-1] / eps_desc[0]) ** BOHR_RATE * final[0])
    return {"times": times.tolist(), "errors": table, "eps": eps_desc,
            "final_errors": final, "monotone": monotone,
            "sqrt_rate": sqrt_rate, "edge_weight": edge_weight}


def klmn_check(model: FockModel, n_samples: int = 1000,
               seed: int = 0) -> dict:
    """Sampled relative form bound |<H_I>| <= a <H0> + C ||phi||^2 for the
    dressed interaction, over random states in the fixed-N1 sectors
    KLMN_SECTORS.

    Reports the smallest sampled a on a grid of C, and whether some pair
    (a <= KLMN_A_CAP, C) dominates every sample (existence claim only)."""
    h0 = build_free_hamiltonian(model).csr
    comp = dress_hamiltonian(model, build_hamiltonian(model), build_T(model))
    h_i = comp.csr - h0
    # each sample lives on one sector of KLMN_SECTORS, and its quadratic
    # forms read only the rows and columns of those sectors
    n1, _ = model.sector_totals()
    rows = np.flatnonzero(np.isin(n1, KLMN_SECTORS))
    where = [np.flatnonzero(n1[rows] == n) for n in KLMN_SECTORS]
    rng = np.random.default_rng(seed)
    states = np.zeros((rows.size, n_samples), dtype=np.complex128)
    for s in range(n_samples):
        idx = where[rng.integers(len(KLMN_SECTORS))]
        states[idx, s] = (rng.standard_normal(idx.size)
                          + 1j * rng.standard_normal(idx.size))
    states /= np.sqrt(np.sum(states.real**2 + states.imag**2, axis=0))
    conj = states.conj()
    xs = np.sum(conj * (h0[rows][:, rows] @ states), axis=0).real
    ys = np.abs(np.sum(conj * (h_i[rows][:, rows] @ states), axis=0))
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
    found = best is not None and best[0] <= KLMN_A_CAP
    return {"a": None if best is None else best[0],
            "C": None if best is None else best[1],
            "satisfied": bool(found),
            "norm_kB_sq": float(model.dk * np.sum(
                np.sum(model.k**2, axis=1) * model.B**2)),
            "samples": int(n_samples)}
