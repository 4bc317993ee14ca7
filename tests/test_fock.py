import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from polaronlab import fock
from polaronlab.fock import (
    BOHR_SLACK,
    KLMN_A_CAP,
    FockModel,
    OperatorMatrix,
    Propagator,
    assemble_dressed,
    build_T,
    build_free_hamiltonian,
    build_hamiltonian,
    classical_flow,
    classical_rhs,
    coherent_state,
    correspondence_experiment,
    dress_hamiltonian,
    dressed_comparison,
    klmn_check,
    mode_amplitudes,
    mode_expectations,
    vacuum,
    weyl_operator,
)


def chain(eps=0.5, n_max=4, dk=0.5) -> FockModel:
    """3 particle modes on a momentum chain, 2 phonon modes."""
    return FockModel(particle_momenta=[0.0, 1.0, 2.0],
                     phonon_momenta=[1.0, 2.0], dk=dk, eps=eps,
                     n_max_particles=n_max, n_max_phonons=n_max, sigma0=1.5)


def number(model: FockModel, sector: int) -> sparse.dia_array:
    """N1 (sector 0) or N2 (sector 1): diagonal, eps times the occupancy."""
    return sparse.diags_array(model.eps * model.sector_totals()[sector])


def row_index(model: FockModel) -> dict:
    """Basis row of every occupation tuple."""
    return {tuple(occ): i for i, occ in enumerate(model.occupancy.tolist())}


def product_basis(model: FockModel) -> np.ndarray:
    """The occupation basis enumerated independently: every tuple of
    occupations up to the larger cap, kept where each sector's total is
    within its cap, sorted."""
    mp = model.n_particle_modes
    cap = max(model.n_max_particles, model.n_max_phonons)
    rows = [occ for occ in itertools.product(range(cap + 1),
                                             repeat=model.n_modes)
            if sum(occ[:mp]) <= model.n_max_particles
            and sum(occ[mp:]) <= model.n_max_phonons]
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, model.n_modes)


def sectors(model: FockModel):
    """(N1, P) sector index of every basis state, and the sector sizes."""
    mp = model.n_particle_modes
    occ = model.occupancy
    momentum = occ[:, :mp] @ model.p + occ[:, mp:] @ model.k
    labels = np.column_stack([occ[:, :mp].sum(axis=1), np.rint(momentum)])
    _, sector, sizes = np.unique(labels, axis=0, return_inverse=True,
                                 return_counts=True)
    return sector.ravel(), sizes


def nine_generator() -> FockModel:
    """Acceptance 09's particle modes, eps, dk and cutoffs with only its
    k = 2 phonon, the one B reaches (|k| >= sigma0): the Gross generator
    has 09's spectral enclosure, whose series takes 18 terms, at dim 588
    instead of 2352."""
    return FockModel(particle_momenta=[0.0, 1.0, 2.0], phonon_momenta=[2.0],
                     dk=0.5, eps=0.5, n_max_particles=6, n_max_phonons=6,
                     sigma0=1.5)


def gross_unitary(model: FockModel, t: OperatorMatrix) -> np.ndarray:
    """exp(i T / eps) by dense scaling and squaring."""
    return scipy.linalg.expm(1j * t.matrix / model.eps)


@pytest.fixture(scope="module")
def toy():
    """The chain with small cutoffs."""
    return chain()


def plane(n_max=2) -> FockModel:
    """5 particle and 4 phonon momenta in the plane; some shifts E_j leave
    the particle modes ((0, 0) - (1, 0) is not one of them), and sigma0
    splits the phonons between the infrared coupling and B."""
    return FockModel(particle_momenta=[[0, 0], [1, 0], [0, 1], [1, 1],
                                       [-1, 0]],
                     phonon_momenta=[[1, 0], [0, 1], [1, 1], [2, 0]],
                     dk=0.3, eps=0.37, n_max_particles=n_max,
                     n_max_phonons=n_max, sigma0=1.2)


def dense_operators(model: FockModel) -> dict:
    """Every Fock operator of the layer as a sum of dense products of
    psi(m).toarray() and its adjoint, term by term as its formula reads."""
    low = [model.psi(m).toarray() for m in range(model.n_modes)]
    up = [x.conj().T for x in low]
    mp, mf = model.n_particle_modes, model.n_phonon_modes
    a, ad = low[mp:], up[mp:]
    zero = np.zeros((model.dim, model.dim), dtype=complex)

    def gamma(m):
        return sum((m[i, j] * up[i] @ low[j] for i, j in zip(*np.nonzero(m))),
                   zero)

    def hc(x):
        return x + x.conj().T

    def field(c, one_particle):
        return sum((hc(math.sqrt(model.dk) * c[j] * ad[j]
                       @ gamma(one_particle[j])) for j in range(mf)), zero)

    def coupled(c):
        return (gamma(model.kinetic_1p) + sum(ad[j] @ a[j] for j in range(mf))
                + field(c, model.E))

    ops = {"H": coupled(model.f), "H0": coupled(np.zeros(mf)),
           "T": field(1j * model.B, model.E), "infrared": coupled(model.f_ir),
           "pair": zero, "constant": zero, "quadratic": zero}
    for j in range(mf):
        w, e = model.dk * model.pair_symbol[j], model.E[j]
        for p, q in zip(*np.nonzero(e)):
            for r, s in zip(*np.nonzero(e)):
                ops["pair"] = ops["pair"] + w * np.conj(e[p, q]) * e[r, s] * (
                    up[q] @ up[r] @ low[p] @ low[s])
        ops["constant"] = ops["constant"] + w * model.eps * gamma(
            e.conj().T @ e)
        for l in range(mf):
            w = model.dk * float(model.k[j] @ model.k[l]) * (
                model.B[j] * model.B[l])
            ops["quadratic"] = ops["quadratic"] + hc(
                w * ad[j] @ ad[l] @ gamma(e @ model.E[l])) + 2.0 * w * (
                ad[j] @ a[l] @ gamma(e @ model.E[l].conj().T))
    ops["drift"] = field(-2.0 * model.B, [
        e @ sum(kx * d for kx, d in zip(k, model.D_1p))
        for e, k in zip(model.E, model.k)])
    ops["total"] = (ops["infrared"] + ops["pair"] + ops["quadratic"]
                    + ops["drift"] + ops["constant"])
    return ops


@pytest.mark.parametrize("layout", [chain, plane], ids=["toy", "plane"])
def test_operators_match_ladder_products(layout, monkeypatch):
    """H, H0, T, each dressed part and their total, phi(f) and Gamma(M)
    from the ladder tables equal the dense products of the ladder matrices
    entry by entry (1e-14), with the same nonzero pattern.  The pair term
    is assembled in normal order; it is Gamma(E)* Gamma(E) - eps
    Gamma(E* E) on the truncated basis too."""
    model = layout()
    oracle = dense_operators(model)
    got = {"H": build_hamiltonian(model).csr,
           "H0": build_free_hamiltonian(model).csr, "T": build_T(model).csr,
           **assemble_dressed(model)}
    rng = np.random.default_rng(7)
    mp = model.n_particle_modes
    m = rng.standard_normal((mp, mp)) + 1j * rng.standard_normal((mp, mp))
    low = [model.psi(i).toarray() for i in range(model.n_modes)]
    oracle["gamma"] = sum(m[i, j] * low[i].conj().T @ low[j]
                          for i in range(mp) for j in range(mp))
    got["gamma"] = model.gamma(m)
    f = rng.standard_normal(model.n_modes) + 1j * rng.standard_normal(
        model.n_modes)
    af = sum(np.conj(fm) * x for fm, x in zip(f, low))
    oracle["phi"] = (af + af.conj().T) / math.sqrt(2.0)
    generators = []
    enclosure = fock._enclosure
    monkeypatch.setattr(fock, "_enclosure",
                        lambda h: generators.append(h) or enclosure(h))
    weyl_operator(model, f, vacuum(model))
    got["phi"] = -generators[0]
    assert set(got) == set(oracle)
    for name, op in got.items():
        assert np.max(np.abs(op.toarray() - oracle[name])) <= 1e-14, name
        assert op.nnz == np.count_nonzero(oracle[name]), name
    gammas = [oracle["gamma"]]
    for j, s in enumerate(model.pair_symbol):
        e = model.E[j]
        ge = sum(e[p, q] * low[p].conj().T @ low[q]
                 for p, q in zip(*np.nonzero(e)))
        gee = sum(x * low[p].conj().T @ low[p]
                  for p, x in enumerate(np.diag(e.conj().T @ e)))
        gammas.append(model.dk * s * (ge.conj().T @ ge - model.eps * gee))
    assert np.max(np.abs(sum(gammas[1:]) - oracle["pair"])) <= 1e-14


class CountingSparse:
    """scipy.sparse as fock's namespace sees it, counting the sparse arrays
    and matrices it constructs."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        attr = getattr(sparse, name)
        if not name.endswith(("_array", "_matrix")):
            return attr

        def counted(*args, **kwargs):
            self.count += 1
            return attr(*args, **kwargs)
        return counted


def test_sparse_constructions_do_not_grow_with_the_modes(monkeypatch):
    """H, T, the dressed parts and a Weyl operator each make a fixed number
    of sparse constructions, the same with 3 + 2 modes as with 5 + 4: one
    per operator, not one per term or per mode."""
    counts = []
    for model in (chain(n_max=2), plane()):
        f = np.full(model.n_particle_modes + model.n_phonon_modes, 0.1 + 0.05j)
        counter = CountingSparse()
        monkeypatch.setattr(fock, "sparse", counter)
        build_hamiltonian(model)
        build_T(model)
        assemble_dressed(model)
        weyl_operator(model, f, vacuum(model))
        monkeypatch.undo()
        counts.append(counter.count)
    assert counts[0] == counts[1]


class TestModel:
    def test_dimension_and_cap(self, toy):
        # C(7,3) * C(6,2) occupation tuples
        assert toy.dim == 35 * 15
        with pytest.raises(ValueError):
            FockModel([0.0], [1.0], dk=1.0, eps=0.5, n_max_particles=200,
                      n_max_phonons=200, sigma0=0.5, max_dim=100)

    @pytest.mark.parametrize("n_p, n_f", [(0, 3), (2, 5), (6, 6)])
    def test_dimension_formula_counts_the_basis(self, n_p, n_f):
        model = FockModel([0.0, 1.0, 2.0], [1.0, 2.0], dk=0.5, eps=0.5,
                          n_max_particles=n_p, n_max_phonons=n_f, sigma0=1.5)
        assert model.dim == len(model.occupancy)
        assert np.array_equal(model.occupancy, product_basis(model))

    @pytest.mark.parametrize("layout", [
        plane,
        lambda: FockModel([0.0, 1.0, 2.0], [], dk=0.5, eps=0.5,
                          n_max_particles=3, n_max_phonons=2, sigma0=1.5),
        lambda: chain(n_max=0)], ids=["plane", "no-phonon-modes", "n_max-0"])
    def test_occupancy_is_the_sorted_product(self, layout):
        """The occupancy array is the sorted product enumeration, also with
        a sector of no modes and with empty caps."""
        model = layout()
        assert np.array_equal(model.occupancy, product_basis(model))

    def test_vacuum_is_row_zero(self):
        for model in (chain(), plane()):
            v = vacuum(model)
            assert np.flatnonzero(v).tolist() == [0] and v[0] == 1.0
            assert not np.any(model.occupancy[0])

    def test_keys_that_would_overflow_are_refused(self):
        """41 modes at cap 2 (dim 1722, inside the size guard) would need
        occupation keys up to 3**41 > 2**63: refused, where the int64 keys
        would land lowering images on wrong rows.  39 modes fit, and every
        lowering image has one quantum fewer in its mode."""
        with pytest.raises(ValueError, match="overflow the int64"):
            FockModel(list(range(40)), [1.0], dk=0.5, eps=0.5,
                      n_max_particles=2, n_max_phonons=1, sigma0=1.5)
        model = FockModel(list(range(38)), [1.0], dk=0.5, eps=0.5,
                          n_max_particles=2, n_max_phonons=1, sigma0=1.5)
        occ = model.occupancy
        for m in range(model.n_modes):
            cols = np.flatnonzero(occ[:, m])
            expected = occ[cols]
            expected[:, m] -= 1
            assert np.array_equal(occ[model._ladder_index[m, cols]], expected)

    def test_guard_refuses_before_enumerating(self, monkeypatch):
        """n_max 400 on the chain is a basis of about 9e11 states: the guard
        refuses it from the count, without listing one."""
        def enumerate_nothing(*args):
            raise AssertionError("the basis was enumerated")

        monkeypatch.setattr(fock, "_sector_occupations", enumerate_nothing)
        with pytest.raises(ValueError, match="basis-size guard"):
            chain(n_max=400)

    def test_ccr_away_from_ceiling(self, toy):
        # [a, a*] = eps on the sub-basis that cannot touch the cutoff
        n2 = toy.occupancy[:, 3:].sum(axis=1)
        interior = np.where(n2 <= toy.n_max_phonons - 1)[0]
        for j in range(toy.n_phonon_modes):
            a = toy.psi(toy.n_particle_modes + j)
            comm = a @ a.conj().T - a.conj().T @ a
            block = comm[np.ix_(interior, interior)]
            assert np.max(np.abs(block - toy.eps * np.eye(len(interior)))) \
                < 1e-12

    def test_gamma_restriction_scaling(self, toy):
        # Gamma(M) on a one-particle basis state equals eps * M
        m = np.array([[0.3, 0.7, 0.0], [0.7, -0.2, 0.1], [0.0, 0.1, 0.5]],
                     dtype=complex)
        gm = toy.gamma(m)
        index = row_index(toy)
        for i in range(3):
            occ = [0, 0, 0, 0, 0]
            occ[i] = 1
            col = index[tuple(occ)]
            for j in range(3):
                occ2 = [0, 0, 0, 0, 0]
                occ2[j] = 1
                row = index[tuple(occ2)]
                assert gm[row, col] == pytest.approx(toy.eps * m[j, i],
                                                     abs=1e-14)

    def test_ladders_match_occupancy_oracle(self, toy):
        index = row_index(toy)
        for m in range(5):
            oracle = np.zeros((toy.dim, toy.dim), dtype=complex)
            for col, occ in enumerate(toy.occupancy.tolist()):
                if occ[m]:
                    target = list(occ)
                    target[m] -= 1
                    oracle[index[tuple(target)], col] = math.sqrt(
                        toy.eps * occ[m])
            assert np.array_equal(toy.psi(m).toarray(), oracle)

    def test_gamma_matches_occupancy_oracle(self, toy):
        # sum_ij M_ij psi_i* psi_j from its matrix elements on the basis
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        oracle = np.zeros((toy.dim, toy.dim), dtype=complex)
        index = row_index(toy)
        for col, occ in enumerate(toy.occupancy.tolist()):
            for i in range(3):
                for j in range(3):
                    if occ[j] == 0:
                        continue
                    target = list(occ)
                    target[j] -= 1
                    target[i] += 1
                    oracle[index[tuple(target)], col] += (
                        m[i, j] * toy.eps * math.sqrt(occ[j] * target[i]))
        assert np.max(np.abs(toy.gamma(m).toarray() - oracle)) < 1e-14


class TestHamiltonians:
    def test_free_spectrum(self, toy):
        h0 = build_free_hamiltonian(toy)
        occ = toy.occupancy
        expected = toy.eps * (occ[:, :3] @ (toy.p[:, 0] ** 2)
                              + occ[:, 3:].sum(axis=1))
        assert np.max(np.abs(np.diag(h0.matrix).real - expected)) < 1e-13
        off = h0.matrix - np.diag(np.diag(h0.matrix))
        assert np.max(np.abs(off)) == 0.0

    def test_hermitian_and_number_conserving(self, toy):
        h = build_hamiltonian(toy)
        t = build_T(toy)
        n1 = number(toy, 0)
        for op in (h, t):
            m = op.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert np.linalg.norm(m @ n1 - n1 @ m) < 1e-10

    def test_ground_state_against_kronecker_oracle(self):
        # independent construction: explicit matrix elements on an
        # independently enumerated occupation basis
        dk, eps, f1 = 0.5, 0.5, 1.0
        model = FockModel(particle_momenta=[0.0, 1.0], phonon_momenta=[1.0],
                          dk=dk, eps=eps, n_max_particles=2, n_max_phonons=4,
                          sigma0=0.5)
        h = build_hamiltonian(model)

        states = [(n0, n1, m) for n0 in range(3) for n1 in range(3)
                  for m in range(5) if n0 + n1 <= 2]
        index = {s: i for i, s in enumerate(states)}
        dim = len(states)
        oracle = np.zeros((dim, dim))
        c = math.sqrt(dk) * f1
        for (n0, n1, m), col in index.items():
            oracle[col, col] = eps * (0.0 * n0 + 1.0 * n1 + m)
            # a* psi0* psi1: (n0, n1, m) -> (n0+1, n1-1, m+1)
            if n1 >= 1 and m + 1 <= 4:
                tgt = index[(n0 + 1, n1 - 1, m + 1)]
                amp = c * math.sqrt(eps * (m + 1)) * eps \
                    * math.sqrt(n1 * (n0 + 1))
                oracle[tgt, col] += amp
                oracle[col, tgt] += amp
        ev_oracle = np.linalg.eigvalsh(oracle)
        ev_model = np.linalg.eigvalsh(h.matrix)
        assert model.dim == dim
        assert ev_model[0] == pytest.approx(ev_oracle[0], abs=1e-12)
        assert np.max(np.abs(np.sort(ev_model) - np.sort(ev_oracle))) < 1e-10

    def test_operator_matrix_validation(self):
        with pytest.raises(AssertionError):
            OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(AssertionError):
            OperatorMatrix(sparse.csr_array(([1.0j], ([0], [1])),
                                            shape=(2, 2)))
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((2, 3)))


class TestDressing:
    def test_trivial_generator(self):
        # sigma0 above every phonon momentum: B = 0, T = 0, U H U* = H
        model = FockModel(particle_momenta=[0.0, 1.0], phonon_momenta=[1.0],
                          dk=0.5, eps=0.5, n_max_particles=2,
                          n_max_phonons=3, sigma0=1.5)
        assert not np.any(build_T(model).matrix)
        h = build_hamiltonian(model)
        hd = dress_hamiltonian(model, h, build_T(model))
        assert np.max(np.abs(hd.matrix - h.matrix)) < 1e-12

    def test_blockwise_conjugation_is_the_full_space_one(self, toy):
        """U H U* against U from a dense expm of T, on the toy (15 series
        terms) and on acceptance 09's generator (18 terms); nothing is
        stored across the (N1, P) sectors."""
        for model, terms in ((toy, 15), (nine_generator(), 18)):
            h, t = build_hamiltonian(model), build_T(model)
            _, b, _ = fock._enclosure(t.csr)
            assert fock._bessel_coefficients(b / model.eps).size == terms
            hd = dress_hamiltonian(model, h, t)
            u = gross_unitary(model, t)
            assert np.max(np.abs(hd.matrix - u @ h.matrix @ u.conj().T)) \
                < 1e-11
            sector, _ = sectors(model)
            stored = hd.csr.tocoo()
            assert np.all(sector[stored.row] == sector[stored.col])

    def test_assembled_terms_conserve_sectors(self, toy):
        sector, _ = sectors(toy)
        for name, part in assemble_dressed(toy).items():
            coo = part.tocoo()
            hop = coo.data[sector[coo.row] != sector[coo.col]]
            assert not np.any(hop), name

    @pytest.mark.parametrize("layout", [chain, nine_generator],
                             ids=["toy", "nine"])
    def test_series_on_the_sparse_identity_is_the_dense_one(self, layout):
        """The Chebyshev series of exp(iT/eps) applied to the sparse
        identity equals, bit for bit, the series on the dense identity."""
        model = layout()
        enclosure = fock._enclosure(build_T(model).csr)
        tau = -1.0 / model.eps
        u = fock._chebyshev_exp(enclosure, tau, sparse.eye_array(
            model.dim, dtype=np.complex128, format="csr"))
        assert sparse.issparse(u)
        assert np.array_equal(u.toarray(), fock._chebyshev_exp(
            enclosure, tau, np.eye(model.dim, dtype=np.complex128)))

    def test_unitarity(self, toy):
        """The series' U = exp(iT/eps) on the sparse identity is unitary
        and is the dense expm's."""
        t = build_T(toy)
        u = fock._chebyshev_exp(fock._enclosure(t.csr), -1.0 / toy.eps,
                                sparse.eye_array(toy.dim, dtype=np.complex128,
                                                 format="csr"))
        u = u.toarray()
        assert np.linalg.norm(u @ u.conj().T - np.eye(toy.dim)) < 1e-10
        assert np.max(np.abs(u - gross_unitary(toy, t))) < 1e-11

    def test_restricted_expansion_matches(self):
        model = chain(dk=1e-6)
        rep = dressed_comparison(model)
        assert rep["restricted_diff_norm"] < 1e-6
        # the comparison is not vacuous: first-order dressed structure is
        # orders of magnitude above the gate
        sel = model.low_occupancy_indices(rep["n_cut"])
        drift = rep["parts"]["drift"].toarray()[np.ix_(sel, sel)]
        assert np.linalg.norm(drift, 2) > 1e-4

    def test_conjugation_preserves_spectrum(self, toy):
        h = build_hamiltonian(toy)
        hd = dress_hamiltonian(toy, h, build_T(toy))
        ev = np.linalg.eigvalsh(h.matrix)
        evd = np.linalg.eigvalsh(hd.matrix)
        assert np.max(np.abs(ev - evd)) < 1e-9


class TestCoherentStates:
    def test_zero_is_vacuum(self, toy):
        # phi(0) = 0 has the one-point enclosure [0, 0], so the series is its
        # first term, J_0(0) = 1
        psi = coherent_state(toy, [0, 0, 0], [0, 0])
        assert np.array_equal(psi, vacuum(toy))

    def test_mode_expectations(self, toy):
        amps = np.array([0.2, 0.1j, 0.0, 0.15, -0.1 + 0.05j])
        psi = coherent_state(toy, amps[:3], amps[3:])
        got = mode_expectations(toy, psi)
        assert np.max(np.abs(got - amps)) < 1e-6

    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
    def test_mode_expectations_are_the_ladder_matvecs(self, eps):
        """On fock-bohr's three models, at its data propagated to t = 0.5,
        <a_m> from the index table equals np.vdot(psi, a_m psi) with the
        csr a_m, bit for bit."""
        model = chain(eps, n_max=4)
        psi = Propagator(build_hamiltonian(model), eps).apply(
            coherent_state(model, [0.25, 0.15j, 0.0], [0.2, -0.1j]), 0.5)
        got = mode_expectations(model, psi)
        assert np.array_equal(got, [np.vdot(psi, model.psi(m) @ psi)
                                    for m in range(model.n_modes)])

    def test_phonon_number_poisson(self, toy):
        alpha = [0.2, 0.1]
        psi = coherent_state(toy, [0, 0, 0], alpha)
        n2 = number(toy, 1)
        # equality up to the Poisson tail cut off at n_max
        assert np.vdot(psi, n2 @ psi).real == pytest.approx(
            sum(a * a for a in alpha), abs=1e-6)

    def test_margin_rule(self, toy):
        # |z|^2 / eps must stay below n_max / 3
        z = [math.sqrt(0.5 * toy.n_max_particles), 0, 0]
        for refuse in (mode_amplitudes, coherent_state):
            with pytest.raises(ValueError, match="too large"):
                refuse(toy, z, [0, 0])
        edge = math.sqrt(toy.eps * toy.n_max_phonons / 3.0)
        assert mode_amplitudes(toy, [0, 0, 0], [edge, 0])[3] == edge

    def test_weyl_relation(self):
        # two modes with a deep truncation so the composition law is clean
        # away from the ceiling
        model = FockModel(particle_momenta=[0.0], phonon_momenta=[1.0],
                          dk=0.5, eps=0.5, n_max_particles=8,
                          n_max_phonons=8, sigma0=0.5)
        rng = np.random.default_rng(3)
        f = 0.15 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = 0.15 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        # W(f) W(g) = e^{-i eps Im<f,g>/2} W(f+g) on the columns and rows
        # of the low-occupancy states; the conjugate phase misses
        sel = model.low_occupancy_indices(3)
        cols = np.eye(model.dim)[:, sel]
        lhs = weyl_operator(model, f, weyl_operator(model, g, cols))[sel]
        wfg = weyl_operator(model, f + g, cols)[sel]
        phase = np.exp(-0.5j * model.eps * np.imag(np.vdot(f, g)))
        assert np.max(np.abs(lhs - phase * wfg)) < 1e-8
        assert np.max(np.abs(lhs - np.conj(phase) * wfg)) > 1e-8

    def test_weyl_operator_on_a_stack_matches_dense_expm(self, toy):
        """W(f) on a (dim, k) stack of vectors is exp(i phi(f)) of each
        column, against a dense expm of phi(f) built here."""
        rng = np.random.default_rng(4)
        f = 0.6 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        af = sum(np.conj(f[m]) * toy.psi(m).toarray()
                 for m in range(toy.n_modes))
        w = scipy.linalg.expm(1j * (af + af.conj().T) / math.sqrt(2.0))
        cols = (rng.standard_normal((toy.dim, 3))
                + 1j * rng.standard_normal((toy.dim, 3)))
        got = weyl_operator(toy, f, cols)
        assert got.shape == cols.shape
        assert np.max(np.abs(got - w @ cols)) < 1e-12


def dense_propagation(op: OperatorMatrix, eps: float, state, t: float):
    """e^{-itH/eps} state from one dense eigendecomposition of H."""
    vals, vecs = np.linalg.eigh(op.matrix)
    return vecs @ (np.exp(-1j * t * vals / eps) * (vecs.conj().T @ state))


class TestEvolution:
    @pytest.mark.parametrize("dressed", [False, True])
    def test_apply_matches_dense_eigh(self, toy, dressed):
        h = build_hamiltonian(toy)
        if dressed:
            h = dress_hamiltonian(toy, h, build_T(toy))
        prop = Propagator(h, toy.eps)
        psi = coherent_state(toy, [0.2, 0.1j, 0.0], [0.1, -0.1])
        for t in (0.0, 0.1, 0.5, 1.3, 4.0, -0.5, -4.0):
            assert np.max(np.abs(prop.apply(psi, t) - dense_propagation(
                h, toy.eps, psi, t))) < 1e-12
        assert np.array_equal(prop.apply(psi, 0.0), psi)

    def test_series_refuses_past_its_term_budget(self, toy, monkeypatch):
        """A series whose Bessel tail cannot fall below the tolerance within
        the term budget raises instead of returning a truncated sum."""
        prop = Propagator(build_hamiltonian(toy), toy.eps)
        _, b, _ = prop.enclosure
        psi = coherent_state(toy, [0.2, 0.1j, 0.0], [0.1, -0.1])
        t = 1000.0 * toy.eps / b  # tau * b = 1000, about 1110 terms
        for terms in (50, 1000):
            monkeypatch.setattr(fock, "CHEBYSHEV_TERMS", terms)
            with pytest.raises(RuntimeError, match=f"more than {terms}"):
                prop.apply(psi, t)
        monkeypatch.setattr(fock, "CHEBYSHEV_TERMS", 2000)
        assert abs(np.linalg.norm(prop.apply(psi, t)) - 1.0) < 1e-12

    @pytest.mark.parametrize("tau_b", [0.5, 3.0, 10.0, 25.0])
    def test_terms_grow_with_tau_b_only(self, toy, tau_b):
        """The series stops after at most tau*b + log(1/CHEBYSHEV_TOL)
        terms, counted as sparse products (the first term needs none), not
        at the term budget."""
        prop = Propagator(build_hamiltonian(toy), toy.eps)
        a, b, x = prop.enclosure
        products = []

        class Counting:
            def __matmul__(self, v):
                products.append(1)
                return x @ v

        prop.enclosure = (a, b, Counting())
        t = tau_b * toy.eps / b
        psi = coherent_state(toy, [0.2, 0.1j, 0.0], [0.1, -0.1])
        got = prop.apply(psi, t)
        assert 0 < len(products) + 1 <= tau_b - math.log(fock.CHEBYSHEV_TOL)
        ref = dense_propagation(build_hamiltonian(toy), toy.eps, psi, t)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_stepping_matches_one_shot(self, toy):
        """Stepping through the sampled times, as correspondence_experiment
        does, lands where one propagation to each time lands."""
        prop = Propagator(build_hamiltonian(toy), toy.eps)
        psi0 = coherent_state(toy, [0.2, 0.1j, 0.0], [0.1, -0.1])
        psi = psi0
        times = np.linspace(0.0, 0.5, 6)
        for dt, t in zip(np.diff(times, prepend=0.0), times):
            psi = prop.apply(psi, dt)
            assert np.max(np.abs(psi - prop.apply(psi0, t))) < 1e-13

    def test_propagator_unitary(self, toy):
        h = build_hamiltonian(toy)
        prop = Propagator(h, toy.eps)
        psi = coherent_state(toy, [0.2, 0.1, 0.0], [0.1, 0.1])
        psi_t = prop.apply(psi, 0.7)
        assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-10

    def test_energy_expectation_constant(self, toy):
        h = build_hamiltonian(toy)
        hd = dress_hamiltonian(toy, h, build_T(toy))
        prop = Propagator(hd, toy.eps)
        psi = coherent_state(toy, [0.2, 0.1, 0.0], [0.1, 0.1])
        psi_t = prop.apply(psi, 1.3)
        e0 = np.vdot(psi, hd.matrix @ psi).real
        e1 = np.vdot(psi_t, hd.matrix @ psi_t).real
        assert abs(e1 - e0) < 1e-10 * (1 + abs(e0))

    def test_n1_conserved_under_both(self, toy):
        h = build_hamiltonian(toy)
        hd = dress_hamiltonian(toy, h, build_T(toy))
        n1 = number(toy, 0)
        psi = coherent_state(toy, [0.2, 0.1, 0.0], [0.1, 0.1])
        for op in (h, hd):
            psi_t = Propagator(op, toy.eps).apply(psi, 0.9)
            v0 = np.vdot(psi, n1 @ psi).real
            v1 = np.vdot(psi_t, n1 @ psi_t).real
            assert abs(v1 - v0) < 1e-10 * (1 + abs(v0))

    def test_undressed_route_via_conjugation(self, toy):
        # e^{-itH/eps} equals U* e^{-it UHU*/eps} U
        h = build_hamiltonian(toy)
        t_op = build_T(toy)
        hd = dress_hamiltonian(toy, h, t_op)
        u = gross_unitary(toy, t_op)
        psi = coherent_state(toy, [0.2, 0.1, 0.0], [0.1, 0.1])
        t = 0.4
        direct = dense_propagation(h, toy.eps, psi, t)
        routed = u.conj().T @ Propagator(hd, toy.eps).apply(u @ psi, t)
        assert np.max(np.abs(direct - routed)) < 1e-9


class TestCorrespondence:
    def test_free_theory_follows_classical_flow(self):
        # a phonon at k = 0 carries no coupling (f(0) = 0): exact Gaussian
        # dynamics, quantum expectations track the free classical flow
        def factory(eps):
            return FockModel(particle_momenta=[0.0, 1.0],
                             phonon_momenta=[0.0], dk=0.5, eps=eps,
                             n_max_particles=6, n_max_phonons=6,
                             sigma0=0.25)

        res = correspondence_experiment(factory, [0.5, 0.25], [0.1, 0.05],
                                        [0.05], 0.5, n_times=3)
        for errs in res["errors"].values():
            assert max(errs) < 1e-8

    def test_vacuum_is_stationary(self, toy):
        h = build_hamiltonian(toy)
        prop = Propagator(h, toy.eps)
        psi0 = vacuum(toy)
        psi_t = prop.apply(psi0, 0.5)
        assert np.max(np.abs(mode_expectations(toy, psi_t))) < 1e-12

    def test_classical_flow_conserves_symbol_energy(self, toy):
        phi0 = np.array([0.2, 0.1, 0.05], dtype=complex)
        alp0 = np.array([0.15, 0.1], dtype=complex)
        times = np.linspace(0.0, 0.5, 5)
        traj = classical_flow(toy, phi0, alp0, times)

        def energy(z):
            phi, alp = z[:3], z[3:]
            e = float(np.sum(toy.p[:, 0] ** 2 * np.abs(phi) ** 2)
                      + np.sum(np.abs(alp) ** 2))
            for j in range(2):
                c = math.sqrt(toy.dk) * toy.f[j]
                e += 2.0 * c * np.real(np.conj(alp[j])
                                       * np.vdot(phi, toy.E[j] @ phi))
            return e

        e0 = energy(traj[0])
        assert all(abs(energy(traj[i]) - e0) < 1e-9 * (1 + abs(e0))
                   for i in range(len(times)))

    @pytest.mark.parametrize("layout", [chain, plane], ids=["toy", "plane"])
    def test_classical_rhs_matches_a_loop_over_modes(self, layout):
        """The stacked right-hand side against the per-mode loop it
        replaces, at random complex amplitudes (1e-15)."""
        model = layout()
        rng = np.random.default_rng(5)
        mp, mf = model.n_particle_modes, model.n_phonon_modes
        phi = rng.standard_normal(mp) + 1j * rng.standard_normal(mp)
        alp = rng.standard_normal(mf) + 1j * rng.standard_normal(mf)
        dphi = np.sum(model.p**2, axis=1) * phi
        dalp = alp.copy()
        for j in range(mf):
            c = math.sqrt(model.dk) * model.f[j]
            e = model.E[j]
            dphi += c * (np.conj(alp[j]) * (e @ phi)
                         + alp[j] * (e.conj().T @ phi))
            dalp[j] += c * np.vdot(phi, e @ phi)
        got = classical_rhs(fock._rhs_stack(model), phi, alp)
        assert np.max(np.abs(got[0] + 1j * dphi)) <= 1e-15
        assert np.max(np.abs(got[1] + 1j * dalp)) <= 1e-15

    def test_error_decreases_with_eps(self):
        res = correspondence_experiment(lambda eps: chain(eps, n_max=5),
                                        [0.25, 0.5], [0.2, 0.1, 0.0],
                                        [0.15, 0.1], 0.5, n_times=3)
        assert res["eps"] == [0.5, 0.25]
        assert res["final_errors"] == [res["errors"][e][-1]
                                       for e in (0.5, 0.25)]
        assert res["monotone"] and res["sqrt_rate"]

    def test_propagates_only_between_sampled_times(self, monkeypatch):
        """The state starts as the coherent state at times[0] = 0 and is
        propagated n_times - 1 steps, each over a positive time."""
        steps = []
        apply = Propagator.apply

        def recording(self, state, t):
            steps.append(t)
            return apply(self, state, t)

        monkeypatch.setattr(Propagator, "apply", recording)
        res = correspondence_experiment(lambda eps: chain(eps, n_max=5),
                                        [0.5], [0.2, 0.1, 0.0], [0.15, 0.1],
                                        0.5, n_times=6)
        assert len(steps) == 5 and min(steps) > 0
        assert np.isclose(sum(steps), 0.5)
        assert len(res["errors"][0.5]) == 6

    @pytest.mark.parametrize("eps_values", [[], [0.5], [0.5, 0.5]])
    def test_monotone_needs_two_eps(self, eps_values):
        """With fewer than two distinct eps nothing can fall with eps: the
        verdict reads False, without raising."""
        res = correspondence_experiment(lambda eps: chain(eps, n_max=5),
                                        eps_values, [0.2, 0.1, 0.0],
                                        [0.15, 0.1], 0.5, n_times=3)
        assert len(res["final_errors"]) == len(set(eps_values))
        assert res["monotone"] is False and res["sqrt_rate"] is False

    def test_edge_weight_small_on_acceptance_data(self):
        # the data of acceptance 10
        res = correspondence_experiment(lambda eps: chain(eps, n_max=6),
                                        [0.5, 0.25, 0.125], [0.25, 0.15, 0.0],
                                        [0.2, 0.1], 0.5, n_times=6)
        weights = res["edge_weight"]
        assert set(weights) == {0.5, 0.25, 0.125}
        assert 0.0 < max(weights.values()) < 1e-3

    def test_edge_weight_rises_near_the_margin(self):
        # |z|^2 / eps = 0.99 * 0.3 * n_max, inside the margin n_max / 3
        eps, n_max = 0.5, 6
        z = math.sqrt(0.99 * 0.3 * n_max * eps)
        res = correspondence_experiment(lambda e: chain(e, n_max=n_max),
                                        [eps], [z, 0.0, 0.0], [0.2, 0.1],
                                        0.5, n_times=6)
        assert res["edge_weight"][eps] > 1e-3

    def test_monotone_verdict_can_fail(self):
        # at occupancy cutoff 3 the eps = 0.125 coherent state leans on the
        # truncation edge and its error grows again
        res = correspondence_experiment(lambda eps: chain(eps, n_max=3),
                                        [0.5, 0.25, 0.125], [0.25, 0.15, 0.0],
                                        [0.2, 0.1], 0.5, n_times=6)
        final = res["final_errors"]
        assert final[2] > BOHR_SLACK * final[1] and not res["monotone"]


class TestKLMN:
    def test_vacuum_interaction_vanishes(self, toy):
        h = build_hamiltonian(toy)
        hd = dress_hamiltonian(toy, h, build_T(toy))
        h0 = build_free_hamiltonian(toy)
        psi0 = vacuum(toy)
        val = np.vdot(psi0, (hd.matrix - h0.matrix) @ psi0)
        assert abs(val) < 1e-12

    def test_samples_as_one_stack_match_a_loop(self, toy):
        """klmn_check's a and C against the same draws evaluated one state
        at a time on the whole basis, with the same grid of C (1e-13)."""
        h0 = build_free_hamiltonian(toy).csr
        h_i = dress_hamiltonian(toy, build_hamiltonian(toy),
                                build_T(toy)).csr - h0
        n1, _ = toy.sector_totals()
        rng = np.random.default_rng(9)
        xs, ys = [], []
        for _ in range(200):
            sector = fock.KLMN_SECTORS[rng.integers(len(fock.KLMN_SECTORS))]
            idx = np.where(n1 == sector)[0]
            v = rng.standard_normal(idx.size) + 1j * rng.standard_normal(
                idx.size)
            state = np.zeros(toy.dim, dtype=np.complex128)
            state[idx] = v / np.linalg.norm(v)
            xs.append(np.vdot(state, h0 @ state).real)
            ys.append(abs(np.vdot(state, h_i @ state)))
        xs, ys = np.array(xs), np.array(ys)
        pairs = []
        for c in np.linspace(0.0, ys.max() * 1.5 + 1e-12, 121):
            over = ys > c
            if not np.any(over):
                pairs.append((0.0, c))
            elif np.all(xs[over] > 1e-14):
                pairs.append((np.max((ys[over] - c) / xs[over]), c))
        a, c = min(pairs, key=lambda pair: pair[0])
        rep = klmn_check(toy, n_samples=200, seed=9)
        assert rep["a"] == pytest.approx(a, rel=1e-13, abs=1e-13)
        assert rep["C"] == pytest.approx(c, rel=1e-13)

    def test_form_bound_exists(self, toy):
        rep = klmn_check(toy, n_samples=200, seed=9)
        assert rep["satisfied"]
        assert rep["a"] <= KLMN_A_CAP
        assert rep["norm_kB_sq"] <= 1.0 / (toy.eps * toy.n_max_particles)


def test_no_eigh_is_reached(monkeypatch):
    """The conjugation (through dressed_comparison and klmn_check) and the
    correspondence experiment reach no eigendecomposition: neither
    np.linalg.eigh nor scipy.linalg.eigh is called."""
    calls = []

    def recording(eigh):
        def wrapped(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigh", recording(scipy.linalg.eigh))
    dressed_comparison(chain(dk=1e-6))
    klmn_check(chain(), n_samples=50, seed=9)
    correspondence_experiment(chain, [0.5, 0.25], [0.2, 0.1, 0.0],
                              [0.15, 0.1], 0.5, n_times=3)
    assert calls == []


def test_model_keeps_only_its_occupancy_and_ladder_tables():
    """At dim 35 490 (the chain, caps 12/11, eps = 0.125) the memory a
    built model holds is at most 1.1 times the bytes of its occupancy
    array and its two ladder tables: no other copy of the basis and no
    operator is kept."""
    tracemalloc.start()
    try:
        model = FockModel([0.0, 1.0, 2.0], [1.0, 2.0], dk=0.5, eps=0.125,
                          n_max_particles=12, n_max_phonons=11, sigma0=1.5,
                          max_dim=40000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.dim == 35490
    tables = (model.occupancy.nbytes + model._ladder_index.nbytes
              + model._ladder_value.nbytes)
    assert kept <= 1.1 * tables


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def propagate(model: FockModel, h: OperatorMatrix, psi0, times) -> list:
    """A Propagator of h applied to psi0 at each of the times."""
    prop = Propagator(h, model.eps)
    return [prop.apply(psi0, t) for t in times]


@pytest.mark.parametrize("stage", ["dressed_comparison", "propagator"])
def test_no_dense_operator_is_built(stage):
    """The conjugation and the propagator stay sparse: neither allocates as
    much as one dense dim x dim complex matrix at any moment."""
    model = chain(dk=1e-6)
    h = build_hamiltonian(model)
    psi0 = coherent_state(model, [0.2, 0.1, 0.0], [0.15, 0.1])
    run = {"dressed_comparison": lambda: dressed_comparison(model),
           "propagator": lambda: propagate(model, h, psi0,
                                           np.linspace(0.0, 0.5, 6))}[stage]
    run()
    assert traced_peak(run) < 16 * model.dim**2


def test_propagation_scales_to_dim_28392():
    """Six sampled times at eps = 1/32, n_max 11 (acceptance 10's mode
    layout and data): the Chebyshev propagation's traced peak stays under
    64 MB (measured 8.4 MB; a block eigendecomposition of H peaked at
    409 MB here)."""
    model = FockModel([0.0, 1.0, 2.0], [1.0, 2.0], dk=0.5, eps=1 / 32,
                      n_max_particles=11, n_max_phonons=11, sigma0=1.5,
                      max_dim=30000)
    assert model.dim == 28392
    h = build_hamiltonian(model)
    psi0 = coherent_state(model, [0.25, 0.15, 0.0], [0.2, 0.1])
    states = []
    peak = traced_peak(lambda: states.extend(
        propagate(model, h, psi0, np.linspace(0.0, 0.5, 6))))
    assert peak < 64e6
    assert all(abs(np.linalg.norm(s) - 1.0) < 1e-12 for s in states)


@pytest.mark.parametrize("stage", ["propagator", "dress_hamiltonian"])
def test_block_kernels_run_on_one_thread(stage):
    """At dim 525 neither the conjugation's sparse series nor the
    propagator's sparse products pay a second BLAS thread, which would
    only spin: 20
    calls take no more process CPU than 1.3 times their wall time (two
    threads read about 2)."""
    model = chain()
    h, t = build_hamiltonian(model), build_T(model)
    psi0 = coherent_state(model, [0.2, 0.1, 0.0], [0.15, 0.1])
    run = {"propagator": lambda: propagate(model, h, psi0,
                                           np.linspace(0.0, 0.5, 6)),
           "dress_hamiltonian": lambda: dress_hamiltonian(model, h, t)}[stage]
    run()
    time.sleep(0.5)  # let threads spinning after earlier BLAS calls settle
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for _ in range(20):
        run()
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    assert cpu <= 1.3 * wall


def test_operator_matrix_makes_no_blas_reduction(monkeypatch):
    """OpenBLAS threads its dot product on long vectors, so the hermiticity
    certificate reduces with ufuncs: it runs with BLAS reductions refused
    (dim 1176)."""
    h = build_hamiltonian(chain(n_max=5, dk=1e-6)).csr
    assert h.shape[0] == 1176

    def refuse(*args, **kwargs):
        raise AssertionError("BLAS reduction in OperatorMatrix")

    for owner, name in ((np, "vdot"), (np, "dot"), (np.linalg, "norm")):
        monkeypatch.setattr(owner, name, refuse)
    OperatorMatrix(h)
