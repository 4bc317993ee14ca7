import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

import polaronlab
from polaronlab import fock
from polaronlab.fock import (
    BOHR_SLACK,
    KLMN_A_CAP,
    FockModel,
    OperatorMatrix,
    Propagator,
    _blocks,
    _one_blas_thread,
    _openblas_libraries,
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
    expect,
    klmn_check,
    mode_amplitudes,
    mode_expectations,
    unitary_from_generator,
    vacuum,
    weyl_operator,
)


def chain(eps=0.5, n_max=4, dk=0.5) -> FockModel:
    """3 particle modes on a momentum chain, 2 phonon modes."""
    return FockModel(particle_momenta=[0.0, 1.0, 2.0],
                     phonon_momenta=[1.0, 2.0], dk=dk, eps=eps,
                     n_max_particles=n_max, n_max_phonons=n_max, sigma0=1.5)


def sectors(model: FockModel):
    """(N1, P) sector index of every basis state, and the sector sizes."""
    mp = model.n_particle_modes
    occ = model.occupancy
    momentum = occ[:, :mp] @ model.p + occ[:, mp:] @ model.k
    labels = np.column_stack([occ[:, :mp].sum(axis=1), np.rint(momentum)])
    _, sector, sizes = np.unique(labels, axis=0, return_inverse=True,
                                 return_counts=True)
    return sector.ravel(), sizes


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
        assert model.dim == len(model.basis) == len(set(model.basis))

    def test_guard_refuses_before_enumerating(self, monkeypatch):
        """n_max 400 on the chain is a basis of about 9e11 states: the guard
        refuses it from the count, without listing one."""
        def enumerate_nothing(*args):
            raise AssertionError("the basis was enumerated")

        monkeypatch.setattr(fock, "_sector_tuples", enumerate_nothing)
        with pytest.raises(ValueError, match="basis-size guard"):
            chain(n_max=400)

    def test_ccr_away_from_ceiling(self, toy):
        # [a, a*] = eps on the sub-basis that cannot touch the cutoff
        n2 = toy.occupancy[:, 3:].sum(axis=1)
        interior = np.where(n2 <= toy.n_max_phonons - 1)[0]
        for j in range(toy.n_phonon_modes):
            a = toy.a(j)
            comm = a @ a.conj().T - a.conj().T @ a
            block = comm[np.ix_(interior, interior)]
            assert np.max(np.abs(block - toy.eps * np.eye(len(interior)))) \
                < 1e-12

    def test_number_operators(self, toy):
        for sector in ("particles", "phonons"):
            n = toy.number_operator(sector).toarray()
            assert np.max(np.abs(n - np.diag(np.diag(n)))) == 0.0
            vals = np.diag(n).real
            assert np.min(vals) >= 0.0
            steps = np.unique(np.round(vals / toy.eps).astype(int))
            assert set(steps).issubset(set(range(0, 5)))

    def test_gamma_restriction_scaling(self, toy):
        # Gamma(M) on a one-particle basis state equals eps * M
        m = np.array([[0.3, 0.7, 0.0], [0.7, -0.2, 0.1], [0.0, 0.1, 0.5]],
                     dtype=complex)
        gm = toy.gamma(m)
        for i in range(3):
            occ = [0, 0, 0, 0, 0]
            occ[i] = 1
            col = toy.index[tuple(occ)]
            for j in range(3):
                occ2 = [0, 0, 0, 0, 0]
                occ2[j] = 1
                row = toy.index[tuple(occ2)]
                assert gm[row, col] == pytest.approx(toy.eps * m[j, i],
                                                     abs=1e-14)

    def test_ladders_match_occupancy_oracle(self, toy):
        for m in range(5):
            oracle = np.zeros((toy.dim, toy.dim), dtype=complex)
            for col, occ in enumerate(toy.basis):
                if occ[m]:
                    target = list(occ)
                    target[m] -= 1
                    oracle[toy.index[tuple(target)], col] = math.sqrt(
                        toy.eps * occ[m])
            assert np.array_equal(toy.psi(m).toarray(), oracle)

    def test_gamma_matches_occupancy_oracle(self, toy):
        # sum_ij M_ij psi_i* psi_j from its matrix elements on the basis
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        oracle = np.zeros((toy.dim, toy.dim), dtype=complex)
        for col, occ in enumerate(toy.basis):
            for i in range(3):
                for j in range(3):
                    if occ[j] == 0:
                        continue
                    target = list(occ)
                    target[j] -= 1
                    target[i] += 1
                    oracle[toy.index[tuple(target)], col] += (
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
        n1 = toy.number_operator("particles")
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
        h = build_hamiltonian(toy)
        t = build_T(toy)
        hd = dress_hamiltonian(toy, h, t)
        u = unitary_from_generator(t.matrix, 1.0 / toy.eps)
        assert np.max(np.abs(hd.matrix - u @ h.matrix @ u.conj().T)) < 1e-11
        sector, _ = sectors(toy)
        outside = sector[:, None] != sector[None, :]
        assert np.all(hd.matrix[outside] == 0.0)

    def test_assembled_terms_conserve_sectors(self, toy):
        sector, _ = sectors(toy)
        for name, part in assemble_dressed(toy).items():
            coo = part.tocoo()
            hop = coo.data[sector[coo.row] != sector[coo.col]]
            assert not np.any(hop), name

    def test_unitarity(self, toy):
        t = build_T(toy)
        u = unitary_from_generator(t.matrix, 1.0 / toy.eps)
        assert np.linalg.norm(u @ u.conj().T - np.eye(toy.dim)) < 1e-10

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

    def test_phonon_number_poisson(self, toy):
        alpha = [0.2, 0.1]
        psi = coherent_state(toy, [0, 0, 0], alpha)
        n2 = toy.number_operator("phonons")
        # equality up to the Poisson tail cut off at n_max
        assert expect(n2, psi).real == pytest.approx(
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
        af = sum(np.conj(fm) * low.toarray()
                 for fm, low in zip(f, toy._lower))
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
        e0 = expect(hd.matrix, psi).real
        e1 = expect(hd.matrix, prop.apply(psi, 1.3)).real
        assert abs(e1 - e0) < 1e-10 * (1 + abs(e0))

    def test_n1_conserved_under_both(self, toy):
        h = build_hamiltonian(toy)
        hd = dress_hamiltonian(toy, h, build_T(toy))
        n1 = toy.number_operator("particles")
        psi = coherent_state(toy, [0.2, 0.1, 0.0], [0.1, 0.1])
        for op in (h, hd):
            prop = Propagator(op, toy.eps)
            v0 = expect(n1, psi).real
            v1 = expect(n1, prop.apply(psi, 0.9)).real
            assert abs(v1 - v0) < 1e-10 * (1 + abs(v0))

    def test_blocks_joined_by_a_tiny_entry_merge(self):
        rng = np.random.default_rng(5)
        m = np.zeros((6, 6), dtype=complex)
        for idx in (np.arange(0, 6, 2), np.arange(1, 6, 2)):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m[np.ix_(idx, idx)] = x + x.conj().T
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        eps, t = 0.5, 0.7

        for coupling, blocks in ((0.0, [[0, 2, 4], [1, 3, 5]]),
                                 (1e-14, [list(range(6))])):
            m[4, 1] = m[1, 4] = coupling
            found = [b.tolist() for group in _blocks(sparse.csr_array(m))
                     for b in group]
            assert sorted(found) == blocks
            op = OperatorMatrix(m)
            assert np.max(np.abs(Propagator(op, eps).apply(psi, t)
                                 - dense_propagation(op, eps, psi, t))) < 1e-12

    def test_undressed_route_via_conjugation(self, toy):
        # e^{-itH/eps} equals U* e^{-it UHU*/eps} U
        h = build_hamiltonian(toy)
        t_op = build_T(toy)
        hd = dress_hamiltonian(toy, h, t_op)
        u = unitary_from_generator(t_op.matrix, 1.0 / toy.eps)
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
        val = expect(hd.matrix - h0.matrix, psi0)
        assert abs(val) < 1e-12

    def test_form_bound_exists(self, toy):
        rep = klmn_check(toy, n_samples=200, seed=9)
        assert rep["satisfied"]
        assert rep["a"] <= KLMN_A_CAP
        assert rep["norm_kB_sq"] <= 1.0 / (toy.eps * toy.n_max_particles)


def test_eigh_sees_no_block_beyond_a_sector(monkeypatch):
    """The conjugation diagonalises one (N1, P) sector at a time, never the
    whole space: every eigh input, single matrix or stack, is at most one
    sector wide.  The correspondence experiment reaches no eigh at all."""
    shapes = []

    def recording(eigh):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return eigh(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigh", recording(scipy.linalg.eigh))
    model = chain(dk=1e-6)
    correspondence_experiment(chain, [0.5, 0.25], [0.2, 0.1, 0.0],
                              [0.15, 0.1], 0.5, n_times=3)
    assert shapes == []
    dressed_comparison(model)
    _, sizes = sectors(model)
    assert shapes and max(max(s) for s in shapes) <= sizes.max() < model.dim


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


def _thread_counts(libraries) -> list:
    return [get() for get, _ in libraries]


def test_one_blas_thread_holds_and_restores():
    """Inside the helper every loaded OpenBLAS runs one thread; after it,
    each runs the count it had before.  A numpy built on scipy-openblas has
    at least one to find."""
    libraries = _openblas_libraries()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas["name"] == "scipy-openblas":
        assert libraries
    saved = _thread_counts(libraries)
    try:
        for _, put in libraries:
            put(2)
        with _one_blas_thread():
            assert _thread_counts(libraries) == [1] * len(libraries)
        assert _thread_counts(libraries) == [2] * len(libraries)
    finally:
        for (_, put), n in zip(libraries, saved):
            put(n)


def test_import_looks_up_no_blas_library():
    """Importing the package (its command line loads every module) neither
    looks up OpenBLAS nor sets a thread count: only entering the helper
    does."""
    src = os.path.dirname(os.path.dirname(polaronlab.__file__))
    code = ("import polaronlab, polaronlab.cli; "
            "from polaronlab.fock import _openblas_libraries as lookup; "
            "print(lookup.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("stage", ["propagator", "dress_hamiltonian"])
def test_block_kernels_run_on_one_thread(stage):
    """At dim 525 neither the conjugation's blocks nor the propagator's
    sparse products pay a second BLAS thread, which would only spin: 20
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
