"""The spin sampler: factors built with their norm sign, products built as a loop would.

``sample_spin_plus`` draws each factor's norm sign first and then builds the
factor with exactly that norm, so no draw can fail.  The tests check the
factors' norms and norm parity on every signature of dimension 2 to 10,
the stacked products against the per-element loop
``mat = mat @ represent(rep, v)`` byte for byte, and that whole runs give
records, never an exception: on the seeds the earlier rejection sampler
aborted, and with a perturbed Dirac matrix.
"""

import numpy as np
import pytest

from kreintwist import clifford as cl
from kreintwist.clifford import all_signatures, build_gammas, metric_pairings, represent
from kreintwist.krein import sample_spin_plus
from kreintwist.report import SuiteConfig
from kreintwist.suites import run

SIGS = all_signatures((2, 4, 6, 8, 10))
SEEDS = range(30)
# (count, max_pairs) cycled through the seeds: each signature sees each shape five times
SHAPES = [(20, 3), (1, 3), (5, 3), (20, 1), (1, 1), (5, 1)]


def _samples(rep):
    for seed in SEEDS:
        count, max_pairs = SHAPES[seed % len(SHAPES)]
        yield seed, count, max_pairs, sample_spin_plus(rep, count, np.random.default_rng(seed), max_pairs)


def _same_elements(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert len(x.factors) == len(y.factors)
        for u, v in zip(x.factors, y.factors):
            assert u.tobytes() == v.tobytes()
        assert x.matrix.tobytes() == y.matrix.tobytes()


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_factors_have_unit_norm_bounded_size_and_even_parity(sig):
    rep = build_gammas(sig)
    for seed, count, max_pairs, elements in _samples(rep):
        assert [len(s.factors) for s in elements] == [2 * (j % max_pairs + 1) for j in range(count)]
        for s in elements:
            vs = np.array(s.factors)
            g = np.real(metric_pairings(rep, vs, vs))
            assert np.max(np.abs(np.abs(g) - 1.0)) <= 1e-14, (seed, g)
            assert np.max(np.sum(vs * vs, axis=1)) <= 3.0 + 1e-12, seed
            assert np.count_nonzero(g < 0) % 2 == 0, seed
            if sig.q == 0:
                assert np.all(g > 0)
            if sig.p == 0:
                assert np.all(g < 0)


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_stacked_products_match_the_loop(sig):
    rep = build_gammas(sig)
    for _, _, _, elements in _samples(rep):
        for s in elements:
            mat = np.eye(rep.dim, dtype=np.complex128)
            for v in s.factors:
                mat = mat @ represent(rep, v)
            assert s.matrix.dtype == mat.dtype and s.matrix.tobytes() == mat.tobytes()


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_the_sampler_draws_from_the_callers_generator(sig):
    # the same generator state gives the same elements, and the generator
    # moves past the draws: a second sample from it is a new one
    rep = build_gammas(sig)
    for seed, count, max_pairs, elements in _samples(rep):
        rng = np.random.default_rng(seed)
        _same_elements(elements, sample_spin_plus(rep, count, rng, max_pairs))
        again = sample_spin_plus(rep, count, rng, max_pairs)
        assert again[0].factors[0].tobytes() != elements[0].factors[0].tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 11])
def test_seeds_the_rejection_sampler_aborted_give_reports(seed):
    report = run(SuiteConfig(seed=seed))
    assert len(report.records) == 599


def test_a_perturbed_dirac_matrix_gives_failed_records(monkeypatch):
    cfg = SuiteConfig(suites=("krein", "morphism", "product"), signatures=((1, 3),), seed=0)
    ids = [r.check_id for r in run(cfg).records]
    canonical = cl.canonical_dirac_pair

    def perturbed(rep, K):
        d, dk = canonical(rep, K)
        if (rep.sig.p, rep.sig.q) == (1, 3):
            h = np.random.default_rng(0).normal(size=(2, *d.shape))
            h = h[0] + 1j * h[1]
            d = d + 1e-6 * (h + h.conj().T)
        return d, dk

    monkeypatch.setattr(cl, "canonical_dirac_pair", perturbed)
    records = run(cfg).records
    assert [r.check_id for r in records] == ids
    assert {r.suite for r in records if not r.passed} == {"krein", "morphism", "product"}
