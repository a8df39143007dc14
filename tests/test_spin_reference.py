"""The stacked spin sampler against the per-candidate loop, bit for bit.

The reference below is the loop the sampler was first written as: one
``rng.normal(size=n_gen)``, one ``metric_pairing`` and one ``v @ v`` per
candidate, and each product built as ``mat = mat @ represent(rep, v)`` from
the identity.  The stacked sampler walks the same candidates in blocks and
multiplies stacks of chains; every factor and every matrix must have the
same bytes, and every aborting draw the same exception and message.
"""

import numpy as np
import pytest

from kreintwist.clifford import Signature, all_signatures, build_gammas, metric_pairing, represent
from kreintwist.krein import RandomDegenerateError, sample_spin_plus

SIGS = all_signatures((2, 4, 6, 8, 10))
SEEDS = range(30)
# (count, max_pairs) cycled through the seeds: each signature sees each shape five times
SHAPES = [(20, 3), (1, 3), (5, 3), (20, 1), (1, 1), (5, 1)]


def ref_draw(rep, rng, want_negative=None):
    for _ in range(100):
        v = rng.normal(size=rep.n_gen)
        q = float(np.real(metric_pairing(rep, v, v)))
        if abs(q) < 1e-8:
            continue
        if want_negative is not None and (q < 0) != want_negative:
            continue
        if float(v @ v) > 3.0 * abs(q):
            continue
        return v / np.sqrt(abs(q)), (1 if q > 0 else -1)
    raise RandomDegenerateError("no admissible unit vector found in 100 attempts")


def ref_sample(rep, count, seed, max_pairs):
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        factors, norms = [], []
        for _ in range(2 * ((j % max_pairs) + 1)):
            v, s = ref_draw(rep, rng)
            factors.append(v)
            norms.append(s)
        if sum(1 for s in norms if s < 0) % 2 == 1:
            want_neg = norms[-1] > 0
            if want_neg and rep.sig.q == 0:
                raise RandomDegenerateError("cannot fix norm parity in this signature")
            factors[-1], norms[-1] = ref_draw(rep, rng, want_negative=want_neg)
        mat = np.eye(rep.dim, dtype=np.complex128)
        for v in factors:
            mat = mat @ represent(rep, v)
        out.append((factors, mat))
    return out


def _outcome(sample, *args):
    try:
        return sample(*args)
    except RandomDegenerateError as exc:
        return exc


def _assert_same(rep, count, seed, max_pairs):
    got = _outcome(sample_spin_plus, rep, count, seed, max_pairs)
    want = _outcome(ref_sample, rep, count, seed, max_pairs)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return want
    assert len(got) == len(want) == count
    for element, (factors, mat) in zip(got, want):
        assert len(element.factors) == len(factors)
        for u, v in zip(element.factors, factors):
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes()
        assert element.matrix.dtype == mat.dtype and element.matrix.tobytes() == mat.tobytes()
    return None


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_stacked_sampler_matches_the_loop(sig):
    rep = build_gammas(sig)
    for seed in SEEDS:
        count, max_pairs = SHAPES[seed % len(SHAPES)]
        _assert_same(rep, count, seed, max_pairs)


@pytest.mark.parametrize("sig, seeds", [((5, 1), [0, 8, 11]), ((1, 5), [6, 22, 25])], ids=str)
def test_exhausted_draws_abort_like_the_loop(sig, seeds):
    rep = build_gammas(Signature(*sig))
    for seed in seeds:
        exc = _assert_same(rep, 20, seed, 3)
        assert isinstance(exc, RandomDegenerateError) and "100 attempts" in str(exc)
