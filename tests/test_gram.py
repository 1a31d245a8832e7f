"""Unit tests for the Gram family construction and conversions."""

from fractions import Fraction

import numpy as np
import pytest

from quartic_sos.forms import (
    DEGREE4_MONOMIALS,
    QuadraticForm,
    TernaryQuartic,
    parse_quartic,
    poly_add,
    poly_scale,
    quad_square,
)
from quartic_sos.gram import (
    KERNEL_BASIS,
    LAMBDA_SLOTS,
    PIVOT_ALPHA,
    RANK_EIG_TOL,
    NotInFamilyError,
    build_family,
    complete_squares,
    gram_to_poly,
    gram_to_quartic,
    lambda_of_gram,
    representation_to_gram,
)
from quartic_sos.cli import random_corpus_quartic
from quartic_sos.resultant import exact_rank

from gram_arrays import sym


def _random_quartic(rng) -> TernaryQuartic:
    coeffs = {}
    for e in DEGREE4_MONOMIALS:
        num = int(rng.integers(-9, 10))
        if num:
            coeffs[e] = Fraction(num, int(rng.integers(1, 5)))
    if not coeffs:
        coeffs[(4, 0, 0)] = Fraction(1)
    return TernaryQuartic(coeffs)


def test_fermat_base_is_diagonal():
    family = build_family(parse_quartic("x^4+y^4+z^4"))
    assert family.base.dtype == object
    assert np.array_equal(family.base, sym({(i, i): 1 for i in range(3)}))


def test_kernel_basis_annihilates_monomial_vector():
    # m^T B_i m must be identically zero for each basis matrix
    for B in KERNEL_BASIS:
        assert gram_to_poly(B) == {}


def test_kernel_basis_is_linearly_independent():
    assert exact_rank(KERNEL_BASIS.reshape(6, 36).tolist()) == 6


def test_symmetric_to_quartic_map_has_nullity_six():
    # the 15x21 map from symmetric entries to quartic coefficients has rank 15,
    # so the kernel basis spans the full nullspace
    pairs = [(i, j) for i in range(6) for j in range(i, 6)]
    rows = [[gram_to_poly(sym({pair: Fraction(1)})).get(e, Fraction(0)) for pair in pairs]
            for e in DEGREE4_MONOMIALS]
    assert exact_rank(rows) == 15
    assert 21 - exact_rank(rows) == 6


def test_gram_to_quartic_identity_matrix():
    G = sym({(i, i): Fraction(1) for i in range(6)})
    f = gram_to_quartic(G)
    assert dict(f.coeffs) == {
        (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1,
        (0, 2, 2): 1, (2, 0, 2): 1, (2, 2, 0): 1,
    }


def test_family_base_reproduces_source():
    rng = np.random.default_rng(np.random.SeedSequence([12, 0]))
    for _ in range(20):
        f = _random_quartic(rng)
        family = build_family(f)
        assert dict(gram_to_quartic(family.base).coeffs) == dict(f.coeffs)


def test_family_identity_at_random_lambda():
    rng = np.random.default_rng(np.random.SeedSequence([12, 1]))
    for _ in range(20):
        f = _random_quartic(rng)
        family = build_family(f)
        lam = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                    for _ in range(6))
        assert dict(gram_to_quartic(family.matrix_at(lam)).coeffs) == dict(f.coeffs)


@pytest.mark.parametrize("name", ["fermat"] + [f"random-{i}" for i in range(5)])
def test_matrix_at_rational_lambda_is_exact(name):
    # G(lam) at a rational lam holds only Fractions and reproduces f; the
    # base G0 it starts from is read-only
    f = parse_quartic("x^4+y^4+z^4") if name == "fermat" else random_corpus_quartic(0, int(name[7:]))
    family = build_family(f)
    rng = np.random.default_rng(np.random.SeedSequence([21, 0]))
    for _ in range(10):
        lam = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(6))
        G = family.matrix_at(lam)
        assert G.dtype == object
        assert all(type(v) is Fraction for v in G.flat)
        assert gram_to_quartic(G) == f
    with pytest.raises(ValueError):
        family.base[0, 0] = Fraction(2)


def test_representation_to_gram_expands_the_squares_exactly():
    # m^T G m = sum s_i p_i^2 in Fractions, against forms' dict arithmetic,
    # on Fermat's certificate (x^2, y^2, z^2) and on random rational triples
    rng = np.random.default_rng(np.random.SeedSequence([21, 1]))
    triples = [[QuadraticForm.parse(p) for p in ("x^2", "y^2", "z^2")]]
    triples += [[QuadraticForm(tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                                     for _ in range(6))) for _ in range(3)] for _ in range(10)]
    for forms in triples:
        for signs in ((1, 1, 1), (1, 1, -1)):
            want = {}
            for s, p in zip(signs, forms):
                want = poly_add(want, poly_scale(dict(quad_square(p).coeffs), s))
            G = representation_to_gram(signs, forms)
            assert all(isinstance(v, (int, Fraction)) for v in G.flat)
            assert dict(gram_to_quartic(G).coeffs) == want


def test_representation_to_gram_diagonal_cases():
    forms = (QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("z^2"))
    G = representation_to_gram((1, 1, 1), forms)
    assert np.array_equal(G, sym({(0, 0): 1, (1, 1): 1, (2, 2): 1}))
    G = representation_to_gram((1, 1, -1), forms)
    assert np.array_equal(G, sym({(0, 0): 1, (1, 1): 1, (2, 2): -1}))


def test_representation_to_gram_orthogonal_mixing_invariance():
    # Householder H = I - 2 v v^T / (v^T v) is exactly orthogonal over Q;
    # mixing all-plus forms by H leaves the Gram matrix identical
    rng = np.random.default_rng(np.random.SeedSequence([12, 2]))
    v = [Fraction(1), Fraction(2), Fraction(3)]
    vv = sum(c * c for c in v)
    H = [[(Fraction(1) if i == j else Fraction(0)) - 2 * v[i] * v[j] / vv
          for j in range(3)] for i in range(3)]
    for _ in range(5):
        forms = [QuadraticForm(tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                                     for _ in range(6))) for _ in range(3)]
        mixed = [QuadraticForm(tuple(sum(H[i][j] * forms[j].coeffs[k] for j in range(3))
                                     for k in range(6))) for i in range(3)]
        assert np.array_equal(representation_to_gram((1, 1, 1), forms),
                              representation_to_gram((1, 1, 1), mixed))


def test_representation_to_gram_validates_input():
    q = QuadraticForm.parse("x^2")
    with pytest.raises(ValueError):
        representation_to_gram((1, 1), (q, q))
    with pytest.raises(ValueError):
        representation_to_gram((1, 2, 1), (q, q, q))


def test_lambda_of_gram_read_off():
    family = build_family(parse_quartic("x^4+y^4+z^4"))
    assert lambda_of_gram(family, family.base) == (0, 0, 0, 0, 0, 0)
    shifted = family.base + KERNEL_BASIS[3]
    assert lambda_of_gram(family, shifted) == (0, 0, 0, 1, 0, 0)


def test_lambda_of_gram_fermat_representation():
    family = build_family(parse_quartic("x^4+y^4+z^4"))
    forms = (QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("z^2"))
    G = representation_to_gram((1, 1, 1), forms)
    assert lambda_of_gram(family, G) == (0, 0, 0, 0, 0, 0)


def test_lambda_of_gram_round_trip_random():
    rng = np.random.default_rng(np.random.SeedSequence([12, 3]))
    for _ in range(10):
        f = _random_quartic(rng)
        family = build_family(f)
        lam = tuple(Fraction(int(rng.integers(-9, 10))) for _ in range(6))
        assert lambda_of_gram(family, family.matrix_at(lam)) == lam


def test_lambda_of_gram_rejects_foreign_matrix():
    family = build_family(parse_quartic("x^4+y^4+z^4"))
    wrong = sym({(0, 0): Fraction(2)})
    with pytest.raises(NotInFamilyError):
        lambda_of_gram(family, wrong)


def test_lambda_slots_touched_by_one_basis_matrix_each():
    for k, slot in enumerate(LAMBDA_SLOTS):
        touching = [i for i, B in enumerate(KERNEL_BASIS) if B[slot] != 0]
        assert touching == [k]
        assert KERNEL_BASIS[k][slot] == 1


def test_complete_squares_reads_rank_and_signature():
    # a real symmetric 6x6 matrix of each rank and inertia, conjugated by a
    # random basis change: the pivot signs are its inertia (Sylvester's law)
    rng = np.random.default_rng(np.random.SeedSequence([17, 0]))
    for pos, neg in ((3, 0), (2, 1), (1, 2), (0, 3), (6, 0), (3, 3), (1, 0), (2, 2)):
        P = rng.standard_normal((6, 6))
        A = P.T @ np.diag([1.0] * pos + [-1.0] * neg + [0.0] * (6 - pos - neg)) @ P
        signs, vecs = complete_squares(A)
        assert (signs.count(1), signs.count(-1)) == (pos, neg)
        back = sum(s * np.outer(w, w) for s, w in zip(signs, vecs))
        assert np.max(np.abs(back - A)) < 1e-12 * np.max(np.abs(A))


def test_complete_squares_complex_and_degenerate_input():
    # complex input: squares with signs +1 whose sum is the matrix
    rng = np.random.default_rng(np.random.SeedSequence([17, 1]))
    W = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    A = W @ W.T
    signs, vecs = complete_squares(A)
    assert signs == [1, 1, 1]
    assert np.max(np.abs(sum(np.outer(w, w) for w in vecs) - A)) < 1e-12 * np.max(np.abs(A))
    # zero diagonal: the hyperbolic step along e_u + e_v
    A = np.zeros((6, 6))
    A[0, 1] = A[1, 0] = 3.0
    signs, vecs = complete_squares(A)
    assert sorted(signs) == [-1, 1]
    assert np.max(np.abs(sum(s * np.outer(w, w) for s, w in zip(signs, vecs)) - A)) < 1e-14
    # nothing above the rank tolerance: rank 0
    assert complete_squares(np.zeros((6, 6))) == ([], [])


def _complete_squares_one_at_a_time(A):
    """The one-matrix loop the batch replaced, kept as its reference: the
    pivot column as a product S @ d with d = e_j or e_u + e_v."""
    real = not np.iscomplexobj(A)
    norm = max(np.max(np.abs(A)), 1e-300)
    S = A / norm
    signs, vecs = [], []
    while len(vecs) < len(S) and np.max(np.abs(S)) >= RANK_EIG_TOL:
        diag = np.abs(np.diag(S))
        j = int(np.argmax(diag))
        off = np.abs(np.triu(S, 1))
        u, v = np.unravel_index(int(np.argmax(off)), off.shape)
        d = np.zeros(len(S))
        if diag[j] > PIVOT_ALPHA * off[u, v]:
            d[j] = 1.0
        else:
            d[u] = d[v] = 1.0
        Sd = S @ d
        pivot = d @ Sd
        sign = -1 if real and pivot < 0 else 1
        w = Sd / np.sqrt(abs(pivot) if real else complex(pivot))
        S = S - sign * np.outer(w, w)
        signs.append(sign)
        vecs.append(w)
    return signs, [np.sqrt(norm) * w for w in vecs]


def test_complete_squares_of_a_stack_is_each_matrix_alone():
    # matrices of different ranks stop at different steps, and a complex
    # stack eliminates the ones whose entries are all real in real
    # arithmetic: each comes out bit for bit as the one-matrix loop completes it
    rng = np.random.default_rng(np.random.SeedSequence([17, 2]))
    mats, real = [], []
    for rank in (3, 1, 6, 0, 2, 3):
        P = rng.standard_normal((6, rank))
        mats.append(P @ np.diag(rng.choice([-1.0, 1.0], rank)) @ P.T)
        real.append(True)
        Q = P + 1j * rng.standard_normal((6, rank))
        mats.append(Q @ Q.T)
        real.append(False)
    A = np.zeros((6, 6))
    A[0, 1] = A[1, 0] = 3.0  # the hyperbolic step
    mats.append(A)
    real.append(True)
    B = np.diag([0.5, 0.5, 1.2, 0.0, 0.0, 0.0])
    B[0, 1] = B[1, 0] = 1.0  # a diagonal below PIVOT_ALPHA times |B_01|: hyperbolic too
    mats.append(B)
    real.append(True)
    real[7] = True  # the rank-0 complex product is the zero matrix
    signs, W = complete_squares(np.array(mats, dtype=complex))
    for A, is_real, s, w in zip(mats, real, signs, W):
        one_signs, one_vecs = _complete_squares_one_at_a_time(A.real if is_real else A)
        rank = len(one_signs)
        assert s.tolist() == one_signs + [0] * (6 - rank)
        assert not np.any(w[rank:])
        for got, want in zip(w, one_vecs):
            assert (got.real if is_real else got).tobytes() == want.tobytes()
        assert complete_squares(A.real if is_real else A)[0] == one_signs
