"""Commutant computation and the staged splitting-element search."""

import dataclasses
import itertools
import json
import math
import os
import random
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod import GF2, QQ, gf
from cyclomod import endo
from cyclomod.boolfn import decompose_boolean, parse_anf, sn_action
from cyclomod.linalg import DenseMatrix, _box, _RawVector, _read_lanes, _unit, rref
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.decompose import check_report, complete_decomposition, decompose_once
from cyclomod.endo import (
    Certificate,
    EndoAlgebra,
    _min_poly,
    _scan_candidates,
    compute_end,
    find_splitting_element,
    verify_certificate,
)
from cyclomod.perms import permutation_module
from cyclomod.polynomials import factor
from cyclomod.serialize import presentation_from_json

from fixtures import (
    conjugated_jordan_module,
    int_mul,
    multiquadratic_module,
    quaternion_module,
    regular_presentation,
    regular_s4_module,
    unimodular_pair,
    s3_anf_action,
    s3_regular_action,
    swap_invariant_module,
    s3_natural_action,
    symmetric_group,
    G,
    F_VEC,
)

import oracles
from oracles import (
    commutant_basis,
    count_idempotents_brute,
    enumerate_idempotents,
    is_fitting_split_by_parts,
    left_mult_matrix,
    radical_char0,
    span_equal,
)
from test_acceptance import krull_schmidt_corpus
from test_golden import GOLDEN, SPLIT_4_6, SWAP_INVARIANT


def ones_matrix(field, n):
    one = field.one()
    return DenseMatrix(field, [[one] * n for _ in range(n)], cols=n)


def test_commutant_of_identity_is_everything():
    ident = DenseMatrix.identity(QQ, 2)
    basis = commutant_basis(QQ, 2, [ident])
    assert len(basis) == 4
    # no constraints at all gives the same answer
    assert len(commutant_basis(QQ, 3, [])) == 9
    assert commutant_basis(QQ, 0, []) == []


def test_commutant_respects_shapes():
    with pytest.raises(ValueError):
        commutant_basis(QQ, 2, [DenseMatrix.identity(QQ, 3)])
    with pytest.raises(ValueError):
        commutant_basis(QQ, 2, [DenseMatrix.identity(GF2, 2)])


def test_endo_of_swap_invariant_module():
    m = swap_invariant_module()
    e = compute_end(m)
    assert e.dim == 2
    assert e.module_dim == 3
    ident = DenseMatrix.identity(GF2, 3)
    assert e.contains(ident)
    assert e.contains(ones_matrix(GF2, 3))
    # every algebra element commutes with both restricted generators
    for b in e.basis:
        for label, s in e.action_mats:
            assert b * s == s * b


def test_element_coordinate_roundtrip():
    e = compute_end(swap_invariant_module())
    for coords in [(1, 0), (0, 1), (1, 1)]:
        mat = e.element(coords)
        back = oracles.endo_coordinates(e, mat)
        assert back is not None
        assert e.element(back) == mat
    assert oracles.endo_coordinates(e, DenseMatrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])) is None


def test_all_four_elements_idempotent():
    # the commutant here is {aI + bJ} with J the all-ones matrix; over
    # GF(2) every element squares to itself
    e = compute_end(swap_invariant_module())
    seen = 0
    for a in (0, 1):
        for b in (0, 1):
            mat = e.element((a, b)) if e.dim == 2 else None
            combo = (
                DenseMatrix.identity(GF2, 3).scale(GF2.scalar(a))
                + ones_matrix(GF2, 3).scale(GF2.scalar(b))
            )
            assert combo * combo == combo
            seen += 1
    assert seen == 4
    raw_basis = [[[x.value for x in row] for row in b.entries] for b in e.basis]
    assert count_idempotents_brute(2, raw_basis) == 4


def _is_nilpotent(mat):
    return oracles.stable_power_by_rref(mat)[1].rank == 0


def test_nilpotent_invertible_membership():
    e = compute_end(swap_invariant_module())
    ident = DenseMatrix.identity(GF2, 3)
    j = ones_matrix(GF2, 3)
    assert not _is_nilpotent(ident)
    assert not _is_nilpotent(j)
    assert _is_nilpotent(DenseMatrix.zeros(GF2, 3, 3))
    assert not e.contains(DenseMatrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    # the GF(3) identity has the same raw entries as the GF(2) one
    with pytest.raises(ValueError, match="mixed fields"):
        e.contains(DenseMatrix.identity(gf(3), 3))
    with pytest.raises(ValueError, match="mixed fields"):
        EndoAlgebra(GF2, 3, [DenseMatrix.identity(gf(3), 3)], e.action_mats)


def _fitting(e, mat):
    """The scan's Fitting certificate of mat, None for a unit or a nilpotent element."""
    return endo._fitting_witness(e, mat, {})


def test_fitting_split_on_projection():
    m = swap_invariant_module()
    e = compute_end(m)
    j = ones_matrix(GF2, 3)
    cert = _fitting(e, j)
    assert cert is not None
    a, b = cert.parts
    assert [len(tree.words) for tree in verify_certificate(e, cert)] == [2, 1]
    # the image is the invariant line through (1,1,1), which is F in ambient
    # terms, and e_0 = (1,0,0) is (0,1,1) in the kernel plus (1,1,1) on it
    assert list(a) == [0, 1, 1]
    assert m.coordinates(F_VEC) == tuple(b)
    assert _fitting(e, DenseMatrix.identity(GF2, 3)) is None
    assert _fitting(e, DenseMatrix.zeros(GF2, 3, 3)) is None


def _record_products(monkeypatch):
    """Make DenseMatrix.__mul__ append its operands to the returned list."""
    products = []
    mul = DenseMatrix.__mul__

    def recording_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(DenseMatrix, "__mul__", recording_mul)
    return products


def test_fitting_split_forms_no_matrix_product(monkeypatch):
    # a split is read off the first-column minimal polynomial: no power of
    # the witness, nor of a unit or a nilpotent candidate, is formed
    products = _record_products(monkeypatch)
    e = compute_end(swap_invariant_module())
    products.clear()
    assert _fitting(e, DenseMatrix.identity(GF2, 3)) is None
    cert = _fitting(e, ones_matrix(GF2, 3))
    assert is_fitting_split_by_parts(2, [[1] * 3] * 3, *cert.parts)
    # a nilpotent 4x4 Jordan block, and a witness t^2 (t - c) of every field
    m = conjugated_jordan_module(QQ, 4, 3)
    e = compute_end(m)
    products.clear()
    assert _fitting(e, m.restricted["n"]) is None
    rng = random.Random(14)
    for field in (GF2, gf(3), QQ):
        for m in _jordan_beside_units(rng, field, 4):
            e = compute_end(m)
            products.clear()
            cert = _fitting(e, m.restricted["a"])
            assert cert is not None and products == []
            raw = [[x.value for x in row] for row in m.restricted["a"].entries]
            assert is_fitting_split_by_parts(field.characteristic, raw, *cert.parts)
    assert products == []


def _jordan_beside_units(rng, field, count):
    """Cyclic modules of A = P (J_k(0) + D) P^-1, for a nilpotent Jordan block of size k >= 2 beside a unit diagonal D.

    A is a Fitting witness whose minimal polynomial has the factor t^k;
    over GF(2), D is the identity.
    """
    units = [c for c in (-3, -2, -1, 1, 2, 3) if c % (field.characteristic or 5)]
    out = []
    for _ in range(count):
        n = rng.randint(3, 7)
        k = rng.randint(2, n - 1)
        d = [[int(j == i + 1 and j < k) or (i == j >= k) * rng.choice(units) for j in range(n)] for i in range(n)]
        conj, inverse = unimodular_pair(rng, n)
        a = int_mul(int_mul(conj, d), inverse)
        out.append(orbit_basis(AlgebraAction(field, [("a", a)]), [sum(row) for row in conj]))
    return out


def _min_poly_split(e, x):
    """(cert, k0, f0(x)): the candidate loop's split of x, for f0^k0 its first primary factor, f0(x) on FieldScalars.

    None when the minimal polynomial of x has one primary factor.
    """
    f, krylov = _min_poly(x)
    factors = factor(f)
    if len(factors) < 2:
        return None
    p = e.field.characteristic
    g, h = endo._power_product(p, factors[:1]), endo._power_product(p, factors[1:])
    f0, k0 = factors[0]
    cert = endo._fitting_split(e, krylov, g, h, {}, "min-poly-split")
    return cert, k0, oracles.boxed_poly_of_matrix(e.field, f0.coeffs, x)


def test_fitting_parts_match_the_stable_power_reference():
    # the parts read off the minimal polynomial t^k h are those along the
    # kernel and the image of the stable power, one solve over both; a
    # min-poly split's, with f0^k0 its first primary factor, are those of
    # the stable power of f0(x).  Every element tried is a scan candidate,
    # a generator in E or a random element of E
    rng = random.Random(15)
    counts = {}
    for field in (GF2, gf(3), QQ):
        p = field.characteristic
        modules = _jordan_beside_units(rng, field, 12) + _random_modules(rng, field, 12)
        modules += _fractional_modules(rng, 6) if p == 0 else []
        for m in modules:
            e = compute_end(m)
            lo, hi = (-2, 2) if p == 0 else (0, p - 1)
            elements = list(itertools.islice(_scan_candidates(e), 12)) + [a for a in m.restricted.values() if e.contains(a)]
            elements += [e.element([rng.randint(lo, hi) for _ in range(e.dim)]) for _ in range(4)]
            for x in elements:
                ref = oracles.fitting_parts_by_stable_power(x)
                cert = _fitting(e, x)
                if ref is None:
                    assert cert is None
                    kind = "unit or nilpotent"
                else:
                    assert tuple(_box(field, v) for v in cert.parts) == ref
                    k = next(i for i, c in enumerate(_min_poly(x)[0].coeffs) if c)
                    kind = "k >= 2" if k >= 2 else "k = 1"
                counts[field, kind] = counts.get((field, kind), 0) + 1
                split = _min_poly_split(e, x)
                if split is None:
                    continue
                cert, k0, f0x = split
                assert tuple(_box(field, v) for v in cert.parts) == oracles.fitting_parts_by_stable_power(DenseMatrix(field, f0x))
                kind = "k0 >= 2" if k0 >= 2 else "k0 = 1"
                counts[field, kind] = counts.get((field, kind), 0) + 1
    assert len(counts) == 15 and min(counts.values()) >= 20, counts


def _shaped_matrix(field, rng, n, form, den):
    """An integer n x n matrix P D P^-1 for a unimodular P and a D of the given form, over den over Q."""
    conj, inverse = unimodular_pair(rng, n)
    k = rng.randrange(1, n + 1)
    units = [c for c in (-3, -2, -1, 1, 2, 3) if c % (field.characteristic or 5)]
    if form == "invertible":
        d = [[int(i == j) * rng.choice(units) for j in range(n)] for i in range(n)]
    elif form == "nilpotent":
        d = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    elif form == "falling":
        # a nilpotent Jordan block of size k next to a unit: the rank falls by one a power
        d = [[int(j == i + 1 and j < k) or (i == j >= k) * rng.choice(units) for j in range(n)] for i in range(n)]
    elif form == "idempotent":
        d = [[int(i == j < k) for j in range(n)] for i in range(n)]
    else:
        d = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    rows = int_mul(int_mul(conj, d), inverse)
    return [[Fraction(x, den) for x in row] for row in rows] if field == QQ else rows


def _nth_power_rank(p, raw):
    """The rank of the n-th power of an n x n matrix of raw values, Fractions over Q, by plain products."""
    power = raw
    for _ in range(len(raw) - 1):
        power = oracles.raw_mat_mul(p, power, raw)
    return oracles.raw_rank(p, power)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    field=st.sampled_from([GF2, gf(3), QQ]),
    n=st.integers(min_value=2, max_value=7),
    form=st.sampled_from(["random", "falling", "idempotent", "invertible", "nilpotent"]),
    den=st.integers(min_value=1, max_value=12),
)
def test_fitting_parts_lie_in_the_kernel_and_image_of_the_nth_power(seed, field, n, form, den):
    # on the module of one shaped matrix A, for A and random elements x of E:
    # the scan splits x exactly when 0 < rank x^n < dim, along
    # ker x^n + im x^n, and a min-poly split along ker f0(x)^n + im f0(x)^n,
    # each checked with plain products
    rng = random.Random(seed)
    p = field.characteristic
    action = AlgebraAction(field, [("a", _shaped_matrix(field, rng, n, form, den))])
    m = orbit_basis(action, [rng.randint(-1, 1) or 1 for _ in range(n)])
    e = compute_end(m)
    lo, hi = (-2, 2) if p == 0 else (0, p - 1)
    for x in [m.restricted["a"]] + [e.element([rng.randint(lo, hi) for _ in range(e.dim)]) for _ in range(3)]:
        raw = [[c.value for c in row] for row in x.entries]
        cert = _fitting(e, x)
        assert (cert is not None) == (0 < _nth_power_rank(p, raw) < m.dim)
        if cert is not None:
            assert is_fitting_split_by_parts(p, raw, *cert.parts)
        split = _min_poly_split(e, x)
        if split is not None:
            cert, _, f0x = split
            assert is_fitting_split_by_parts(p, [[c.value for c in row] for row in f0x], *cert.parts)


def test_fitting_split_edge_cases():
    # E = F on a 1-dim module: a unit or 0, never split
    e = compute_end(orbit_basis(AlgebraAction(QQ, [("a", [[5]])]), [1]))
    assert _fitting(e, e.identity().scale(5)) is None and _fitting(e, DenseMatrix.zeros(QQ, 1, 1)) is None
    # 0, nilpotent elements and a unit of the local E = Q[N]/N^4
    m = conjugated_jordan_module(QQ, 4, 3)
    e = compute_end(m)
    nil = m.restricted["n"]
    for x in (DenseMatrix.zeros(QQ, 4, 4), nil, nil * nil, e.identity() + nil):
        assert _fitting(e, x) is None
    for field in (GF2, gf(3), QQ):
        p = field.characteristic
        conj, inverse = unimodular_pair(random.Random(5), 4)
        # an idempotent x, f = t (t - 1): a = (1 - x) e_0 in ker x, b = x e_0
        proj = int_mul(int_mul(conj, [[int(i == j < 2) for j in range(4)] for i in range(4)]), inverse)
        m = orbit_basis(AlgebraAction(field, [("a", proj)]), [sum(row) for row in conj])
        x, e = m.restricted["a"], compute_end(m)
        assert endo._min_poly(x)[0].degree == m.dim == 2
        a, b = _fitting(e, x).parts
        assert _box(field, b) == _box(field, x._column(0))
        assert _box(field, a) == _box(field, (e.identity() - x)._column(0))
        # f = t h with deg h = 2 > deg t: h is reduced modulo t before the solve
        d = [[0, 0, 0], [0, 0, 1], [0, -1, -1]] if p == 2 else [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
        conj, inverse = unimodular_pair(random.Random(6), 3)
        m = orbit_basis(AlgebraAction(field, [("a", int_mul(int_mul(conj, d), inverse))]), [sum(row) for row in conj])
        x = m.restricted["a"]
        f = endo._min_poly(x)[0]
        assert (m.dim, f.degree, f.coeffs[0], bool(f.coeffs[1])) == (3, 3, field.zero(), True)
        e = compute_end(m)
        cert = _fitting(e, x)
        assert is_fitting_split_by_parts(p, [[c.value for c in row] for row in x.entries], *cert.parts)
        assert [len(tree.words) for tree in verify_certificate(e, cert)] == [1, 2]


def _golden_and_test_modules():
    modules = [
        decompose_boolean(parse_anf(SPLIT_4_6, 5)).module,
        decompose_boolean(parse_anf(SWAP_INVARIANT, 3)).module,
        swap_invariant_module(),
        orbit_basis(s3_natural_action(), (1, 0, 0)),
    ]
    with open(os.path.join(GOLDEN, "regular_s3.json"), encoding="utf-8") as handle:
        modules.append(permutation_module(presentation_from_json(json.load(handle)), (1, 0, 0, 0, 0, 0)))
    modules += [orbit_basis(AlgebraAction(field, gens), g) for field, gens, g in krull_schmidt_corpus()]
    rng = random.Random(2004)
    modules += [m for field in (GF2, gf(3), QQ) for m in _random_modules(rng, field, 15)]
    return modules


def _min_poly_split_modules():
    """Modules whose decomposition takes a min-poly-split: every scanned
    element is a unit or nilpotent, and some minimal polynomial has coprime factors."""
    yield orbit_basis(AlgebraAction(QQ, [("u", [[0, 4], [1, 0]])]), (1, 0))
    yield orbit_basis(AlgebraAction(gf(2147483647), [("u", [[2, 0], [0, 3]])]), (1, 1))
    yield regular_s4_module(gf(5))
    yield orbit_basis(AlgebraAction(QQ, [("c", _companion([36, 33, 10, 1]))]), (1, 0, 0))


def test_fitting_certificates_match_the_nth_power_oracle():
    # every split of the decomposition tree, walked by decompose_once, is
    # a split by its parts under its block's restricted matrices
    checked = {"fitting-scan": 0, "min-poly-split": 0}
    for m in itertools.chain(_golden_and_test_modules(), _min_poly_split_modules()):
        p = m.field.characteristic
        stack = [m]
        while stack:
            block = stack.pop()
            cert, halves = decompose_once(block)
            if halves is None:
                continue
            generators = [[[x.value for x in row] for row in block.restricted[s].entries] for s in block.action.labels]
            assert oracles.is_split_by_parts(p, generators, *cert.parts)
            checked[cert.mode] += 1
            stack += halves
    assert checked["fitting-scan"] >= 20 and checked["min-poly-split"] >= 4


def test_fitting_split_squares_past_a_nilpotent_part(monkeypatch):
    # A = P (J_2(0) + 1) P^-1 on F^3: rank A = 2, rank A^2 = rank A^4 = 1,
    # so A's own kernel meets its image, and the split is that of A^2:
    # ker A^2 + ker (A - 1), read off the minimal polynomial t^2 (t - 1)
    # with no product formed
    rng = random.Random(11)
    for field in (GF2, gf(3), QQ):
        p, q = unimodular_pair(rng, 3)
        a = int_mul(int_mul(p, [[0, 1, 0], [0, 0, 0], [0, 0, 1]]), q)
        m = orbit_basis(AlgebraAction(field, [("a", a)]), [sum(row) for row in p])
        e = compute_end(m)
        mat = m.restricted["a"]
        products = _record_products(monkeypatch)
        cert = _fitting(e, mat)
        monkeypatch.undo()
        assert products == []
        assert [len(tree.words) for tree in verify_certificate(e, cert)] == [2, 1]
        raw = [[x.value for x in row] for row in mat.entries]
        assert is_fitting_split_by_parts(field.characteristic, raw, *cert.parts)


def test_element_is_the_basis_combination():
    rng = random.Random(6)
    for field in (GF2, gf(3), QQ):
        for m in _random_modules(rng, field, 6):
            e = compute_end(m)
            for _ in range(4):
                coords = [rng.randint(-3, 3) for _ in range(e.dim)]
                expected = DenseMatrix.zeros(field, m.dim, m.dim)
                for c, b in zip(coords, e.basis):
                    expected = expected + b.scale(c)
                assert e.element(coords) == expected
    with pytest.raises(ValueError, match="mixed fields"):
        compute_end(swap_invariant_module()).element((gf(3).one(), GF2.one()))


def test_split_search_on_swap_invariant_module():
    e = compute_end(swap_invariant_module())
    cert = find_splitting_element(e)
    assert cert.verdict == "decomposable"
    assert cert.mode == "fitting-scan"
    dims = sorted(len(tree.words) for tree in verify_certificate(e, cert))
    assert dims == [1, 2]


def test_search_is_deterministic():
    e = compute_end(swap_invariant_module())
    a = find_splitting_element(e)
    b = find_splitting_element(e)
    assert a.mode == b.mode
    assert a.element == b.element
    assert a.parts == b.parts


def test_dimension_one_shortcut():
    # a 2-dimensional summand of the swap-invariant module is simple
    action = s3_natural_action()
    m = orbit_basis(action, (1, -1, 0))
    assert m.dim == 2
    e = compute_end(m)
    assert e.dim == 1
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("indecomposable", "local")
    # End = F: x is the identity, written as None, and J = 0
    assert cert.element is None and cert.radical == ()
    verify_certificate(e, cert)


def test_exhaustive_indecomposable_quadratic_extension():
    # multiplication by a root of t^2+t+1 on GF(2)^2: the commutant is the
    # field with four elements, generated by an element of minimal
    # polynomial t^2+t+1
    comp = [[0, 1], [1, 1]]
    action = AlgebraAction(GF2, [("u", comp)])
    m = orbit_basis(action, (1, 0))
    assert m.dim == 2
    e = compute_end(m)
    assert e.dim == 2
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("indecomposable", "local")
    assert cert.element is not None and cert.radical == ()
    assert cert.diagnostics["factor_shape"] == [[2, 1]]
    assert len(enumerate_idempotents(e)) == 2
    verify_certificate(e, cert)


def test_exhaustive_budget_refusal():
    # the quaternions: no candidate can decide, and the search stops after
    # the 4 basis elements, 6 sums and 6 differences it scanned, and then
    # x + c b for c = 1, 2, 3 and each of the 3 basis elements b of degree 2
    e = compute_end(quaternion_module())
    cert = find_splitting_element(e)
    assert cert.verdict == "undecided"
    assert cert.mode == "candidates-exhausted"
    assert cert.diagnostics["scanned"] == 16
    assert cert.diagnostics["min_poly_tried"] == 16 + 3 * 3
    verify_certificate(e, cert)


def test_primitive_element_step_decides_a_multiquadratic_field():
    # Q(sqrt 2, sqrt 3, sqrt 5): each basis element is a product of square
    # roots and every scanned sum or difference lies in a subfield of degree
    # at most 4, so only x + c b past the list reaches a generator of degree 8
    e = compute_end(multiquadratic_module((2, 3, 5)))
    assert e.dim == 8
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode, cert.radical) == ("indecomposable", "local", ())
    assert cert.diagnostics["min_poly_degree"] == 8
    assert cert.diagnostics["min_poly_tried"] > cert.diagnostics["scanned"] == 64
    verify_certificate(e, cert)
    # the same residue field under a radical: K[eps] is local, and the step
    # finds a generator of K modulo eps K
    e = compute_end(multiquadratic_module((2, 3, 5), dual=True))
    assert e.dim == 16
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("indecomposable", "local")
    assert cert.diagnostics["radical_dim"] == 8
    assert cert.diagnostics["min_poly_tried"] > cert.diagnostics["scanned"] == 256
    verify_certificate(e, cert)


def test_min_poly_split_rational():
    # every scanned element is invertible here, so the minimal-polynomial
    # stage has to do the work: t^2 - 4 = (t-2)(t+2)
    a = [[0, 4], [1, 0]]
    action = AlgebraAction(QQ, [("u", a)])
    m = orbit_basis(action, (1, 0))
    e = compute_end(m)
    assert e.dim == 2
    cert = find_splitting_element(e)
    assert cert.verdict == "decomposable"
    assert cert.mode == "min-poly-split"
    assert cert.diagnostics["factor_shape"] == [[1, 1], [1, 1]]
    assert sorted(len(tree.words) for tree in verify_certificate(e, cert)) == [1, 1]


def _companion(coeffs):
    """The companion matrix of the monic polynomial with integer coefficients coeffs, low degree first."""
    n = len(coeffs) - 1
    return [[int(j == i - 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]


@pytest.mark.parametrize("coeffs, shape", [
    ([36, 33, 10, 1], [[1, 2], [1, 1]]),            # (t + 3)^2 (t + 4)
    ([-16, 16, 0, -4, 1], [[1, 3], [1, 1]]),        # (t - 2)^3 (t + 2)
])
def test_min_poly_split_on_a_repeated_first_factor(coeffs, shape):
    # every scanned element is a unit or nilpotent, and the first minimal
    # polynomial has f0^k0 with k0 >= 2 first: the split is ker f0(x)^k0 +
    # the rest, the kernel and the image of the stable power of f0(x)
    m = orbit_basis(AlgebraAction(QQ, [("c", _companion(coeffs))]), [1] + [0] * (len(coeffs) - 2))
    e = compute_end(m)
    cert = find_splitting_element(e)
    assert (cert.mode, cert.diagnostics["min_poly_tried"], cert.diagnostics["factor_shape"]) == ("min-poly-split", 1, shape)
    x = e.basis[0]
    f0 = factor(_min_poly(x)[0])[0][0]
    f0x = DenseMatrix(QQ, oracles.boxed_poly_of_matrix(QQ, f0.coeffs, x))
    assert tuple(_box(QQ, v) for v in cert.parts) == oracles.fitting_parts_by_stable_power(f0x)
    assert [len(tree.words) for tree in verify_certificate(e, cert)] == [shape[0][1], 1]


def test_field_generated_indecomposable():
    # rotation by 90 degrees: the commutant is Q adjoined a square root
    # of -1, a field, so the module cannot split
    rot = [[0, -1], [1, 0]]
    action = AlgebraAction(QQ, [("u", rot)])
    e = compute_end(orbit_basis(action, (1, 0)))
    assert e.dim == 2
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("indecomposable", "local")
    assert cert.element is not None and cert.radical == ()
    verify_certificate(e, cert)


def test_field_leaf_of_degree_33():
    # the companion matrix of t^33 - 2, irreducible by Eisenstein at 2:
    # End = Q[A] is a field of degree 33, decided by one minimal polynomial
    # of degree 33, which is factored however large its degree
    d = 33
    comp = [[int(i == j + 1) + 2 * int((i, j) == (0, d - 1)) for j in range(d)] for i in range(d)]
    report = complete_decomposition(orbit_basis(AlgebraAction(QQ, [("a", comp)]), [1] + [0] * (d - 1)))
    assert report.signature == (d,)
    (cert,) = report.certificates
    assert (cert.verdict, cert.mode, cert.radical) == ("indecomposable", "local", ())
    check_report(report)


def test_undecided_local_jordan_block():
    # a single nilpotent Jordan block: the commutant Q[N]/N^2 is local but
    # not a field; its radical J = QN with E/J = Q certifies it
    n = [[0, 1], [0, 0]]
    action = AlgebraAction(QQ, [("u", n)])
    m = orbit_basis(action, (0, 1))
    assert m.dim == 2
    e = compute_end(m)
    assert e.dim == 2
    cert = find_splitting_element(e)
    assert cert.verdict == "indecomposable"
    assert cert.mode == "local"
    assert cert.element is None
    _, radical = _witness(e, cert)
    assert len(radical) == 1 and _is_nilpotent(radical[0])
    assert "box_swept" not in cert.diagnostics
    verify_certificate(e, cert)


def test_undecided_quaternion_division_algebra():
    # End is the quaternions (right multiplication): a division algebra
    # with J = 0 that is not a field, so no stage can certify it
    m = quaternion_module()
    assert m.dim == 4
    e = compute_end(m)
    assert e.dim == 4
    assert radical_char0(e) == []
    cert = find_splitting_element(e)
    assert cert.verdict == "undecided"
    assert cert.mode == "candidates-exhausted"
    assert "box_swept" not in cert.diagnostics
    assert cert.radical == ()
    verify_certificate(e, cert)


def rotation_block_module():
    """A = [[C, I], [0, C]] on Q^4, C the rotation by 90 degrees, generated by e_2.

    End = Q[A] has minimal polynomial (t^2 + 1)^2, radical (A^2 + 1) and
    E/J = Q(i).
    """
    a = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]
    return orbit_basis(AlgebraAction(QQ, [("a", a)]), (0, 0, 1, 0))


def test_local_certificate_with_a_quadratic_residue_field():
    e = compute_end(rotation_block_module())
    assert e.dim == 4
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("indecomposable", "local")
    assert len(cert.radical) == 2
    # E/J = Q(i) is larger than Q, so the nilpotent candidates never span a
    # hyperplane and the minimal-polynomial loop decides the leaf
    assert cert.diagnostics["min_poly_tried"] >= 1
    verify_certificate(e, cert)


def test_local_certificates_for_jordan_blocks_within_budget():
    start = time.perf_counter()
    for d in range(2, 7):
        m = conjugated_jordan_module(QQ, d, seed=d)
        assert m.dim == d
        report = complete_decomposition(m)
        assert report.signature == (d,)
        (cert,) = report.certificates
        assert (cert.verdict, cert.mode) == ("indecomposable", "local")
        assert len(cert.radical) == d - 1
        check_report(report)
    assert time.perf_counter() - start < 5.0


def test_local_certificates_for_jordan_blocks_over_gf2_and_gf3():
    # conjugated Jordan blocks over GF(2) and GF(3): E = F[N]/N^d is local
    # with J = (N), found from the nilpotent candidates themselves
    blocks = [(GF2, d) for d in range(2, 15)] + [(gf(3), d) for d in range(2, 10)]
    start = time.perf_counter()
    for field, d in blocks + [(GF2, 24)]:
        report = complete_decomposition(conjugated_jordan_module(field, d, seed=d))
        assert report.signature == (d,)
        (cert,) = report.certificates
        assert (cert.verdict, cert.mode) == ("indecomposable", "local")
        assert len(cert.radical) == cert.diagnostics["radical_dim"] == d - 1
        check_report(report)
    assert time.perf_counter() - start < 10.0


def test_local_leaf_ends_when_the_nilpotent_candidates_span_a_hyperplane(monkeypatch):
    # E = GF(2)[N]/N^24: its 23 nilpotent basis elements span the radical,
    # a hyperplane, so the scan stops there with one rank test per candidate.
    # The first singular candidate takes a minimal polynomial, t^k; with a
    # nilpotent candidate kept, x^(r+1) e_0 = 0 shows the others nilpotent.
    # The local test factors one more minimal polynomial, the identity's modulo J
    e = compute_end(conjugated_jordan_module(GF2, 24, seed=24))
    calls = {"_min_poly": 0, "_rank_form": 0}
    for name in calls:
        def spy(*args, name=name, real=getattr(endo, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(endo, name, spy)
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("indecomposable", "local")
    assert cert.diagnostics == {"endo_dim": 24, "scanned": 23, "radical_dim": 23}
    assert calls == {"_min_poly": 2, "_rank_form": 23}
    assert cert.element is None and len(cert.radical) == 23
    verify_certificate(e, cert)


def _jordan_blocks():
    """Conjugated Jordan blocks over GF(2), GF(3) and Q: E = F[N]/N^d, local with a (d - 1)-dim radical."""
    return ([conjugated_jordan_module(GF2, d, seed=d) for d in range(2, 9)]
            + [conjugated_jordan_module(gf(3), d, seed=d) for d in range(2, 7)]
            + [conjugated_jordan_module(QQ, d, seed=d) for d in range(2, 6)])


def test_nilpotent_span_agrees_with_the_chain_on_radicals_and_forged_ideals():
    # an algebra spanned by nilpotent elements is nilpotent, so testing each
    # basis matrix decides what the chain J e_0, J^2 e_0, ... decides: on the
    # radicals, on all of E, and on the ideals that random elements generate
    rng = random.Random(30)
    verdicts = []
    for m in _jordan_blocks():
        e = compute_end(m)
        cert = find_splitting_element(e)
        _, radical = _witness(e, cert)
        ideals = [radical, radical + [e.identity()]]
        lo, hi = (-2, 2) if e.field == QQ else (0, e.field.characteristic - 1)
        for _ in range(3):
            ideal = []
            endo._grow_ideal(e, ideal, endo.Echelon(e.field, e.module_dim),
                             e.element([rng.randint(lo, hi) for _ in range(e.dim)]))
            ideals += [ideal] if ideal else []
        for ideal in ideals:
            assert endo._ideal_failure(e, ideal) is None
            verdicts.append(endo._nilpotent_span(ideal))
            assert verdicts[-1] == oracles.nilpotent_by_chain(ideal)
    # the M_2 part of M_2(GF(2)) x GF(2), grown from a nilpotent basis element:
    # closed under products, holding idempotents, so not nilpotent
    e = compute_end(_regular_m2_times_gf2_module())
    ideal = []
    endo._grow_ideal(e, ideal, endo.Echelon(GF2, 5), next(b for b in e.basis if _is_nilpotent(b)))
    assert len(ideal) == 4 and endo._ideal_failure(e, ideal) is None
    assert endo._nilpotent_span(ideal) is oracles.nilpotent_by_chain(ideal) is False
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 40


def test_product_closed_spans_of_nilpotent_matrices_are_nilpotent():
    # random spans of nilpotent matrices, each P U P^-1 with U strictly upper
    # triangular, that are closed under products: the chain from every unit
    # vector, exact for any matrices, finds each of them nilpotent
    rng = random.Random(31)
    sizes = []
    for _ in range(2000):
        field = rng.choice((GF2, gf(3)))
        p, n = field.characteristic, rng.randint(2, 4)
        mats = []
        for _ in range(rng.randint(1, 3)):
            if not mats or rng.random() < 0.5:
                conj, inverse = unimodular_pair(rng, n)
            u = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
            mats.append(DenseMatrix(field, int_mul(int_mul(conj, u), inverse)))
        span = endo.SpanSolver(field, n * n)
        if not all(span.add(oracles.flat(x)) for x in mats):
            continue
        if not all(span.contains(oracles.flat(x * y)) for x in mats for y in mats):
            continue
        sizes.append(len(mats))
        assert endo._nilpotent_span(mats)
        assert oracles.nilpotent_by_chain(mats, [_unit(p, n, i) for i in range(n)])
    assert len(sizes) >= 400 and len(sizes) - sizes.count(1) >= 80


def test_nilpotent_candidates_die_within_rank_plus_one_column_steps():
    # a nilpotent x of rank r has x^(r+1) = 0, and in E that is x^(r+1) e_0 = 0:
    # the scan's test agrees with the stable power on every scan candidate of
    # the local leaves and of the modules they come from, Fitting witnesses
    # included, and so does the class read off the minimal polynomial
    boolean = complete_decomposition(decompose_boolean(parse_anf(SPLIT_4_6, 5)).module)
    s4 = complete_decomposition(regular_s4_module(gf(3)))
    modules = _jordan_blocks() + list(boolean.summands) + list(s4.summands) + [boolean.module]
    kinds = set()
    for m in modules:
        e = compute_end(m)
        for x in _scan_candidates(e):
            stable_rank = oracles.stable_power_by_rref(x)[1].rank
            kind = "nilpotent" if stable_rank == 0 else "unit" if stable_rank == m.dim else "witness"
            kinds.add(kind)
            assert endo._is_nilpotent(x, rref(x).rank + 1) == (stable_rank == 0) == endo._is_nilpotent(x)
            assert (_fitting(e, x) is not None) == (kind == "witness")
    assert kinds == {"nilpotent", "unit", "witness"}


def test_element_of_a_unit_coordinate_vector_is_the_basis_matrix():
    # the membership checks of the scan's own candidates rebuild no matrix;
    # over Q the basis matrices carry denominators
    rng = random.Random(32)
    modules = [conjugated_jordan_module(field, 4, seed=4) for field in (GF2, gf(3))]
    modules += [m for m in _fractional_modules(rng, 6) if _has_denominators(m)]
    denominators = 0
    for m in modules:
        e = compute_end(m)
        for i, b in enumerate(e.basis):
            coords = [int(k == i) for k in range(e.dim)]
            assert e.element(coords) is b
            terms = DenseMatrix.zeros(m.field, m.dim, m.dim)
            for c, basis_matrix in zip(coords, e.basis):
                terms = terms + basis_matrix.scale(c)
            assert terms == b and oracles.endo_coordinates(e, b) == tuple(m.field.scalar(c) for c in coords)
            # one other nonzero coordinate, 1/2 over Q, scales the basis matrix
            other = [Fraction(c, 2) for c in coords] if m.field == QQ else [2 * c for c in coords]
            assert e.element(other) == b.scale(other[i])
            denominators += b._den > 1
    assert denominators >= 1


def _regular_m2_module(field):
    """The regular module of M_2(F), generated by 1; End is M_2(F)^op, not local.

    Coordinates in the basis E11, E12, E21, E22; the generators are left
    multiplication by E12 and E21.
    """
    e12 = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]  # E12 E21 = E11, E12 E22 = E12
    e21 = [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]  # E21 E11 = E21, E21 E12 = E22
    return orbit_basis(AlgebraAction(field, [("e12", e12), ("e21", e21)]), (1, 0, 0, 1))


def _nilpotent_hyperplane(e):
    """Nilpotent elements of E = M_2(F) with independent first columns: a basis of the trace-zero hyperplane."""
    field = e.field
    span, nilpotent = endo.SpanSolver(field, 4), []
    lo, hi = (-2, 2) if field == QQ else (0, field.characteristic - 1)
    for coords in itertools.product(range(lo, hi + 1), repeat=4):
        mat = e.element(coords)
        if any(coords) and _is_nilpotent(mat) and span.add(endo._first_column(mat)):
            nilpotent.append(mat)
    assert len(nilpotent) == 3
    return nilpotent


@pytest.mark.parametrize("field", [GF2, gf(3), QQ], ids=str)
def test_search_turns_down_a_nilpotent_hyperplane_that_is_not_an_ideal(field, monkeypatch):
    # the nilpotent elements of M_2(F) span the trace-zero hyperplane, which
    # is not an ideal: with three of them scanned first, the hyperplane is
    # tested once, turned down, and the scan goes on to a Fitting witness
    m = _regular_m2_module(field)
    e = compute_end(m)
    assert (m.dim, e.dim) == (4, 4)
    nilpotent = _nilpotent_hyperplane(e)
    scan = endo._scan_candidates
    monkeypatch.setattr(endo, "_scan_candidates", lambda e: itertools.chain(nilpotent, scan(e)))
    checks = []
    ideal_failure = endo._ideal_failure

    def spy(e, ideal):
        failure = ideal_failure(e, ideal)
        checks.append((len(ideal), failure is None))
        return failure

    monkeypatch.setattr(endo, "_ideal_failure", spy)
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode) == ("decomposable", "fitting-scan")
    assert checks == [(3, False)]
    assert cert.diagnostics["scanned"] > len(nilpotent)
    verify_certificate(e, cert)


@pytest.mark.parametrize("make, local, min_poly_loop", [
    (lambda: conjugated_jordan_module(GF2, 24, 1), True, False),
    (lambda: multiquadratic_module([2, 3, 5], dual=True), True, True),
    (lambda: multiquadratic_module([2, 3, 5]), False, True),
], ids=["jordan-gf2-24-hyperplane", "multiquadratic-dual-min-poly", "multiquadratic-field"])
def test_each_local_test_runs_once_per_leaf(make, local, min_poly_loop, monkeypatch):
    # the search accepts a leaf with J != 0 through the verifier's one test,
    # and decompose_once does not run it a second time; a leaf with J = 0 is
    # accepted on the factors the candidate loop has found, with no test at
    # all.  verify_certificate, as check_report calls it, then runs the one
    # test once more, in full
    calls = {"_ideal_failure": 0, "_nilpotent_span": 0, "_generates_quotient_field": 0, "factor": 0}
    for name in calls:
        def spy(*args, name=name, real=getattr(endo, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(endo, name, spy)
    m = make()
    cert, halves = decompose_once(m)
    assert halves is None and (cert.verdict, cert.mode) == ("indecomposable", "local")
    assert bool(cert.radical) == local
    assert ("min_poly_tried" in cert.diagnostics) == min_poly_loop
    # one factorization per candidate tried, and the local test's one of the
    # element's minimal polynomial modulo J
    tried = cert.diagnostics.get("min_poly_tried", 0)
    search = {
        "_ideal_failure": local,
        "_nilpotent_span": local,
        "_generates_quotient_field": local,
        "factor": tried + local,
    }
    assert calls == search
    verify_certificate(compute_end(m), cert)
    assert calls == {name: count + 1 for name, count in search.items()}


def test_no_local_certificate_leaves_the_pipeline_unchecked(monkeypatch):
    # with every J turned down as not nilpotent, neither local exit of the
    # search makes a certificate, though decompose_once re-checks none
    monkeypatch.setattr(endo, "_nilpotent_span", lambda ideal: False)
    cert, halves = decompose_once(conjugated_jordan_module(GF2, 24, 1))
    assert halves is None and (cert.verdict, cert.mode) == ("undecided", "candidates-exhausted")


def _ideal_and_oracle(e, ideal):
    """The ideal test and the all-basis oracle on span(ideal), whose first columns must be independent."""
    span = endo.SpanSolver(e.field, e.module_dim)
    assert all(span.add(endo._first_column(j)) for j in ideal)
    return endo._ideal_failure(e, ideal) is None, oracles.is_two_sided_ideal_all_basis(e, ideal, span)


def test_ideal_test_agrees_with_the_all_basis_oracle():
    # the products inside J and with a complement of J decide what every basis element does
    # every local radical of the boolean n = 4..7 modules and of regular S4: ideals
    modules = [orbit_basis(sn_action(n), parse_anf(text, n).vector())
               for text, n in BOOLEAN_COMMUTANT_CASES + (("x1*x2*x3 + x4*x5*x6 + x7", 7),)]
    modules += [regular_s4_module(GF2), regular_s4_module(gf(3))]
    radicals = 0
    for m in modules:
        report = complete_decomposition(m)
        for leaf, cert in zip(report.summands, report.certificates):
            if cert.radical:
                radicals += 1
                e = compute_end(leaf)
                assert _ideal_and_oracle(e, _witness(e, cert)[1]) == (True, True)
    assert radicals == 14
    rng = random.Random(24)
    for field in (GF2, gf(3), QQ):
        m2 = compute_end(_regular_m2_module(field))
        # the trace-zero hyperplane of M_2(F) is not an ideal
        assert _ideal_and_oracle(m2, _nilpotent_hyperplane(m2)) == (False, False)
        # seeded spans of 1 to 3 elements, one of them holding the identity
        lo, hi = (-2, 2) if field == QQ else (0, field.characteristic - 1)
        for e in (m2, compute_end(conjugated_jordan_module(field, 4, seed=4))):
            for k, ideal in ((1, []), (2, []), (3, []), (3, [e.identity()])):
                span = endo.SpanSolver(field, e.module_dim)
                for mat in ideal:
                    span.add(endo._first_column(mat))
                while len(ideal) < k:
                    mat = e.element([rng.randint(lo, hi) for _ in range(e.dim)])
                    if span.add(endo._first_column(mat)):
                        ideal.append(mat)
                verdict, oracle = _ideal_and_oracle(e, ideal)
                assert verdict == oracle


def test_local_radical_is_the_trace_form_radical():
    # over Q, J of a local certificate is the whole radical of E
    modules = [conjugated_jordan_module(QQ, d, seed=d) for d in range(2, 7)]
    for m in modules + [rotation_block_module()]:
        e = compute_end(m)
        cert = find_splitting_element(e)
        assert cert.mode == "local" and cert.radical
        flats = [[oracles.flat(j) for j in mats] for mats in (_witness(e, cert)[1], radical_char0(e))]
        assert span_equal(QQ, *flats, e.module_dim ** 2)


def test_verdicts_match_idempotent_enumeration():
    # the module is indecomposable exactly when E has no idempotents but 0 and 1
    rng = random.Random(8)
    checked = 0
    for field in (GF2, gf(3), gf(5)):
        for m in _random_modules(rng, field, 150):
            e = compute_end(m)
            if field.characteristic ** e.dim > 4096:
                continue
            cert = find_splitting_element(e)
            verify_certificate(e, cert)
            assert cert.verdict != "undecided"
            assert (cert.verdict == "indecomposable") == (len(enumerate_idempotents(e)) == 2)
            checked += 1
    assert checked >= 300


def test_min_poly_split_over_a_large_prime():
    # diag(2, 3) with g = (1, 1): no scanned element is a Fitting witness, and
    # the minimal polynomial (t - 2)(t - 3) is factored over GF(2^31 - 1)
    field = gf(2147483647)
    e = compute_end(orbit_basis(AlgebraAction(field, [("u", [[2, 0], [0, 3]])]), (1, 1)))
    start = time.perf_counter()
    cert = find_splitting_element(e)
    verify_certificate(e, cert)
    assert time.perf_counter() - start < 1.0
    assert (cert.verdict, cert.mode) == ("decomposable", "min-poly-split")


def _local_forgery(e, cert, reason, **changes):
    with pytest.raises(RuntimeError, match=reason):
        verify_certificate(e, dataclasses.replace(cert, **changes))


def _witness(e, cert):
    """x and the basis of J read back into E from a certificate's first columns, x = 1 where it is None."""
    x = e.identity() if cert.element is None else endo._read_element(e, cert.element)
    return x, [endo._read_element(e, j) for j in cert.radical]


def _malformed(v):
    """Entries that are no raw vector of v's length over GF(2): short, long, no sequence, and wrong scalars."""
    wrong = [v[:-1], tuple(v) + (0,), 7, tuple(gf(3).scalar(x) for x in v)]
    return wrong + [(bad,) + tuple(v[1:]) for bad in (Fraction(1, 2), 0.5, None, "x")]


def test_verify_certificate_rejects_forged_local():
    e = compute_end(conjugated_jordan_module(QQ, 3, seed=1))
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode, cert.element) == ("indecomposable", "local", None)
    verify_certificate(e, cert)
    column = endo._first_column
    _, radical = _witness(e, cert)
    nil = column(radical[0])
    # not an ideal: the square of a generator of J falls outside its line
    gen = next(j for j in radical if not (j * j).is_zero())
    _local_forgery(e, cert, "not a two-sided ideal", radical=(column(gen),))
    # not nilpotent: J = E contains the identity
    _local_forgery(e, cert, "not nilpotent", radical=tuple(map(column, e.basis)))
    # an empty radical: x = 1 with J = 0, whose minimal polynomial t - 1 has
    # degree 1, not dim E = 3; and a radical that is no sequence at all
    _local_forgery(e, cert, "does not generate a field", radical=())
    _local_forgery(e, cert, "radical is not a sequence of vectors", radical=None)
    # dependent radical vectors
    _local_forgery(e, cert, "linearly dependent", radical=(nil, nil))
    # J = (N^2) is a nilpotent ideal, but E/J = Q[N]/N^2 is no field:
    # N modulo J has minimal polynomial t^2, reducible ...
    square = (column(gen * gen),)
    _local_forgery(e, cert, "does not generate a field", radical=square, element=column(gen))
    # ... and the identity modulo J, written as null or as e_0, has degree 1,
    # not dim E/J = 2: null stands for the identity whatever J is
    _local_forgery(e, cert, "does not generate a field", radical=square, element=None)
    _local_forgery(e, cert, "does not generate a field", radical=square, element=_unit(0, 3, 0))
    # an undecided certificate may not carry a radical
    _local_forgery(
        e, cert, "undecided certificate carries witness data: radical",
        verdict="undecided", mode="candidates-exhausted", element=None,
    )
    # nor an indecomposable one parts, or a decomposable one a radical
    split = (_unit(0, 3, 0), [0, 0, 0])
    _local_forgery(e, cert, "indecomposable certificate carries witness data: parts", parts=split)
    _local_forgery(
        e, cert, "decomposable certificate carries witness data: radical",
        verdict="decomposable", mode="fitting-scan", element=None, parts=split,
    )


def test_a_null_element_is_the_identity_whatever_j():
    # x = None is the identity, which generates E/J exactly when E/J = F,
    # that is when J is a hyperplane of E: the Jordan block's certificate
    e = compute_end(conjugated_jordan_module(QQ, 4, seed=4))
    cert = find_splitting_element(e)
    assert cert.element is None and len(cert.radical) == e.dim - 1
    verify_certificate(e, cert)
    # E/J = Q(i) has degree 2: the certificate passes with its own x and
    # is turned down with x = None
    e = compute_end(rotation_block_module())
    cert = find_splitting_element(e)
    assert cert.element is not None and len(cert.radical) == e.dim - 2
    verify_certificate(e, cert)
    _local_forgery(e, cert, "element does not generate a field modulo the radical", element=None)


def test_verify_certificate_rejects_an_indecomposable_mode_other_than_local():
    # every indecomposable certificate is "local", whatever its shape: J != 0
    # with x the identity (None), or J = 0 with x the identity or an element
    # generating E; the
    # retired shape labels and any other mode are turned down by the one
    # mode table, before the one test
    local_e = compute_end(conjugated_jordan_module(QQ, 3, seed=1))
    local = find_splitting_element(local_e)
    field_e = compute_end(orbit_basis(AlgebraAction(QQ, [("u", [[0, -1], [1, 0]])]), (1, 0)))
    field = find_splitting_element(field_e)
    line_e = compute_end(orbit_basis(s3_natural_action(), (1, -1, 0)))
    scalar = find_splitting_element(line_e)
    shapes = [(bool(c.radical), c.element is None) for c in (local, field, scalar)]
    assert shapes == [(True, True), (False, False), (False, True)]
    for e, cert in ((local_e, local), (field_e, field), (line_e, scalar)):
        assert (cert.verdict, cert.mode) == ("indecomposable", "local")
        verify_certificate(e, cert)
        for mode in ("dimension-1", "field-generated", "trust-me"):
            _local_forgery(e, cert, f"mode '{mode}' is not one of the indecomposable modes", mode=mode)
    # the identity on End = F passes as x, written as its first column e_0
    verify_certificate(line_e, dataclasses.replace(scalar, element=_unit(0, 2, 0)))


def test_verify_certificate_rejects_idempotent_radical():
    # diag(1, 2) with g = (1, 1): End = Q x Q, and J = Q(u - 1), the
    # projection onto the eigenvalue-2 line, is an ideal with E/J = Q a
    # field, but J is idempotent, not nilpotent
    action = AlgebraAction(QQ, [("u", [[1, 0], [0, 2]])])
    e = compute_end(orbit_basis(action, (1, 1)))
    assert e.dim == 2
    (_, u), = e.action_mats
    idem = u - e.identity()
    assert idem * idem == idem and e.contains(idem)
    forged = Certificate("indecomposable", "local", None, None, radical=(endo._first_column(idem),))
    with pytest.raises(RuntimeError, match="not nilpotent"):
        verify_certificate(e, forged)


def test_verify_certificate_rejects_forged_exhaustive():
    # diag(1, 0) with g = (1, 1) over GF(2) splits into two lines; an
    # "exhaustive" verdict carries nothing to re-check, so it is rejected
    e = compute_end(orbit_basis(AlgebraAction(GF2, [("u", [[1, 0], [0, 0]])]), (1, 1)))
    assert e.dim == 2
    with pytest.raises(RuntimeError, match="mode 'exhaustive' is not one of the indecomposable modes"):
        verify_certificate(e, Certificate("indecomposable", "exhaustive", None, None))
    assert find_splitting_element(e).verdict == "decomposable"


def test_verify_certificate_rejects_tampering():
    e = compute_end(swap_invariant_module())
    cert = find_splitting_element(e)
    bad_side = tuple(GF2.scalar(x) for x in (1, 0, 0))
    tampered = Certificate(
        "decomposable", cert.mode, cert.element,
        (cert.parts[0], bad_side), cert.diagnostics,
    )
    with pytest.raises(RuntimeError, match="parts do not sum to the generator e_0"):
        verify_certificate(e, tampered)
    with pytest.raises(RuntimeError, match="undecided certificate carries witness data: element"):
        verify_certificate(
            e, Certificate("undecided", "candidates-exhausted", e.identity(), None)
        )
    with pytest.raises(RuntimeError, match="missing its parts"):
        verify_certificate(
            e, Certificate("decomposable", "fitting-scan", None, None)
        )


def test_verify_certificate_rejects_forged_indecomposable():
    # diag(1, 2) with g = (1, 1) splits into two lines; End is the 2-dim
    # diagonal algebra, so no indecomposable certificate may pass
    action = AlgebraAction(QQ, [("u", [[1, 0], [0, 2]])])
    e = compute_end(orbit_basis(action, (1, 1)))
    assert e.dim == 2
    # [[0, 2], [1, 0]] is outside E, with x^2 - 2 irreducible of degree dim E,
    # but a certificate can only write its first column (0, 1), which the
    # verifier reads as the X in E with X e_0 = (0, 1).  Every vector of Q^2
    # is X e_0 for one X in E, diagonal on the two lines, and none generates
    # a field
    outside = DenseMatrix(QQ, [[0, 2], [1, 0]])
    assert not e.contains(outside)
    for v in (endo._first_column(outside), [1, 0], [1, 1], [2, -1], [Fraction(1, 2), 3]):
        with pytest.raises(RuntimeError, match="element does not generate a field modulo the radical"):
            verify_certificate(e, Certificate("indecomposable", "local", v, None))
    with pytest.raises(RuntimeError, match="mode 'trust-me' is not one of the indecomposable modes"):
        verify_certificate(e, Certificate("indecomposable", "trust-me", None, None))


def test_verify_certificate_fails_malformed_shapes_as_a_check():
    # a malformed certificate is a failed check (RuntimeError, CLI exit 1),
    # not bad input (ValueError, exit 2)
    e = compute_end(swap_invariant_module())
    cert = find_splitting_element(e)
    assert cert.verdict == "decomposable"
    a, b = cert.parts
    malformed = "a part is not a vector of length 3 over GF\\(2\\)"
    for bad in _malformed(a):
        with pytest.raises(RuntimeError, match=malformed):
            verify_certificate(e, Certificate("decomposable", cert.mode, None, (bad, b)))
    # a single vector is no pair of parts, and neither is a sequence of one or three
    with pytest.raises(RuntimeError, match=malformed):
        verify_certificate(e, Certificate("decomposable", cert.mode, None, a))
    for count in ((a,), (a, b, b)):
        with pytest.raises(RuntimeError, match=f"{len(count)} parts, expected 2"):
            verify_certificate(e, Certificate("decomposable", cert.mode, None, count))
    # the same entries as x and as one radical vector of a local certificate
    jordan = compute_end(conjugated_jordan_module(GF2, 4, seed=4))
    local = find_splitting_element(jordan)
    assert local.radical
    verify_certificate(jordan, local)
    for bad in _malformed(local.radical[0]):
        _local_forgery(jordan, local, "certificate element is not X e_0", element=bad)
        _local_forgery(jordan, local, "radical vector is not X e_0", radical=(bad,) + local.radical[1:])
    # over Q: x written as a matrix, or over GF(2), as scalars or as raw
    # values, which carry no field; and a part of raw GF(2) values
    line = compute_end(orbit_basis(AlgebraAction(QQ, [("u", [[0, -1], [1, 0]])]), (1, 0)))
    for bad in (DenseMatrix.identity(QQ, 2), (GF2.one(), GF2.zero()), _RawVector([1, 1])):
        with pytest.raises(RuntimeError, match="certificate element is not X e_0"):
            verify_certificate(line, Certificate("indecomposable", "local", bad, None))
    with pytest.raises(RuntimeError, match="a part is not a vector of length 2 over QQ"):
        verify_certificate(line, Certificate("decomposable", "fitting-scan", None, (_RawVector([1, 0]), [0, 0])))


def test_verify_certificate_fails_raw_values_out_of_range_as_a_check():
    # a raw vector is taken without unboxing, so its GF(p) values are
    # checked to lie in [0, p) before a packed kernel reads them: a part, an
    # element and a radical vector out of range fail the check
    rng = random.Random(16)
    for field in (GF2, gf(3)):
        p = field.characteristic
        forged = [[v] + [0] * 3 for v in (-1, p, 5, 1.0)]
        split = compute_end(_jordan_beside_units(rng, field, 1)[0])
        cert = find_splitting_element(split)
        assert cert.verdict == "decomposable"
        a, b = cert.parts
        n = split.module_dim
        for v in forged:
            part = _RawVector(v[:1] + [0] * (n - 1))
            with pytest.raises(RuntimeError, match=f"a part is not a vector of length {n} over"):
                verify_certificate(split, Certificate("decomposable", cert.mode, None, (part, b)))
            with pytest.raises(RuntimeError, match=f"a part is not a vector of length {n} over"):
                verify_certificate(split, Certificate("decomposable", cert.mode, None, (a, part)))
        jordan = compute_end(conjugated_jordan_module(field, 4, seed=4))
        local = find_splitting_element(jordan)
        assert local.radical
        for v in map(_RawVector, forged):
            _local_forgery(jordan, local, "certificate element is not X e_0", element=v)
            _local_forgery(jordan, local, "radical vector is not X e_0", radical=(v,) + local.radical[1:])


def test_verify_certificate_rejects_each_forged_split():
    e = compute_end(swap_invariant_module())
    cert = find_splitting_element(e)
    assert cert.verdict == "decomposable"
    verify_certificate(e, cert)
    a, b = cert.parts
    # a split is its parts alone: an element, in E or not, is data its check
    # does not read, and is turned down
    assert cert.element is None
    sheared = DenseMatrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    for element in (sheared, e.identity()):
        _local_forgery(e, cert, "decomposable certificate carries witness data: element", element=element)
    # parts whose sum is not e_0, each part being a true summand's generator
    _local_forgery(e, cert, "parts do not sum to the generator e_0", parts=(a, a))
    _local_forgery(e, cert, "parts do not sum to the generator e_0", parts=(b, b))
    # e_0 = 0 + e_0: the zero orbit, and the whole module as the other
    _local_forgery(e, cert, "orbit dimensions 0 \\+ 3 are not positive", parts=([0, 0, 0], _unit(2, 3, 0)))
    _local_forgery(e, cert, "orbit dimensions 3 \\+ 0 are not positive", parts=(_unit(2, 3, 0), [0, 0, 0]))
    # e_0 = (1,1,0) + (0,1,0) over GF(2): both parts are nonzero, but their
    # orbits overlap, so their dimensions add up past the module's
    _local_forgery(e, cert, "orbit dimensions 2 \\+ 3 are not positive with sum 3", parts=([1, 1, 0], [0, 1, 0]))


def test_verify_certificate_rejects_parts_whose_orbits_overlap():
    # e_0 = 2 e_0 + (-e_0) over Q: both parts spin the whole natural S3
    # module, 3 + 3 dimensions in a module of 3
    e = compute_end(orbit_basis(s3_natural_action(), (1, 0, 0)))
    cert = find_splitting_element(e)
    assert cert.verdict == "decomposable"
    assert [len(tree.words) for tree in verify_certificate(e, cert)] == [2, 1]
    overlap = ([2, 0, 0], [-1, 0, 0])
    _local_forgery(e, cert, "orbit dimensions 3 \\+ 3 are not positive with sum 3", parts=overlap)
    # the true parts with their roles swapped still prove the split
    verify_certificate(e, dataclasses.replace(cert, parts=cert.parts[::-1]))


def test_verify_certificate_checks_every_mode_against_its_verdict():
    # a decomposable certificate is "fitting-scan" or "min-poly-split", an
    # undecided one "candidates-exhausted", and no other mode passes
    e = compute_end(swap_invariant_module())
    split = find_splitting_element(e)
    verify_certificate(e, dataclasses.replace(split, mode="min-poly-split"))
    _local_forgery(e, split, "mode 'trust-me' is not one of the decomposable modes", mode="trust-me")
    _local_forgery(e, split, "mode 'local' is not one of the decomposable modes", mode="local")
    # the quaternion leaf of regular Q8, generated by (1 - x) / 2 for the central involution x
    with open(os.path.join(GOLDEN, "regular_q8.json"), encoding="utf-8") as handle:
        q8 = presentation_from_json(json.load(handle))
    half = Fraction(1, 2)
    q = compute_end(permutation_module(q8, (half, 0, 0, 0, -half, 0, 0, 0)))
    undecided = find_splitting_element(q)
    assert (undecided.verdict, undecided.mode, q.dim) == ("undecided", "candidates-exhausted", 4)
    assert verify_certificate(q, undecided) is None
    for mode in ("trust-me", "budget-exhausted", "fitting-scan"):
        _local_forgery(q, undecided, f"mode '{mode}' is not one of the undecided modes", mode=mode)


def test_verify_certificate_of_a_split_forms_no_matrix_product(monkeypatch):
    # the parts are checked by two spins of matrix-vector steps, on E's
    # field, dimension and action matrices alone: its basis is not read
    products = _record_products(monkeypatch)
    for m in (swap_invariant_module(), regular_s4_module(QQ), regular_s4_module(gf(3))):
        e = compute_end(m)
        cert = find_splitting_element(e)
        assert cert.verdict == "decomposable"
        products.clear()
        bare = types.SimpleNamespace(field=e.field, module_dim=e.module_dim, action_mats=e.action_mats)
        trees = verify_certificate(bare, cert)
        assert products == []
        assert sum(len(tree.words) for tree in trees) == m.dim


def test_verify_certificate_returns_the_split_it_checked():
    e = compute_end(swap_invariant_module())
    cert = find_splitting_element(e)
    assert cert.verdict == "decomposable"
    trees = verify_certificate(e, cert)
    assert len(trees) == 2
    # each tree is the orbit of its part, spun from it
    for tree, part in zip(trees, cert.parts):
        assert tree.words[0] == () and list(tree.vectors[0]) == list(part)
    # and the two orbits together fill the module
    whole = [_unit(2, 3, i) for i in range(3)]
    assert span_equal(GF2, trees[0].vectors + trees[1].vectors, whole, e.module_dim)
    leaf = compute_end(orbit_basis(s3_natural_action(), (1, 1, 1)))
    indecomposable = find_splitting_element(leaf)
    assert indecomposable.verdict == "indecomposable"
    assert verify_certificate(leaf, indecomposable) is None
    q = compute_end(quaternion_module())
    undecided = find_splitting_element(q)
    assert undecided.verdict == "undecided"
    assert verify_certificate(q, undecided) is None


def test_verify_certificate_rejects_each_forged_indecomposable_verdict():
    # diag(1, 2) with g = (1, 1): E = Q x Q is 2-dimensional
    e = compute_end(orbit_basis(AlgebraAction(QQ, [("u", [[1, 0], [0, 2]])]), (1, 1)))
    assert e.dim == 2

    def rejects(reason, *fields):
        with pytest.raises(RuntimeError, match=reason):
            verify_certificate(e, Certificate(*fields, None))

    # x = 1 with J = 0: the identity is in E, but its minimal polynomial t - 1
    # has degree 1, not dim E = 2, whether x is written as None or as e_0
    rejects("element does not generate a field modulo the radical", "indecomposable", "local", None)
    rejects("mode 'field-generated' is not one of the indecomposable modes", "indecomposable", "field-generated", None)
    rejects("element does not generate a field modulo the radical", "indecomposable", "local", _unit(0, 2, 0))
    rejects("unknown verdict 'maybe'", "maybe", "local", None)


def _regular_m2_times_gf2_module():
    """The regular module of A = M_2(GF(2)) x GF(2), generated by 1_A.

    Coordinates in the basis E11, E12, E21, E22, f of A, where f = (0, 1);
    the generators are left multiplication by E12, E21 and f.
    """

    def left(images):
        m = [[0] * 5 for _ in range(5)]
        for j, i in enumerate(images):
            if i is not None:
                m[i][j] = 1
        return m

    e12 = left([None, None, 0, 1, None])  # E12 E21 = E11, E12 E22 = E12
    e21 = left([2, 3, None, None, None])  # E21 E11 = E21, E21 E12 = E22
    f = left([None, None, None, None, 4])
    return orbit_basis(AlgebraAction(GF2, [("e12", e12), ("e21", e21), ("f", f)]), (1, 0, 0, 1, 1))


def test_search_passes_over_an_ideal_that_is_not_nilpotent(monkeypatch):
    # E = A^op holds the 4-dim M_2 part as a two-sided ideal.  The Fitting
    # scan sees only the two nilpotent basis elements; the candidate loop
    # sees them first, and the first one's minimal polynomial t^2 grows J
    # to that whole part, which is not nilpotent, so the search turns J
    # down and goes on to the rest of the basis
    m = _regular_m2_times_gf2_module()
    e = compute_end(m)
    assert (m.dim, e.dim) == (5, 5)
    nilpotent = [b for b in e.basis if _is_nilpotent(b)]
    assert len(nilpotent) == 2
    rest = [b for b in e.basis if not _is_nilpotent(b)]
    lists = iter([nilpotent, nilpotent + rest])
    monkeypatch.setattr(endo, "_scan_candidates", lambda e: iter(next(lists)))
    checks = []
    nilpotent_span = endo._nilpotent_span

    def spy(ideal):
        checks.append((len(ideal), nilpotent_span(ideal)))
        return checks[-1][1]

    monkeypatch.setattr(endo, "_nilpotent_span", spy)
    cert = find_splitting_element(e)
    assert checks == [(4, False)]
    assert (cert.verdict, cert.mode) == ("decomposable", "min-poly-split")
    assert cert.diagnostics["min_poly_tried"] > len(nilpotent)
    verify_certificate(e, cert)


def _random_modules(rng, field, count):
    lo, hi = (-1, 1) if field.characteristic == 0 else (0, field.characteristic - 1)
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        density = rng.choice([0.2, 0.4, 0.8])
        gens = [
            (label, [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
                     for _ in range(n)])
            for label in ("u", "v")[:rng.randint(1, 2)]
        ]
        m = orbit_basis(AlgebraAction(field, gens), [rng.randint(lo, hi) for _ in range(n)])
        if m.dim > 0:
            out.append(m)
    return out


def _fractional_modules(rng, count):
    """Q modules of dimension up to 8 from generators with entries such as -1/2, 1/3 and 3/2."""
    entries = [Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), 1, -1, 2]
    out = []
    while len(out) < count:
        n = rng.randint(2, 8)
        gens = [
            (label, [[rng.choice(entries) if rng.random() < 0.35 else 0 for _ in range(n)]
                     for _ in range(n)])
            for label in ("u", "v")[:rng.randint(1, 2)]
        ]
        m = orbit_basis(AlgebraAction(QQ, gens), [rng.choice(entries) for _ in range(n)])
        if m.dim > 0:
            out.append(m)
    return out


def _has_denominators(m):
    return any(x.value.denominator > 1 for s in m.action.labels for row in m.restricted[s].entries for x in row)


def _condition_rows_by_edge(m):
    """The nonzero rows of R_s W_j - sum_h (R_s)_{hj} W_h for each non-tree edge (s, j), from dense products.

    W_j is the product of the restricted generators along word j, so
    these are the condition rows that compute_end reads on the spin of
    the identity, here formed apart from it.
    """
    n = m.dim
    index = {w: j for j, w in enumerate(m.basis_words)}
    spins = [DenseMatrix.identity(m.field, n)]
    for w in m.basis_words[1:]:
        spins.append(m.restricted[w[-1]] * spins[index[w[:-1]]])
    tree = {(w[-1], index[w[:-1]]) for w in m.basis_words[1:]}
    rows = {}
    for s in m.action.labels:
        r = m.restricted[s]
        for j in range(n):
            if (s, j) in tree:
                continue
            c = r * spins[j]
            for h in range(n):
                if r.entries[h][j]:
                    c = c - spins[h].scale(r.entries[h][j])
            rows[s, j] = [row for row in c.entries if any(row)]
    return rows


def _gf2_modules_whose_conditions_repeat(rng, count):
    """Random GF(2) modules of dim >= 9 whose condition rows on K = I repeat across edges.

    A module is kept when at least two edges give nonzero condition rows
    and some row comes from two edges, so that compute_end's dedupe drops
    rows.  Every other module is the direct sum of two random actions, so
    that E holds the two projections as well.
    """
    out = []
    for _ in range(60):
        if len(out) == count:
            break
        labels = ("u", "v", "w")[:rng.randint(2, 3)]
        sizes = [rng.randint(9, 12)] if len(out) % 2 else [rng.randint(4, 7), rng.randint(4, 7)]
        n = sum(sizes)
        gens = {label: [[0] * n for _ in range(n)] for label in labels}
        offset = 0
        for size in sizes:
            for rows in gens.values():
                for i in range(offset, offset + size):
                    rows[i][offset:offset + size] = [int(rng.random() < 0.25) for _ in range(size)]
            offset += size
        m = orbit_basis(AlgebraAction(GF2, list(gens.items())), [rng.randint(0, 1) for _ in range(n)])
        if m.dim < 9:
            continue
        by_edge = [set(rows) for rows in _condition_rows_by_edge(m).values() if rows]
        repeated = any(a & b for a, b in itertools.combinations(by_edge, 2))
        if len(by_edge) >= 2 and repeated:
            out.append(m)
    assert len(out) == count, f"{len(out)} of {count} modules found"
    return out


BOOLEAN_COMMUTANT_CASES = (
    ("x1*x2 + x3*x4 + x1*x3", 4),
    ("x1*x2*x3 + x4", 4),
    ("x1*x2*x3 + x3*x4*x5", 5),
    ("x1*x2*x3 + x4*x5", 5),
    ("x1*x2 + x3*x4*x5", 5),
    ("x1*x2*x3 + x4*x5*x6", 6),
    ("x1*x2*x3*x4 + x5*x6", 6),
    ("x1 + x2*x3", 6),
)


def test_spun_commutant_equals_general_solve():
    rng = random.Random(2004)
    modules = [m for field in (GF2, gf(3), QQ) for m in _random_modules(rng, field, 15)]
    # the packed GF(2) spin: boolean modules and their leaves, and modules whose condition rows repeat
    for text, n in BOOLEAN_COMMUTANT_CASES:
        m = orbit_basis(sn_action(n), parse_anf(text, n).vector())
        modules += [m, *complete_decomposition(m).summands]
    modules += _gf2_modules_whose_conditions_repeat(rng, 6)
    for field, gens, g in krull_schmidt_corpus():
        m = orbit_basis(AlgebraAction(field, gens), g)
        # the leaves are generated by projected generators
        modules += [m, *complete_decomposition(m).summands]
    # restricted matrices with denominators: the Q spin runs on integer rows over one denominator
    fractional = _fractional_modules(rng, 20)
    elements = symmetric_group(4)
    s4 = regular_presentation(elements, [elements.index((1, 0, 2, 3)), elements.index((1, 2, 3, 0))])
    g = [0] * 24
    g[elements.index((0, 1, 2, 3))], g[elements.index((1, 0, 2, 3))] = 1, -1
    top = permutation_module(s4, g)
    leaves = complete_decomposition(top).summands
    assert sorted(leaf.dim for leaf in leaves) == [1, 2, 3, 3, 3]
    assert sum(map(_has_denominators, fractional)) >= 10
    modules += [*fractional, top, *leaves]
    for m in modules:
        expected = commutant_basis(m.field, m.dim, [m.restricted[s] for s in m.action.labels])
        basis = compute_end(m).basis
        assert list(basis) == expected
        # canonical raw values: an int in [0, p), or over Q integer rows
        # over a positive denominator in lowest terms
        p = m.field.characteristic
        for b in basis:
            assert all(type(x) is int and (0 <= x < p if p else True) for row in b._raw for x in row)
            assert b._den == 1 if p else math.gcd(b._den, *(x for row in b._raw for x in row)) == 1 <= b._den


def _gathered(r, u):
    """R U through R's gather plan, for DenseMatrix R and U, as a DenseMatrix; over GF(2) on packed rows."""
    field, p = r.field, r.field.characteristic
    terms = [[(l, c) for l, c in enumerate(row) if c] for row in r._raw]
    out = list(endo._gather_plan(p, terms)(u._lines(False)[0] if p == 2 else u._raw, u.cols))
    if p == 2:
        return DenseMatrix._from_raw(field, [_read_lanes(2, x, 1, u.cols) for x in out], u.cols)
    if p:
        return DenseMatrix._from_raw(field, out, u.cols)
    return DenseMatrix._from_ints(field, out, r._den * u._den, u.cols)


@pytest.mark.parametrize("field", [GF2, gf(3), QQ], ids=str)
def test_gather_plans_match_products(field):
    rng = random.Random(26)
    p = field.characteristic
    values = [Fraction(-1, 2), Fraction(2, 3), 1, -1, 3] if not p else list(range(1, p))
    other = values[0] if not p else p - 1  # a coefficient other than 1, outside GF(2)
    shaped = [
        [[1]],                               # 1 x 1: itemgetter of one index returns no tuple
        [[other]],                           # 1 x 1, one term that is not 1 outside GF(2)
        [[0]],                               # 1 x 1 and empty
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],   # a nilpotent Jordan block: its last row is empty
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],   # a permutation: one gather and no sum
        [[other, 0], [1, 1]],                # one term that is not 1, then two terms
    ]
    if not p:  # 1/2 is the kernel entry 1 over the denominator 2: picked, then 1 is the entry 2, summed
        shaped.append([[Fraction(1, 2), 0], [0, 1]])
    for _ in range(20):
        n = rng.randint(1, 6)
        shaped.append([[rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)])
    for rows in shaped:
        r = DenseMatrix(field, rows)
        for k in (1, 3):
            u = DenseMatrix(field, [[rng.choice(values + [0]) for _ in range(k)] for _ in range(r.rows)])
            assert _gathered(r, u) == r * u
            if k == 1:
                assert _gathered(r, u)._column(0) == r._times_col(u._column(0))


def _spin_solve_counts(m, monkeypatch):
    """(spins, kernels) of one compute_end call on m."""
    spins, kernels = [], []
    with monkeypatch.context() as patch:
        spin, kernel = endo._spin, endo._kernel_from_rref
        patch.setattr(endo, "_spin", lambda *args: spins.append(1) or spin(*args))
        patch.setattr(endo, "_kernel_from_rref", lambda *args: kernels.append(1) or kernel(*args))
        compute_end(m)
    return len(spins), len(kernels)


def test_commutant_takes_two_spins_and_one_kernel(monkeypatch):
    modules = []
    for text, n in BOOLEAN_COMMUTANT_CASES:
        m = orbit_basis(sn_action(n), parse_anf(text, n).vector())
        modules += [m, *complete_decomposition(m).summands]
    for text, n in (("x1*x2 + x3*x4*x5 + x6*x7", 7), ("x1*x2*x3 + x4*x5 + x6*x7*x8", 8)):
        modules.append(orbit_basis(sn_action(n), parse_anf(text, n).vector()))
    s4 = regular_s4_module(QQ)
    modules += [s4, *complete_decomposition(s4).summands]
    elements = symmetric_group(4)
    action = regular_presentation(elements, [elements.index((1, 0, 2, 3)), elements.index((1, 2, 3, 0))])
    g = [0] * 24
    g[elements.index((0, 1, 2, 3))], g[elements.index((1, 0, 2, 3))] = 1, -1
    top = permutation_module(action, g)
    modules += [top, *complete_decomposition(top).summands]
    for field, d, seed in ((QQ, 2, 1), (QQ, 3, 2), (GF2, 8, 3), (gf(3), 6, 4)):
        modules.append(conjugated_jordan_module(field, d, seed))
    assert max(m.dim for m in modules) == 76
    for m in modules:
        spins, kernels = _spin_solve_counts(m, monkeypatch)
        # no second spin when no condition row is left, where K = I
        assert spins <= 2 and kernels <= 1 and spins == 1 + kernels


def _off_first_column(mat):
    """mat with 1 added at (0, 1): the same first column, so an element of E becomes a non-element."""
    field, n = mat.field, mat.rows
    bump = DenseMatrix(field, [[int((i, j) == (0, 1)) for j in range(n)] for i in range(n)])
    return mat + bump


def test_first_column_coordinates_reject_a_matrix_that_differs_elsewhere():
    # an element of E is fixed by its first column, so its coordinates are
    # solved on that column alone; the exact check must turn away a matrix
    # that agrees with an element there and nowhere else
    rng = random.Random(12)
    modules = [orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0)), swap_invariant_module()]
    modules += [m for field in (GF2, gf(3), QQ) for m in _random_modules(rng, field, 6) if m.dim >= 2]
    modules += [m for m in _fractional_modules(rng, 4) if m.dim >= 2]
    for m in modules:
        e = compute_end(m)
        coords = [rng.randint(-2, 2) for _ in range(e.dim)]
        x = e.element(coords)
        assert oracles.endo_coordinates(e, x) == tuple(m.field.scalar(c) for c in coords)
        forged = _off_first_column(x)
        assert [r[0] for r in forged.entries] == [r[0] for r in x.entries]
        assert oracles.endo_coordinates(e, forged) is None
        assert not e.contains(forged)


def test_verify_certificate_rejects_a_first_column_outside_e_e0():
    # a local leaf over GF(2) with n = 6 and dim E = 3: E e_0 is a 3-dim
    # subspace, and a vector outside it is X e_0 for no X in E, as x or as a
    # radical vector
    e = compute_end(orbit_basis(sn_action(4), parse_anf("x1*x2 + x3*x4 + x1*x3", 4).coeffs))
    cert = find_splitting_element(e)
    assert (cert.verdict, cert.mode, e.module_dim, e.dim) == ("indecomposable", "local", 6, 3)
    assert cert.radical
    verify_certificate(e, cert)
    firsts = [endo._first_column(b) for b in e.basis]
    outside = [v for v in (_unit(2, 6, i) for i in range(6)) if not span_equal(GF2, firsts + [v], firsts, 6)]
    assert outside
    for v in outside:
        _local_forgery(e, cert, "certificate element is not X e_0 for an X in the endomorphism", element=v)
        radical = (v,) + cert.radical[1:]
        _local_forgery(e, cert, "radical vector is not X e_0 for an X in the endomorphism", radical=radical)


def test_first_column_min_poly_equals_the_matrix_power_oracle():
    # an element of E is fixed by its first column, so the first dependence
    # among e_0, x e_0, x^2 e_0, ... is the dependence among I, x, x^2, ...
    rng = random.Random(13)
    modules = [m for field in (GF2, gf(3), QQ) for m in _random_modules(rng, field, 20)]
    modules += _fractional_modules(rng, 10)
    modules.append(orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0)))
    checked = 0
    for m in modules:
        e = compute_end(m)
        # a few random combinations of the basis besides the scanned elements
        lo, hi = (-3, 3) if e.field.characteristic == 0 else (0, e.field.characteristic - 1)
        extra = [[rng.randint(lo, hi) for _ in range(e.dim)] for _ in range(4)]
        elements = list(_scan_candidates(e)) + [e.element(c) for c in extra if any(c)]
        for x in elements:
            f, krylov = _min_poly(x)
            assert f == oracles.min_poly(x)
            # and the vectors it was read on are x^i e_0, i < deg f
            assert krylov == [oracles.plain_power(x, i)._column(0) for i in range(f.degree)]
            checked += 1
    assert checked >= 400


def test_first_column_min_poly_modulo_every_local_radical():
    # modulo J, f(x) lies in J exactly when f(x) e_0 lies in J e_0
    leaves = [conjugated_jordan_module(QQ, d, seed=d) for d in range(2, 7)]
    leaves += [conjugated_jordan_module(GF2, d, seed=d) for d in range(2, 9)]
    leaves += [conjugated_jordan_module(gf(3), d, seed=d) for d in range(2, 7)]
    leaves.append(rotation_block_module())
    boolean = complete_decomposition(decompose_boolean(parse_anf(SPLIT_4_6, 5)).module)
    assert [bool(c.radical) for c in boolean.certificates].count(True) == 1
    leaves += [leaf for leaf, c in zip(boolean.summands, boolean.certificates) if c.radical]
    for m in leaves:
        e = compute_end(m)
        cert = find_splitting_element(e)
        assert cert.mode == "local" and cert.radical
        x, radical = _witness(e, cert)
        for y in [x, *_scan_candidates(e)]:
            assert _min_poly(y, radical)[0] == oracles.min_poly(y, radical)


def test_radical_semisimple_is_zero():
    e = compute_end(orbit_basis(s3_natural_action(), (1, 0, 0)))
    assert e.dim == 2
    assert radical_char0(e) == []


def test_radical_of_jordan_commutant():
    n = [[0, 1], [0, 0]]
    action = AlgebraAction(QQ, [("u", n)])
    e = compute_end(orbit_basis(action, (0, 1)))
    rad = radical_char0(e)
    assert len(rad) == 1
    assert (rad[0] * rad[0]).is_zero()
    assert not rad[0].is_zero()


def test_radical_rejects_a_candidate_that_is_not_nilpotent(monkeypatch):
    e = compute_end(orbit_basis(s3_natural_action(), (1, 0, 0)))
    # a trace-form kernel that wrongly held the identity
    monkeypatch.setattr(oracles, "kernel_basis", lambda gram: [oracles.endo_coordinates(e, e.identity())])
    with pytest.raises(RuntimeError, match="radical candidate is not nilpotent"):
        radical_char0(e)


def test_radical_needs_char0():
    e = compute_end(swap_invariant_module())
    with pytest.raises(ValueError):
        radical_char0(e)


def test_left_mult_matrix_of_identity():
    e = compute_end(swap_invariant_module())
    ident_coords = oracles.endo_coordinates(e, e.identity())
    # left multiplication by the identity element is the identity map
    acc = DenseMatrix.zeros(e.field, e.dim, e.dim)
    for c, i in zip(ident_coords, range(e.dim)):
        if c:
            acc = acc + left_mult_matrix(e, i).scale(c)
    assert acc == DenseMatrix.identity(e.field, e.dim)
