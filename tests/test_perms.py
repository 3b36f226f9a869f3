"""Permutation presentations, regular modules of small groups, and Maschke spot checks."""

import itertools
import random
from math import lcm

import pytest

from cyclomod import QQ, gf
from cyclomod.linalg import DenseMatrix, SpanSolver, rref
from cyclomod.decompose import complete_decomposition, check_report
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.serialize import report_to_json, to_text
from cyclomod.perms import PermutationPresentation, permutation_module

from fixtures import compose, generated_group, regular_module, regular_presentation, symmetric_group


def s3_presentation():
    return PermutationPresentation(3, [("s1", (1, 0, 2)), ("s2", (0, 2, 1))])


def test_presentation_validation():
    with pytest.raises(ValueError):
        PermutationPresentation(0, [])
    with pytest.raises(ValueError):
        PermutationPresentation(3, [("s1", (0, 1))])
    with pytest.raises(ValueError):
        PermutationPresentation(3, [("s1", (0, 1, 1))])
    with pytest.raises(ValueError):
        PermutationPresentation(3, [("s1", (0, 1, 2)), ("s1", (1, 0, 2))])


def test_permutation_matrices_are_permutation_matrices():
    p = s3_presentation()
    action = p.action()
    for label in p.labels:
        mat = action.matrices[label]
        for row, column in zip(mat.entries, zip(*mat.entries)):
            row_ones = sum(1 for x in row if x)
            col_ones = sum(1 for x in column if x)
            assert row_ones == col_ones == 1
            assert all(x.value in (0, 1) for x in row)
        # orthogonality: transpose is the inverse
        assert mat * mat.transpose() == DenseMatrix.identity(QQ, 3)


def test_matrix_composition_order():
    # column i of the matrix holds e_{p[i]}, so matrices compose like the permutations
    p = s3_presentation()
    action = p.action()
    s1, s2 = action.matrices["s1"], action.matrices["s2"]
    composed = compose(p.generators["s1"], p.generators["s2"])
    expected = PermutationPresentation(3, [("c", composed)]).action().matrices["c"]
    assert s1 * s2 == expected


def _dense_rows(perm):
    """The permutation matrix with a 1 in row perm[i] of column i, built here by hand."""
    rows = [[0] * len(perm) for _ in perm]
    for i, j in enumerate(perm):
        rows[j][i] = 1
    return rows


def test_index_map_action_matches_dense_generators():
    # the same generators given as index maps (gathers) and as DenseMatrix
    # must give the same orbit bases, words, reports and matrices
    rng = random.Random(3301)
    decomposed = 0
    for _ in range(30):
        degree = rng.randint(1, 7)
        gens = []
        for k in range(rng.randint(0, 3)):
            perm = list(range(degree))
            rng.shuffle(perm)
            gens.append((f"g{k}", tuple(perm)))
        p = PermutationPresentation(degree, gens)
        action = p.action()
        dense = AlgebraAction(QQ, [(s, DenseMatrix(QQ, _dense_rows(q))) for s, q in gens], dim=degree)
        g = [rng.randint(-2, 2) for _ in range(degree)]
        a, b = orbit_basis(action, g), orbit_basis(dense, g)
        assert (a.basis_words, a.basis_vectors, a.restricted) == (b.basis_words, b.basis_vectors, b.restricted)
        for word in itertools.product(p.labels, repeat=2):
            assert action.apply_word(word, g) == dense.apply_word(word, g)
        if a.dim:
            report = complete_decomposition(a)
            check_report(report)
            assert to_text(report_to_json(report)) == to_text(report_to_json(complete_decomposition(b)))
            decomposed += 1
        assert action.matrices == dense.matrices
    assert decomposed >= 20


def test_malformed_index_maps_are_rejected():
    for perm in [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3), (-1, 0, 1), (0.0, 1, 2)]:
        with pytest.raises(ValueError):
            AlgebraAction.from_permutations(QQ, [("s", perm)], 3)
    with pytest.raises(ValueError):
        AlgebraAction.from_permutations(QQ, [("s", (1, 0)), ("s", (0, 1))], 2)
    action = AlgebraAction.from_permutations(QQ, [("s", (1, 2, 0))], 3)
    with pytest.raises(ValueError):
        action.apply_word(("s",), (1, 0))


def test_natural_module_dimensions():
    p = s3_presentation()
    assert permutation_module(p, (1, 0, 0)).dim == 3
    assert permutation_module(p, (1, 1, 1)).dim == 1
    with pytest.raises(ValueError):
        permutation_module(p, (1, 0))


def test_trivial_group_module():
    trivial = PermutationPresentation(3, [])
    m = permutation_module(trivial, (2, 1, 0))
    assert m.dim == 1
    report = complete_decomposition(m)
    assert report.signature == (1,)


def test_left_translation_s3():
    elements = symmetric_group(3)
    gens = [elements.index((1, 0, 2)), elements.index((0, 2, 1))]
    p = regular_presentation(elements, gens)
    assert p.degree == 6
    assert p.labels == ("s1", "s2")
    m = permutation_module(p, (1, 0, 0, 0, 0, 0))
    assert m.dim == 6
    report = complete_decomposition(m)
    assert report.signature == (1, 1, 2, 2)
    assert report.fully_decomposed
    check_report(report)


def test_left_translation_cyclic_three():
    elements = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    p = regular_presentation(elements, [1])
    assert p.degree == 3
    assert p.generators["s1"] == (1, 2, 0) or p.generators["s1"] == (2, 0, 1)
    m = permutation_module(p, (1, 0, 0))
    assert m.dim == 3
    report = complete_decomposition(m)
    assert report.signature == (1, 2)
    # the 2-dimensional leaf is simple because its commutant is Q(cube root of 1)
    assert report.fully_decomposed


def test_left_translation_trivial_group():
    p = regular_presentation([(0,)], [])
    assert p.degree == 1
    assert p.labels == ()


# Generators as permutations, a prime p that does not divide |G| with
# p = 1 mod the exponent of G, and the degrees chi(1) of the irreducible
# characters (James and Liebeck, Representations and Characters of Groups)
SPLITTING_FIELD_CASES = {
    "S3": ([(1, 0, 2), (0, 2, 1)], 7, (1, 1, 2)),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 13, (1, 1, 2, 3, 3)),
    "A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 13, (1, 1, 1, 3)),
    "D4": ([(1, 2, 3, 0), (0, 3, 2, 1)], 5, (1, 1, 1, 1, 2)),
    # left multiplication by i and j on 1, i, j, k, -1, -i, -j, -k
    "Q8": ([(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)], 5, (1, 1, 1, 1, 2)),
    "C7": ([(1, 2, 3, 4, 5, 6, 0)], 29, (1,) * 7),
}


def _order(g):
    identity, h, k = tuple(range(len(g))), g, 1
    while h != identity:
        h, k = compose(g, h), k + 1
    return k


@pytest.mark.parametrize("group", list(SPLITTING_FIELD_CASES))
def test_regular_module_over_a_splitting_field_has_the_character_degrees(group):
    # GF(p) is then a splitting field of G and of characteristic prime to
    # |G|, so the regular module is the sum, over the irreducible characters
    # chi, of chi(1) copies of an absolutely simple module of dimension chi(1)
    generators, p, degrees = SPLITTING_FIELD_CASES[group]
    elements = generated_group(generators)
    assert len(elements) == sum(d * d for d in degrees)
    assert len(elements) % p and p % lcm(*map(_order, elements)) == 1
    report = complete_decomposition(regular_module(gf(p), elements, [elements.index(g) for g in generators]))
    check_report(report)
    assert report.fully_decomposed
    assert report.signature == tuple(sorted(d for d in degrees for _ in range(d)))


def _height_one_vectors(d):
    out = []
    for entries in itertools.product((-1, 0, 1), repeat=d):
        if not any(entries):
            continue
        first = next(x for x in entries if x)
        if first == 1:
            out.append(entries)
    return out


def _canonical_span(vectors, d):
    m = DenseMatrix(QQ, [list(v) for v in vectors], cols=d)
    r = rref(m)
    return r.matrix.entries[:r.rank]


def _stable_spans(action, max_basis):
    d = action.dim
    vectors = _height_one_vectors(d)
    spans = {}
    for size in range(1, max_basis + 1):
        for combo in itertools.combinations(vectors, size):
            key = _canonical_span(combo, d)
            if 0 < len(key) < d:
                spans[key] = None
    stable = []
    for rows in spans:
        solver = SpanSolver(QQ, d)
        for v in rows:
            solver.add(v)
        ok = True
        for label in action.labels:
            if not all(solver.contains(action.apply_word((label,), v)) for v in rows):
                ok = False
                break
        if ok:
            stable.append(rows)
    return stable


@pytest.mark.parametrize(
    "presentation",
    [
        PermutationPresentation(3, [("s1", (1, 0, 2)), ("s2", (0, 2, 1))]),
        PermutationPresentation(4, [("r", (1, 2, 3, 0))]),
    ],
)
def test_maschke_complement_among_small_height_subspaces(presentation):
    # every stable subspace found at height one has a stable complement
    # in the same family: the semisimplicity of group actions over Q,
    # checked by bounded enumeration rather than by the decomposition code
    action = presentation.action()
    d = action.dim
    stable = _stable_spans(action, d - 1)
    assert stable, "enumeration found no proper stable subspaces"
    for rows in stable:
        found = False
        for other in stable:
            if len(rows) + len(other) != d:
                continue
            solver = SpanSolver(QQ, d)
            for v in rows + other:
                solver.add(v)
            if solver.rank == d:
                found = True
                break
        assert found, f"no stable complement for {rows}"
