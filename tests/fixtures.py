"""Hand-worked modules reused across test files.

The GF(2) fixture: 8 ANF monomials of 3 variables ordered by bitmask,
adjacent transpositions s1 = (x1 x2), s2 = (x2 x3), and the generator
g = x1+x2+x3+x1*x3+x2*x3+x1*x2*x3 whose orbit basis is
    A = g,  B = s2*A,  C = s1*B,
with s1 fixing A and swapping B, C and s2 swapping A, B and fixing C.
The sum F = A+B+C spans the invariant line inside span{A, B, C}.
"""

import random

from cyclomod import GF2, QQ
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.perms import left_translation_action, symmetric_group
from cyclomod.wfa import WeightedAutomaton


def bit_swap(mask, i, j):
    bi = (mask >> i) & 1
    bj = (mask >> j) & 1
    if bi == bj:
        return mask
    return mask ^ ((1 << i) | (1 << j))


def transposition_matrix(n, k):
    """ANF monomial permutation matrix swapping variables x_k and x_{k+1}."""
    size = 1 << n
    rows = [[0] * size for _ in range(size)]
    for m in range(size):
        rows[bit_swap(m, k - 1, k)][m] = 1
    return rows


def s3_anf_action():
    return AlgebraAction(
        GF2,
        [("s1", transposition_matrix(3, 1)), ("s2", transposition_matrix(3, 2))],
    )


MONOMIALS = ["1", "x1", "x2", "x1*x2", "x3", "x1*x3", "x2*x3", "x1*x2*x3"]


def anf_vector(indices):
    return tuple(1 if i in indices else 0 for i in range(8))


G = anf_vector({1, 2, 4, 5, 6, 7})
B_VEC = anf_vector({1, 2, 3, 4, 6, 7})
C_VEC = anf_vector({1, 2, 3, 4, 5, 7})
F_VEC = anf_vector({1, 2, 4, 7})


def swap_invariant_module():
    """The 3-dimensional GF(2) module generated by G."""
    return orbit_basis(s3_anf_action(), G)


def s3_natural_action():
    """Adjacent transpositions permuting the coordinates of Q^3."""
    s1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    s2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    return AlgebraAction(QQ, [("s1", s1), ("s2", s2)])


def compose(p, q):
    """(p o q)[i] = p[q[i]]; permutations as index tuples."""
    return tuple(p[q[i]] for i in range(len(q)))


def s3_elements():
    """All six permutations of {0,1,2} in lexicographic order."""
    return [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]


def s3_regular_action():
    """Left translation by s1 = (0 1), s2 = (1 2) on the six group elements."""
    elements = s3_elements()
    index = {g: i for i, g in enumerate(elements)}
    mats = []
    for gen in [(1, 0, 2), (0, 2, 1)]:
        rows = [[0] * 6 for _ in range(6)]
        for j, g in enumerate(elements):
            rows[index[compose(gen, g)]][j] = 1
        mats.append(rows)
    return AlgebraAction(QQ, [("s1", mats[0]), ("s2", mats[1])])


def regular_s4_module(field):
    """The regular S4 module over field, generated by the identity.

    The generators are left translation by (0 1) and by the 4-cycle.
    """
    elements = symmetric_group(4)
    s4 = left_translation_action(elements, [elements.index((1, 0, 2, 3)), elements.index((1, 2, 3, 0))])
    action = AlgebraAction.from_permutations(field, [(s, s4.generators[s]) for s in s4.labels], 24)
    return orbit_basis(action, [1] + [0] * 23)


def unimodular_pair(rng, d):
    """A seeded product P of elementary integer row operations, and P^-1.

    Both are integer matrices, so P is invertible over Q and every GF(p).
    """
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    q = [row[:] for row in p]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        # P <- E P with E = I + c e_ij, and P^-1 <- P^-1 E^-1
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def conjugated_jordan_module(field, d, seed):
    """The module of P N P^-1 generated by P e_d, for the nilpotent d x d Jordan block N.

    P comes from unimodular_pair.  The module is Q^d (or GF(p)^d) and
    indecomposable, and its endomorphism algebra F[N]/N^d is local.
    """
    p, q = unimodular_pair(random.Random(seed), d)
    n = [[int(j == i + 1) for j in range(d)] for i in range(d)]
    a = int_mul(int_mul(p, n), q)
    return orbit_basis(AlgebraAction(field, [("n", a)]), [row[d - 1] for row in p])


def int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def quaternion_module():
    """Q^4 = H under left multiplication by i and j, generated by 1; End is H."""
    left_i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    left_j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return orbit_basis(AlgebraAction(QQ, [("i", left_i), ("j", left_j)]), (1, 0, 0, 0))


def multiquadratic_module(primes, dual=False):
    """K = Q(sqrt p for p in primes) under multiplication by each sqrt p, generated by 1; End is K.

    Basis vector s, a set of bits, is the product of the sqrt p over those
    bits.  With dual, K[eps]/(eps^2) under those and eps, whose End is
    K[eps]: local, with radical eps K and residue field K.
    """
    n = 1 << len(primes)
    size = 2 * n if dual else n

    def matrix(entries):
        m = [[0] * size for _ in range(size)]
        for row, col, value in entries:
            m[row][col] = value
        return m

    copies = (0, n) if dual else (0,)
    gens = []
    for i, p in enumerate(primes):
        bit = 1 << i
        gens.append((f"sqrt{p}", matrix(
            (o + (s ^ bit), o + s, p if s & bit else 1) for o in copies for s in range(n)
        )))
    if dual:
        gens.append(("eps", matrix((n + s, s, 1) for s in range(n))))
    return orbit_basis(AlgebraAction(QQ, gens), [1] + [0] * (size - 1))


def redundant_automaton(field, dim, seed):
    """A seeded GF(p) automaton a + b - b on dim states, its states shuffled.

    a has dim / 4 states and b 3 dim / 8, each with random entries in
    [0, p), and -b is b with its lambda negated (over GF(2), b itself);
    the direct sum is laid out block by block and then every state i is
    renamed perm[i].  Its series is a's, so it minimizes to at most
    dim / 4 states.
    """
    p = field.characteristic
    rng = random.Random(seed)
    alphabet = ("a", "b")

    def part(k):
        entries = lambda: [rng.randrange(p) for _ in range(k)]
        return entries(), {s: [entries() for _ in range(k)] for s in alphabet}, entries()

    b_lam, b_mu, b_gamma = part(3 * dim // 8)
    parts = [part(dim // 4), (b_lam, b_mu, b_gamma), ([-x % p for x in b_lam], b_mu, b_gamma)]
    perm = list(range(dim))
    rng.shuffle(perm)
    lam, gamma = [0] * dim, [0] * dim
    mu = {s: [[0] * dim for _ in range(dim)] for s in alphabet}
    offset = 0
    for part_lam, part_mu, part_gamma in parts:
        k = len(part_lam)
        for i in range(k):
            lam[perm[offset + i]] = part_lam[i]
            gamma[perm[offset + i]] = part_gamma[i]
            for s in alphabet:
                for j in range(k):
                    mu[s][perm[offset + i]][perm[offset + j]] = part_mu[s][i][j]
        offset += k
    return WeightedAutomaton(field, alphabet, lam, mu, gamma)
