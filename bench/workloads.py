"""Seeded inputs, jobs and correctness checks for the benchmark workloads.

Every workload is a fixed corpus of items.  An item is one job (the
call whose time counts), the signature the mathematics fixes for it,
and a re-check that runs outside the timed passes.  The seed only
relabels variables or points, or conjugates a matrix, so signatures
stay the same on every seed while the concrete inputs change.

Jobs reach cyclomod through module attributes at call time
(``cm.cli.main``, ``cm.modules.orbit_basis``), so wrappers installed by
the tracer see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable


class JobError(RuntimeError):
    """A job or re-check produced a wrong or missing result."""


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], str]              # the timed job; returns its output text
    expected: tuple                     # pinned signature, or (minimal dimension,)
    recheck: Callable[[str], None]      # untimed; raises JobError on a wrong output


@dataclass(frozen=True)
class Outcome:
    """What one job's output says, read from its JSON text."""

    leaves: int
    undecided: int


def read_outcome(item: Item, text: str) -> Outcome:
    """Parse a job's output and compare it with the pinned result.

    A decomposition report is compared by its signature; an automaton by
    its dimension, as a 1-tuple.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise JobError(f"{item.name}: output is not JSON: {err}") from None
    if not isinstance(obj, dict):
        raise JobError(f"{item.name}: output is not a JSON object")
    if "signature" in obj:
        found = tuple(obj["signature"])
        outcome = Outcome(len(found), int(obj.get("undecided_count", 0)))
    else:
        found = (obj.get("dim"),)
        outcome = Outcome(0, 0)
    if found != item.expected:
        raise JobError(f"{item.name}: result {found}, expected {item.expected}")
    return outcome


def _cli(cm, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cm.cli.main(argv)
    if code != 0:
        raise JobError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _check_module_report(cm, report, expected, name, output, names=None):
    """Re-check a library report: its signature, check_report, and that it
    serializes to the job's output bytes."""
    if cm.serialize.to_text(cm.serialize.report_to_json(report, names)) != output:
        raise JobError(f"{name}: the library report does not serialize to the job output")
    if tuple(report.signature) != expected:
        raise JobError(f"{name}: library signature {report.signature}, expected {expected}")
    try:
        cm.decompose.check_report(report)
    except RuntimeError as err:
        raise JobError(f"{name}: check_report failed: {err}") from None


# ---------------------------------------------------------------------------
# bool-gf2: decompose-bool on ANF functions, variables relabelled by the seed

BOOL_ITEMS = (
    # commutant-heavy: module dims 6 to 10 over small ambients, chosen so
    # that relabelling the variables leaves the elimination work unchanged
    ("x1*x2 + x3*x4 + x1*x3", 4, (6,)),
    ("x1*x2*x3 + x3*x4*x5", 5, (4, 5)),
    ("x1*x2*x3 + x4*x5", 5, (4, 6)),
    # wide ambient: 2^n-dense generator matrices dominate
    ("x1", 7, (1, 6)),
    ("x1 + x2", 7, (6,)),
)


def relabel_anf(expr: str, perm) -> str:
    """Rename x<i> to x<perm[i-1]+1>."""
    return re.sub(r"x(\d+)", lambda m: f"x{perm[int(m.group(1)) - 1] + 1}", expr)


def bool_gf2(cm, seed: int, workdir: str):
    rng = random.Random(seed)
    items = []
    for expr, n, expected in BOOL_ITEMS:
        perm = list(range(n))
        rng.shuffle(perm)
        text = relabel_anf(expr, perm)

        def run(text=text, n=n):
            return _cli(cm, ["decompose-bool", text, "-n", str(n)])

        def recheck(output, text=text, n=n, expected=expected):
            f = cm.boolfn.parse_anf(text, n)
            report = cm.boolfn.decompose_boolean(f)
            _check_module_report(cm, report, expected, text, output, cm.boolfn.monomial_names(n))

        items.append(Item(f"{text} (n={n})", run, expected, recheck))
    return items


# ---------------------------------------------------------------------------
# perm-q: decompose-perm over Q, points relabelled by the seed


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def _regular(elements, generators):
    """Left translation by the given group elements, as index maps."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[_compose(g, e)] for e in elements] for g in generators]


def _closure(generators):
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                h = _compose(g, e)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def _on_pairs(k: int, generators):
    """Action of point permutations of {0..k-1} on the 2-subsets."""
    pairs = list(itertools.combinations(range(k), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return [[index[tuple(sorted((g[a], g[b])))] for a, b in pairs] for g in generators]


def _cycle(k: int):
    return tuple((i + 1) % k for i in range(k))


def _swap01(k: int):
    return (1, 0) + tuple(range(2, k))


def perm_cases():
    """(name, generator index maps, generator vector, expected signature)."""
    s3 = _closure([_swap01(3), _cycle(3)])
    s4 = _closure([_swap01(4), _cycle(4)])
    c12 = [tuple((i + r) % 12 for i in range(12)) for r in range(12)]

    def unit(n, i):
        return [1 if j == i else 0 for j in range(n)]

    e4 = unit(24, s4.index(tuple(range(4))))
    e4[s4.index(_swap01(4))] -= 1
    return (
        ("regular S3, g=e", _regular(s3, [_swap01(3), _cycle(3)]),
         unit(6, s3.index(tuple(range(3)))), (1, 1, 2, 2)),
        ("S5 on 2-subsets", _on_pairs(5, [_swap01(5), _cycle(5)]), unit(10, 0), (1, 4, 5)),
        ("regular S4, g=e-(12)", _regular(s4, [_swap01(4), _cycle(4)]), e4, (1, 2, 3, 3, 3)),
        ("regular C12, g=e", _regular(c12, [_cycle(12)]), unit(12, 0), (1, 1, 2, 2, 2, 4)),
    )


def relabel_points(generators, vector, perm):
    """Conjugate index maps by perm and move the vector along with the points."""
    n = len(vector)
    moved = []
    for g in generators:
        h = [0] * n
        for i in range(n):
            h[perm[i]] = perm[g[i]]
        moved.append(h)
    v = [0] * n
    for i in range(n):
        v[perm[i]] = vector[i]
    return moved, v


def perm_q(cm, seed: int, workdir: str):
    rng = random.Random(seed)
    items = []
    for k, (name, generators, vector, expected) in enumerate(perm_cases()):
        perm = list(range(len(vector)))
        rng.shuffle(perm)
        generators, vector = relabel_points(generators, vector, perm)
        path = os.path.join(workdir, f"perm_{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"degree": len(vector),
                 "generators": {f"s{j + 1}": g for j, g in enumerate(generators)}},
                handle,
            )
        gtext = ",".join(str(x) for x in vector)

        def run(path=path, gtext=gtext):
            # the = form, because a vector starting with "-1" would read as an option
            return _cli(cm, ["decompose-perm", path, f"--generator={gtext}"])

        def recheck(output, path=path, vector=vector, expected=expected, name=name):
            with open(path, encoding="utf-8") as handle:
                pres = cm.serialize.presentation_from_json(json.load(handle))
            module = cm.perms.permutation_module(pres, vector)
            report = cm.decompose.complete_decomposition(module)
            _check_module_report(cm, report, expected, name, output)

        items.append(Item(name, run, expected, recheck))
    return items


# ---------------------------------------------------------------------------
# local-search: one nilpotent Jordan block, conjugated by a unimodular matrix

LOCAL_ITEMS = (("0", 2), ("0", 3), ("p:2", 8), ("p:3", 6))


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular_pair(rng: random.Random, d: int):
    """Integer P and its integer inverse, from seeded elementary row operations."""
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    q = [row[:] for row in p]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        # P <- E P with E = I + c e_ij; Q <- Q E^-1 with E^-1 = I - c e_ij
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def jordan_instance(rng: random.Random, d: int):
    """P N P^-1 for the nilpotent Jordan block N, and the cyclic vector P e_d."""
    n = [[int(j == i + 1) for j in range(d)] for i in range(d)]
    p, q = unimodular_pair(rng, d)
    a = _mat_mul(_mat_mul(p, n), q)
    g = [row[d - 1] for row in p]
    return a, g


def local_search(cm, seed: int, workdir: str):
    rng = random.Random(seed)
    items = []
    for field_text, d in LOCAL_ITEMS:
        a, g = jordan_instance(rng, d)
        field = cm.serialize.field_from_str(field_text)
        action = cm.modules.AlgebraAction(field, [("n", a)])
        expected = (d,)
        name = f"Jordan block d={d} over {field_text}"
        last = {}

        def run(action=action, g=g, last=last):
            module = cm.modules.orbit_basis(action, g)
            last["report"] = cm.decompose.complete_decomposition(module)
            return cm.serialize.to_text(cm.serialize.report_to_json(last["report"]))

        def recheck(output, last=last, expected=expected, name=name):
            # the job is already a library run: re-check the report it produced
            _check_module_report(cm, last["report"], expected, name, output)

        items.append(Item(name, run, expected, recheck))
    return items


# ---------------------------------------------------------------------------
# minimize: seeded non-minimal automata a + b + (-b)

# (field, total dimension, minimal dimension: that of a)
MINIMIZE_ITEMS = (("p:2", 32, 8), ("p:2", 48, 12), ("p:3", 32, 8), ("0", 16, 4), ("0", 32, 8))
ALPHABET = ("a", "b")


def random_automaton(cm, rng: random.Random, field, dim: int):
    p = field.characteristic

    def entry():
        if rng.random() < 0.35:
            return 0
        return rng.randint(-3, 3) if p == 0 else rng.randint(0, p - 1)

    lam = [entry() for _ in range(dim)]
    gamma = [entry() for _ in range(dim)]
    mu = {s: [[entry() for _ in range(dim)] for _ in range(dim)] for s in ALPHABET}
    return cm.wfa.WeightedAutomaton(field, ALPHABET, lam, mu, gamma)


def conjugate_states(cm, a, perm, signs):
    """The same series from the automaton with state i renamed perm[i] and scaled by signs[i]."""
    n = a.dim
    lam, gamma = [None] * n, [None] * n
    mu = {s: [[None] * n for _ in range(n)] for s in a.alphabet}
    for i in range(n):
        lam[perm[i]] = signs[i] * a.lam[i]
        gamma[perm[i]] = signs[i] * a.gamma[i]
        for s in a.alphabet:
            row = a.mu[s].entries[i]
            for j in range(n):
                mu[s][perm[i]][perm[j]] = signs[i] * signs[j] * row[j]
    return cm.wfa.WeightedAutomaton(a.field, a.alphabet, lam, mu, gamma)


def seeded_conjugation(rng: random.Random, field, n: int):
    """A state permutation over GF(p); over Q, signs only.

    Over Q a permutation changes the elimination order and with it the
    size of the fractions, so the work would depend on the seed.
    """
    perm = list(range(n))
    signs = [1] * n
    if field.characteristic:
        rng.shuffle(perm)
    else:
        signs = [rng.choice((-1, 1)) for _ in range(n)]
    return perm, signs


def minimize(cm, seed: int, workdir: str):
    rng = random.Random(seed)
    items = []
    for k, (field_text, dim, minimal_dim) in enumerate(MINIMIZE_ITEMS):
        field = cm.serialize.field_from_str(field_text)
        # the automata are fixed, so the work is too; the seed conjugates them
        fixed = random.Random(k)
        a = random_automaton(cm, fixed, field, dim // 4)
        b = random_automaton(cm, fixed, field, 3 * dim // 8)
        total = cm.wfa.direct_sum(cm.wfa.direct_sum(a, b), cm.wfa.scale(b, -1))
        total = conjugate_states(cm, total, *seeded_conjugation(rng, field, total.dim))
        path = os.path.join(workdir, f"automaton_{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cm.serialize.to_text(cm.serialize.automaton_to_json(total)))

        def run(path=path):
            return _cli(cm, ["minimize", path])

        def recheck(output, path=path):
            with open(path, encoding="utf-8") as handle:
                source = cm.serialize.automaton_from_json(json.load(handle))
            result = cm.serialize.automaton_from_json(json.loads(output))
            if not cm.wfa.equivalent(source, result):
                raise JobError(f"{path}: minimized automaton is not equivalent to its input")
            if cm.wfa.minimize(result).dim != result.dim:
                raise JobError(f"{path}: minimizing the output again changes its dimension")

        name = f"a+b-b over {field_text}, dim {total.dim}"
        items.append(Item(name, run, (minimal_dim,), recheck))
    return items


WORKLOADS = {
    "bool-gf2": bool_gf2,
    "perm-q": perm_q,
    "local-search": local_search,
    "minimize": minimize,
}
