"""Walkthrough: weighted automata, covering-tree reduction, minimization.

A weighted automaton (lambda, mu, gamma) assigns to every word w the
scalar lambda * mu(w_1) * ... * mu(w_k) * gamma.  Two presentations can
look different yet compute the same series; minimization finds the
smallest one, exactly, over the rationals or any prime field.
"""

from cyclomod import QQ
from cyclomod.serialize import automaton_to_json, to_text
from cyclomod.wfa import WeightedAutomaton, direct_sum, equivalent, minimize

# The counting automaton: weight(w) = number of a's in w.
counting = WeightedAutomaton(
    QQ,
    ("a", "b"),
    [1, 0],
    {"a": [[1, 1], [0, 1]], "b": [[1, 0], [0, 1]]},
    [0, 1],
)

print("weights of the counting automaton")
for word in ["", "a", "ab", "aba", "bbb", "aaaa"]:
    print(f"  weight({word!r}) = {counting.weight(word)}")

# Gluing two copies side by side doubles every weight and the dimension.
doubled = direct_sum(counting, counting)
print(f"\ndirect sum: dim {doubled.dim}, weight('aba') = {doubled.weight('aba')}")

# Minimization reads the automaton off the Hankel matrix f(uv).  Each
# spin is a covering tree: breadth-first over words, keeping a word
# exactly when its vector leaves the span of those kept so far.  A spin
# of gamma keeps columns mu(v) gamma spanning all the others, and a spin
# of lambda keeps the words u whose rows f(uv) on them are independent;
# those words are prefix closed and become the new states.  It gives what
# the right reduction followed by the left one gives, to the byte.
minimal = minimize(doubled)
print(f"\nminimize: dim {doubled.dim} -> {minimal.dim}")
print(f"  weight('aba') still {minimal.weight('aba')}")

# Equivalence is decided exactly: the difference of the two automata has
# the zero series iff its lambda vanishes on every column its spin of
# gamma keeps.
print(f"  equivalent(doubled, minimal): {equivalent(doubled, minimal)}")
print(f"  equivalent(counting, minimal): {equivalent(counting, minimal)}")

# The JSON form is what the `cyclomod minimize` subcommand reads/writes.
print("\nserialized minimal automaton:")
print(to_text(automaton_to_json(minimal)))
