"""Shift-of-argument subalgebras: the evaluation homomorphism, the
generator family for a random functional, exact commutativity, and the
Jacobian-rank independence check on the commutative symbols.

Run:  python3 demos/05_shift_of_argument.py
"""

from sugawara import (
    Pyramid,
    a_chi_generators,
    commutativity_check,
    element_text,
    get_context,
    jacobian_rank,
    random_point,
    rho_chi,
    selected_vectors,
    symbols,
)

p = Pyramid((1, 1))
chi = {g: c for g, c in random_point(p, seed=2).items() if c}
print(f"pyramid {p}, random functional chi =",
      {g.text(): str(c) for g, c in sorted(chi.items())})
print()

# the evaluation homomorphism sends X[-1] to X z^{-1} + chi(X)
vectors = selected_vectors(p)
for k, r, elem in vectors:
    series = rho_chi(elem, chi)
    print(f"rho(phi[{k},{r}]):")
    for e, elem in sorted(series.items(), reverse=True):
        print(f"   z^{e}: {element_text(elem)}")
print()

gens = a_chi_generators(p, vectors, chi)
print(f"{len(gens)} shift-of-argument generators (m = 0..k-1 per vector)")
fin = get_context(p, "finite")
report = commutativity_check([(f"g[{g.k},{g.r},{g.m}]", g.element) for g in gens], fin)
print("pairwise commutativity:", report.passed())
print()

# independence surrogate: full Jacobian rank of the commutative symbols
sym = symbols(vectors)
for seed in (1, 2, 3):
    rank = jacobian_rank(p, sym, random_point(p, seed))
    print(f"Jacobian rank at seed {seed}: {rank} (N = {p.big_n})")
