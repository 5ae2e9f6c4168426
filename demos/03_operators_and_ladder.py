"""The derivations T, Delta, d and the ladder they generate on the
vector table, including the all-ones tower built from a single vector.

Run:  python3 demos/03_operators_and_ladder.py
"""

from sugawara import (
    Element,
    Pyramid,
    delta,
    delta_ladder,
    element_text,
    get_context,
    phi_table,
    selected_vectors,
    translation_T,
)

ctx = get_context(Pyramid((1, 2)), "affine")
v = ctx.gen(2, 2, 1, depth=-1) * ctx.gen(1, 1, 0, depth=-2)
# the grading d scales each word by its total depth: [d, X[r]] = r X[r]
dv = Element(ctx, {m: sum(g.depth for g in m) * c for m, c in v.terms.items()})
print("state        v =", element_text(v))
print("translation Tv =", element_text(translation_T(v)))
print("raising     Dv =", element_text(delta(v)))
print("grading     dv =", element_text(dv))
print()

# [Delta, T] = 2d as operators on the vacuum module
lhs = delta(translation_T(v)) - translation_T(delta(v))
print("[Delta,T] v - 2 d v =", element_text(lhs - 2 * dv))
print()

# Delta maps each selected vector to zero except at the window edge,
# where it reproduces a known multiple of the next-lower vector
p = Pyramid((1, 2))
table = phi_table(p)
print(f"ladder on {p}:")
for (k, r), elem in sorted(table.entries.items()):
    print(f"  Delta phi[{k},{r}] = {element_text(delta(elem))}")
print("ladder report passed:", delta_ladder(p, selected_vectors(p)).passed())
print()

# for the all-ones pyramid one vector generates the whole set:
# Delta^k phi_n^(0) is a multiple of phi_{n-k}^(0), and Delta^n kills it
n = 3
elem = phi_table(Pyramid((1,) * n)).entries[n, 0]
print(f"all-ones tower, n = {n}:")
for k in range(n + 1):
    print(f"  Delta^{k} phi = {element_text(elem)}")
    elem = delta(elem)
