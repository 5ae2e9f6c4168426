"""Walk through the combinatorial layer: pyramids, the E[i,j,r] basis,
brackets, the invariant form, and the embedding into gl_N.

Run:  python3 demos/01_pyramid_and_basis.py
"""

from itertools import accumulate

from sugawara import GenId, Pyramid, bracket, form

p = Pyramid((2, 3, 4))
print(f"pyramid {p}: n = {p.n} rows, N = {p.big_n} boxes")
print()

# boxes are numbered row by row; box 5 sits in row 2, column 3
before = [0, *accumulate(p.lambdas)]  # boxes above each row
for a in (1, 2, 5, 9):
    i = next(i for i in range(1, p.n + 1) if a <= before[i])
    print(f"  box {a}: row {i}, column {a - before[i - 1]}")
print()

basis = p.basis()
print(f"centralizer dimension = {len(basis)} = sum of min(lambda_i, lambda_j)")
print("first few basis symbols:", " ".join(g.text() for g in basis[:6]), "...")
print()

# the bracket truncates shifts that leave the admissible window:
# here the E[1,1,2] term dies (row 1 only admits shifts 0 and 1)
a, b = GenId(1, 2, 2), GenId(2, 1, 0)
combo = bracket(p, a, b)
print(f"[{a.text()}, {b.text()}] =", {g.text(): str(c) for g, c in combo.items()})
# and here both terms truncate, so the bracket vanishes outright
a, b = GenId(2, 1, 1), GenId(1, 2, 2)
combo = bracket(p, a, b)
print(f"[{a.text()}, {b.text()}] =", {g.text(): str(c) for g, c in combo.items()})
print()

# the critical-level form is supported on shift-0 pairs only
for pair in [(GenId(1, 1, 0), GenId(2, 2, 0)), (GenId(1, 1, 0), GenId(1, 1, 0))]:
    print(f"<{pair[0].text()}, {pair[1].text()}> =", form(p, *pair))
print()

# every symbol is an honest gl_N matrix: E[i,j,r] sums e_ab over box a
# in row i and box b in row j, r columns to the right of a
g = GenId(1, 1, 1)
li, lj = p.lambdas[g.i - 1], p.lambdas[g.j - 1]
cols = range(max(1, 1 - g.r), min(li, lj - g.r) + 1)
expansion = {(before[g.i - 1] + c, before[g.j - 1] + c + g.r): 1 for c in cols}
print(f"{g.text()} expands to elementary matrices:", expansion)
