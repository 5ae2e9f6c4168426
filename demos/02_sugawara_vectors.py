"""Build the Segal-Sugawara vectors from the column determinant and
inspect the selected index pairs.

Run:  python3 demos/02_sugawara_vectors.py
"""

from sugawara import Pyramid, element_text, phi_table, selected_vectors
from sugawara.verify import annihilation_check

for lam in [(1, 1), (1, 2), (2, 3)]:
    p = Pyramid(lam)
    table = phi_table(p)
    print(f"pyramid {p}: {len(table.selected)} selected vectors (= N = {p.big_n})")
    chosen = set(table.selected)
    for (k, r), elem in sorted(table.entries.items()):
        tag = "*" if (k, r) in chosen else " "
        print(f"  {tag} phi[k={k},r={r}] = {element_text(elem)}")
    print()

# the defining property: every nonnegative mode kills a selected vector
p = Pyramid((2, 3))
report = annihilation_check(p, selected_vectors(p))
passing = sum(1 for c in report.cases if c["status"] == "pass")
print(f"annihilation on {p}: {passing}/{len(report.cases)} cases pass "
      f"-> report passed = {report.passed()}")
