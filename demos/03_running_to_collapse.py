"""Driving a spectral sequence to its collapsed page and reading off groups.

The differentials are declarative data: finitely many values on a
transversal plus a linearity monoid.  The engine factors every basis
monomial through the transversal, reduces the value in the current page,
takes homology at every bidegree, and certifies collapse at E8.  The
stem-2 column of the mod-2 C2 tower then shows the famous 2-extension:
the filtration-0 and filtration-2 towers merge into W/4.
"""

from hfpss.engine import compute, default_window
from hfpss.monomials import Monomial
from hfpss.rules import rule_table
from hfpss.targets import Target

rules = rule_table(Target.C2_V0, 3)
print("d3 rule set of the mod-2 C2 tower:")
for g, v in sorted(rules.values.items()):
    print(f"  d3({g}) = {v}")
print(f"  linear over a, u1, u^{{+-{rules.u_modulus}}};"
      f" {len(rules.transversal)} transversal classes")

print("\nPropagation by factorization, e.g. d3(u) = u^4 * d3(u^-3):")
print(f"  d3(u) = {rules.value_on(Monomial(1, 0, 0))}")

res = compute(Target.C2_V0, default_window(Target.C2_V0))
print("\nCollapse certificates:")
for c in res.stack.certificates:
    print(f"  - {c}")

print("\nEinfty stem-2 towers (before extensions):")
for (stem, filt), towers in res.stack.einfty.towers.items():
    if stem == 2:
        print(f"  filtration {filt}: {' + '.join(t.render() for t in towers)}")

g = res.groups[2]
print(f"\npi_2 after the eta*alpha extension merge: {g.expr}")
print(f"  merged pair: {g.merged[0][0]} with {g.merged[0][1]} (one W/4 tower)")

print("\nAll sixteen homotopy groups:")
for stem in range(16):
    print(f"  pi_{stem:<2} = {res.groups[stem].expr}")
