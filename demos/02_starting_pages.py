"""Building the starting pages of the five spectral sequences.

Every class is a monomial u^a u1^b alpha^c with stem -2a + c and
filtration c.  The integral C2 page carries Witt towers on its bottom
edge and 2-torsion alpha-towers above; smashing with the Moore spectrum
reduces everything mod 2 and frees the u-power parity; passing to C6
keeps the weight-0 monomials (u1-period 3); smashing with Y takes the
cokernel of eta-multiplication.  Each page is built directly; the script
checks the C6 page against the weight-0 summands of the C2 page, and the
Y page against the eta-cokernel.
"""

from hfpss.e2 import build_e2
from hfpss.monomials import Monomial
from hfpss.targets import Target, Window

window = Window(0, 12, filt_max=8, N=6)

for target in Target:
    page = build_e2(target, window)
    print(f"{target.value:6s} E2 at (4,0): "
          f"{' + '.join(t.render() for t in page.towers.get((4, 0), ())) or '0'}")

print("\nWeight filtering: the C6 page inside the C2 page")
c2 = build_e2(Target.C2, window)
weight0 = {k: kept for k, m in c2.modules.items()
           if (kept := tuple(s for s in m.summands if s.mono.weight == 0))}
direct = build_e2(Target.C6, window)
assert weight0 == {k: m.summands for k, m in direct.modules.items()}
print("  weight-0 summands of the C2 page == build_e2(C6):", True)
print(f"  u1 u^-4 kept (weight {Monomial(-4, 1, 0).weight}),",
      f"u^-2 u1 dropped (weight {Monomial(-2, 1, 0).weight})")

print("\nEta = alpha u1 sends u1^b at (stem, filt) to u1^(b+1) at (stem+1, filt+1),")
print("injectively on the mod-2 C6 page; the slots it misses are the")
print("starting page of the smash-with-Y sequence, cell by trusted cell:")
eta_window = Window(0, 12, N=6)
v0, y = build_e2(Target.C6_V0, eta_window), build_e2(Target.C6_Y, eta_window)


def u1s(page, stem, filt):
    """The u1-exponents at (stem, filt), a trusted cell or one below and left of it."""
    col = filt >= 0 and page.rows[filt][stem - eta_window.stem_range.start]
    return col.u1s if col else ()


injective, counts = True, {}
for stem in range(eta_window.stem_lo, eta_window.stem_hi + 1):
    for filt in range(eta_window.filt_max + 1):
        src, tgt = u1s(v0, stem - 1, filt - 1), u1s(v0, stem, filt)
        injective &= all(b + 1 in tgt for b in src if b + 1 < eta_window.n_u1)
        counts[stem, filt] = (sum(b - 1 not in src for b in tgt), len(u1s(y, stem, filt)))
print(f"  injective: {injective}; cokernel slots == Y page slots on all "
      f"{len(counts)} trusted cells: {all(c == n for c, n in counts.values())}")
print("  the first cells above filtration 0 with a cokernel slot:")
for key in sorted(k for k, (c, _) in counts.items() if c and k[1] > 0)[:5]:
    print(f"    {key}: {counts[key][0]}")
