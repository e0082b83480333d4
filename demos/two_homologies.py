#!/usr/bin/env python3
"""The two homologies of a complex and the comparison theorem.

Every complex in this package carries two homologies:

  * the chain homology of its cell basis (boundary matrices + Smith forms);
  * the singular homology of its finite face-order space, computed as
    simplicial homology of the order complex.

The comparison theorem says they agree whenever the complex is augmentable
and every cell closure has point homology.  The two bundled examples show
both hypotheses failing, each with a homology mismatch to match.

    python demos/two_homologies.py
"""

from pathlib import Path

from lefhom import (
    QQ,
    check_corollary,
    check_theorem,
    excision_check,
    finite_space_homology,
    lefschetz_homology,
    long_exact_sequence,
    order_complex,
    parse_lef,
    relative_homology,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def show(name: str, X):
    print("-" * 70)
    print(f"{name}: {X}")
    top = X.top_dim
    lef = lefschetz_homology(X)
    sing = finite_space_homology(X)
    for n in range(top + 1):
        print(f"  H_{n}: chain {lef.describe(n):10s} space {sing.describe(n)}")
    report = check_theorem(X)
    print(f"  augmentable: {report.augmentable}")
    print(f"  local condition fails at: {list(report.failing_cells) or 'nowhere'}")
    print(f"  hypothesis: {report.hypothesis_holds}, "
          f"conclusion: {report.conclusion_holds}, "
          f"consistent: {report.consistent_with_theorem}")
    return X


star = show("four-leaf star", parse_lef((DATA / "star4.lef").read_text()))
twisted = show("twisted loop", parse_lef((DATA / "twisted_loop.lef").read_text()))



def edges(X):
    """The 1-simplices of X's order complex as pairs of cell ids: an order
    complex cell's id lists the ranks of its chain's cells in X.cells."""
    return sorted(tuple(X.cells[int(r)].id for r in x.split("_"))
                  for x in order_complex(X).cells_of_dim(1))


print("-" * 70)
print("The star's order complex is a cone (hence the space is acyclic):")
print("  maximal simplices:", edges(star))

print()
print("The twisted loop's order complex is a circle, which is where the")
print("space picks up the H_1 that the chain side cannot see:")
print("  maximal simplices:", edges(twisted))

print("-" * 70)
print("Relative homology and the excision cross-check, on (star, leaves):")
leaves = {"a", "b", "c", "d"}
rel = relative_homology(star, leaves)
print("  H(star, leaves):", rel)
print("  two-path excision check agrees:", excision_check(star, leaves))

print()
print("The long exact sequence of the same pair over Q:")
report = long_exact_sequence(star, leaves, QQ)
print("  " + " -> ".join(label for label, _ in report.nodes))
print("  " + " -> ".join(str(d) for _, d in report.nodes))
print("  exact:", report.exact)

print("-" * 70)
print("Closed-subcomplex sweep (both directions of the equivalence):")
for name, X in (("star", star), ("twisted loop", twisted)):
    cor = check_corollary(X)
    print(f"  {name}: local condition {cor.local_condition_holds}, "
          f"all {cor.closed_sets_checked} closed subcomplexes match: "
          f"{cor.all_closed_match}, directions agree: {cor.directions_agree}")
