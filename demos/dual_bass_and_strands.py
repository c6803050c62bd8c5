"""Dual Bass numbers and the linear strands of the dual resolution.

The shifted Matlis dual flips the hypercube through alpha -> 1-alpha and
transposes its maps, turning injective-resolution data (Bass numbers) into
projective-resolution data (dual Bass numbers).  At the zero face ideal the
dual Bass numbers are exactly the frame homology of the linear strands of
the Alexander dual's minimal free resolution; the script verifies the two
computations against each other.
"""

from lyub import (
    QQ,
    alexander_dual,
    build_hypercube,
    dual_bass_table,
    dual_complex,
    homology_dims,
    intersect_face_ideals,
    linearity_defect,
    mask_str,
    nonzero_cohomology_degrees,
    strand_frame,
    strand_homology,
)
from lyub.combinatorics import mask_of

ideal = intersect_face_ideals(
    5, [mask_of([0, 3]), mask_of([1, 4]), mask_of([0, 1, 2])]
)
dual = alexander_dual(ideal)
print("I =", ideal)
print("I^v =", dual)

for r in nonzero_cohomology_degrees(ideal, QQ):
    print(f"\ndual Bass numbers of H^{r}:")
    table = dual_bass_table(ideal, r, QQ)
    for alpha, pi in table.rows:
        cells = "  ".join(f"pi_{p}={v}" for p, v in enumerate(pi) if v)
        label = mask_str(alpha, 5) if alpha else "p_0"
        print(f"   {label:<15} {cells}")

    # route check at the zero face ideal: homology of the dual complex and
    # the frame of the r-strand of the dual resolution give the same numbers
    cube = build_hypercube(ideal, r, QQ)
    via_complex = homology_dims(dual_complex(cube))
    frame_h = strand_homology(dual, r, QQ)
    pi0 = [table.pi(0, p) for p in range(6)]
    print("   at p_0, three computations of pi_p:")
    print("     dual hypercube:", pi0)
    print("     dual complex:  ", via_complex)
    padded = [0] * r + frame_h + [0] * (6 - r - len(frame_h))
    print("     strand frames: ", padded[:6])
    assert via_complex == pi0
    assert all(padded[p] == pi0[p] for p in range(6))

print("\nstrand frames of I^v:")
for r in range(2, 6):
    frame = strand_frame(dual, r, QQ)
    if not frame.dims:
        continue
    print(f"   r = {r}: spaces {frame.dims}, homology {homology_dims(frame)}")
print("linearity defect of I^v:", linearity_defect(dual, QQ))
print("(a nonzero value in positive position is exactly a nontrivial table entry)")
