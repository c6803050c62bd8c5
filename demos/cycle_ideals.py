"""The minimal non-Cohen-Macaulay ideals of pure height two.

For each n, intersecting the face ideals (x_i, x_j) over the non-edges of
the n-cycle gives the unique minimal non-CM squarefree ideal of pure height
two.  This script computes their Lyubeznik tables by both routes, shows the
banded shape that emerges, and prints the rank-4 level map that is
responsible for the nontrivial entries when n = 5.
"""

from lyub import (
    QQ,
    build_hypercube,
    intersect_face_ideals,
    lyubeznik_table,
    lyubeznik_via_strands,
    main_complex,
    mask_str,
    rank,
)
from lyub.combinatorics import mask_of


def cycle_nonedge_ideal(n):
    comps = [
        mask_of([i - 1, j - 1])
        for i in range(1, n)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]
    return intersect_face_ideals(n, comps)


def show_table(table):
    for p in range(table.d + 1):
        cells = [
            str(table.entries[p][i]) if i >= p else "."
            for i in range(table.d + 1)
        ]
        print("   [", " ".join(cells), "]")


for n in range(4, 8):
    ideal = cycle_nonedge_ideal(n)
    print(f"\nn = {n}: I = ({', '.join(mask_str(g, n) for g in ideal.gens)})")
    hyper = lyubeznik_table(ideal, QQ)
    strands = lyubeznik_via_strands(ideal, QQ)
    assert hyper == strands, "the two routes must agree"
    print(f" Lyubeznik table (d = {hyper.d}), identical along both routes:")
    show_table(hyper)

# The n = 5 case in close-up: ten one-dimensional hypercube vertices in
# degree 2, and a single 5x5 level map of rank 4.
ideal = cycle_nonedge_ideal(5)
cube = build_hypercube(ideal, 2, QQ)
print("\nn = 5, r = 2 hypercube vertices:")
for alpha, d in sorted(cube.dims.items()):
    print(f"   {mask_str(alpha, 5):<10} dim {d}")
cx = main_complex(cube)
print("level map between the five-dimensional stages:")
for row in cx.maps[2].dense():
    print("  ", [str(x) for x in row])
print("rank:", rank(cx.maps[2]), "(one short of full, hence the two extra table entries)")
