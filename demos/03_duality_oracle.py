"""Multisegment duality two ways: the general formula vs closed form.

The general formula runs the Moeglin-Waldspurger algorithm: it builds the
dual multisegment segment by segment and reads off its rank tuple.  By
the Knight-Zelevinsky theorem that rank tuple minimizes a grid sum over
monotone maps.  For near-simple multisegments (segments of length at most
2) the minimum collapses to three terms, which is what the support
computation uses; the two are checked against each other, and one entry
against a plain enumeration of the maps.
"""

from lindeg import (
    Multisegment,
    dual_rank_tuple,
    dual_rank_tuple_general,
    kz_rank_general,
    monotone_maps,
    next_neighbor_rank,
    path_to_multisegment,
    ptuples,
)

# Monotone maps from a 2x3 grid into a 2-element chain.
maps = list(monotone_maps(2, 3, 0, 1))
print("monotone 2x3 -> {0,1}:", len(maps), "maps, e.g.", maps[0], maps[-1])

# Both formulas on the multisegment of a path.
n, x = 4, (1, 0, 1)
m = path_to_multisegment(n, x)
print(f"\npath {x}: multisegment {m}")
print("closed form:", dual_rank_tuple(n, x).off_diagonal())
print("general:    ", dual_rank_tuple_general(m).off_diagonal())

# The general formula also handles longer segments.
m2 = Multisegment(3, {(1, 3): 1, (2, 2): 1})
print(f"\ngeneral multisegment {m2}:")
dual2 = dual_rank_tuple_general(m2)
print("general:", dual2.off_diagonal(),
      "diagonal", tuple(dual2[(i, i)] for i in range(1, 4)))
print("dual multisegment:", dual2.to_multisegment())

# Entry (2, 3) by listing every monotone map [1, 2] x [3, 3] -> [2, 3].
i, j = 2, 3
sums = [sum(m2.multiplicity(nu[k - 1][0] + k - i, nu[k - 1][0])
            for k in range(1, i + 1))
        for nu in monotone_maps(i, 1, i, j)]
print(f"entry ({i}, {j}): min of {sums} = {min(sums)};",
      "Moeglin-Waldspurger:", kz_rank_general(m2, i, j))

# The next-neighbour entries decide Motzkin membership on their own:
# a parameter tuple is a path exactly when all of them are >= n.
print("\nmembership by next-neighbour entries, n=4:")
for y in ptuples(4):
    entries = tuple(next_neighbor_rank(4, y, i) for i in range(1, 4))
    tag = "path" if min(entries) >= 4 else "----"
    print(f"  {y}  {entries}  {tag}")
