"""An exact census of linear program lengths over Z/s.

The paper bounds linear programs by 2n - 1 assignment matrices, and
`linmod.decompose` always emits exactly 2n - 1 factors, identity
factors included.  Here a breadth-first search from the identity over
all s^(n^2) matrices (`census.matrix_bfs`) gives the exact fewest
factors of every n x n matrix, singular ones too.  One step applies
x_k := c.x for a row c, which replaces row k of the current matrix A by
c^T A.

The census finds 2n - 1 tight at n = 2 for every s below, but not over
Z/2 at n = 3, where no matrix needs more than 4 factors.  Counting only
its non-identity factors, `decompose` is at most 1 factor above the
optimum at n = 2 and at most 2 over Z/2 at n = 3.

`WIDE_CENSUS` goes one notch further, to Z/3 and Z/4 at n = 3 and Z/2
at n = 4: no matrix needs more than 4, 4 and 6 factors, again below
2n - 1, and `decompose` is at most 2, 2 and 3 factors above the optimum.
Its histograms take about a second and are tier-1 tests; checking
`decompose` on its 347363 matrices takes about half a minute, so
`check_wide_census` is left out of the pytest run, and running the file
runs it after the tests.  Needs numpy; runs without pytest too:

    PYTHONPATH=src python tests/test_linear_census.py
"""

import census
from insitu.linmod import MatrixMod, ModRing, decompose

# (s, n): matrices with exact length 0, 1, 2, ...; how many `decompose`
# gets down to that length once its identity factors are dropped; and its
# largest excess over the exact length
CENSUS = {
    (2, 2): ((1, 6, 8, 1), 15, 1),
    (3, 2): ((1, 16, 60, 4), 70, 1),
    (4, 2): ((1, 30, 200, 25), 209, 1),
    (5, 2): ((1, 48, 560, 16), 546, 1),
    (6, 2): ((1, 70, 1000, 225), 1017, 1),
    (8, 2): ((1, 126, 3528, 441), 3225, 1),
    (2, 3): ((1, 21, 135, 304, 51), 352, 2),
}
# the same, for the entries whose `decompose` check takes seconds
WIDE_CENSUS = {
    (3, 3): ((1, 78, 1920, 16444, 1240), 12257, 2),
    (2, 4): ((1, 60, 1254, 11772, 44142, 8304, 3), 26806, 3),
    (4, 3): ((1, 189, 10707, 204880, 46367), 140691, 2),
}


def identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def check_histograms(pins):
    for (s, n), (histogram, _, _) in pins.items():
        dist = census.matrix_bfs(s, n)
        assert dist.min() == 0, (s, n)  # every matrix is reached
        assert census.histogram(dist) == histogram, (s, n, census.histogram(dist))


def test_two_n_minus_one_is_tight_at_n2_but_not_over_z2_at_n3():
    for s in (2, 3, 4, 5, 6, 8):
        assert census.matrix_bfs(s, 2).max() == 2 * 2 - 1
    assert census.matrix_bfs(2, 3).max() == 4 < 2 * 3 - 1


def check_decompose(pins):
    for (s, n), (_, optimal, excess) in pins.items():
        ring = ModRing.of(s)
        ident = identity_rows(n)
        dist = census.matrix_bfs(s, n)
        hits, worst = 0, 0
        for entries, exact in zip(census.digits(range(dist.size), s, n * n), dist.tolist()):
            rows = tuple(map(tuple, entries.reshape(n, n).tolist()))
            p = decompose(MatrixMod.of(ring, rows))
            assert len(p) == 2 * n - 1, (s, n, rows)
            assert p.matrix().entries == rows, (s, n, rows)
            used = sum(f.coefficients != ident[f.row - 1] for f in p.factors)
            assert used >= exact, (s, n, rows, used, exact)
            hits += used == exact
            worst = max(worst, used - exact)
        assert (hits, worst) == (optimal, excess), (s, n, hits, worst)


def test_census_reaches_every_matrix_with_pinned_lengths():
    check_histograms(CENSUS)


def test_decompose_against_the_census():
    check_decompose(CENSUS)


def test_wide_census_histograms():
    check_histograms(WIDE_CENSUS)
    # no 3x3 matrix over Z/4 needs more than 4 factors, against 2n - 1 = 5
    assert census.matrix_bfs(4, 3).max() == 4 < 2 * 3 - 1


def check_wide_census():
    check_histograms(WIDE_CENSUS)
    check_decompose(WIDE_CENSUS)


if __name__ == "__main__":
    census.run(globals(), check_wide_census)
