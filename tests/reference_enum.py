"""Reference enumerator of all k-subspaces, for tests that compare against it.

The package lists only what it needs (`search.meeting_subspaces`, and the
lines of F_q^m through `linalg.projective_points`); this lists everything,
by the definition of canonical order in :mod:`scidkit.search`.
"""

from itertools import combinations, product

from scidkit.linalg import Subspace


def iter_subspaces(d, k, field):
    """Yield every k-subspace of F_q^d once, in canonical order.

    Canonical order: pivot-column combinations lexicographically, then free
    cells (row-major) as base-q digits with the first cell most significant.
    """
    for pivots in combinations(range(d), k):
        cells = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, d) if c not in pivots]
        for values in product(range(field.order), repeat=len(cells)):
            rows = [[int(c == p) for c in range(d)] for p in pivots]
            for (r, c), x in zip(cells, values):
                rows[r][c] = x
            yield Subspace(field, d, tuple(map(tuple, rows)))
