"""A tour of the rank-K PSD geometry: factors, charts, and the closed-form mean.

Walks through the basic objects on small matrices you can check by eye:
the reduced Cholesky factor, anchoring a p x K frame, the log-coordinate
chart, geodesic distances, and the Karcher mean with its
geometric/arithmetic split.

Run:  python3 demos/geometry_tour.py
"""

import numpy as np

from psdk import (
    CholFactor,
    IndexSet,
    anchor,
    exp_factor,
    factorize,
    geodesic_distance,
    karcher_mean,
    log_factor,
    reduced_cholesky,
)

np.set_printoptions(precision=4, suppress=True)


def main():
    print("=== a rank-1 matrix and its factor ===")
    mat = np.array([[4.0, 2.0], [2.0, 1.0]])
    factor = factorize(mat, IndexSet((0,)))  # one anchor row: rank K = 1
    print("matrix:\n", mat)
    print("reduced Cholesky factor (anchored at row 0):\n", factor.entries)
    print("factor @ factor.T reproduces it:\n", factor.entries @ factor.entries.T)

    print("\n=== the anchor rows matter ===")
    # this matrix vanishes on row 0, so row 0 cannot anchor it ...
    mat = np.array([[0.0, 0.0], [0.0, 4.0]])
    try:
        reduced_cholesky(mat, IndexSet((0,)))
    except Exception as err:
        print("anchoring at row 0 fails:", err)
    # ... but row 1 works fine
    factor = reduced_cholesky(mat, IndexSet((1,)))
    print("anchored at row 1:\n", factor.entries)

    print("\n=== any frame of the matrix gives the same factor ===")
    rng = np.random.default_rng(0)
    frame = rng.normal(size=(5, 2))
    turn = np.array([[0.6, -0.8], [0.8, 0.6]])
    factor = anchor(frame, IndexSet.canonical(2))
    print("a 5 x 2 frame F, anchored at rows (0, 1):\n", factor.entries)
    print("F rotated by an orthogonal 2 x 2 anchors to the same factor, max diff:",
          np.max(np.abs(anchor(frame @ turn, IndexSet.canonical(2)).entries
                        - factor.entries)))

    print("\n=== the chart is a global isometry ===")
    coords = log_factor(factor)
    back = exp_factor(coords, factor.index_set)
    print("log coordinates (diagonal of the anchor block is logged):")
    print(coords)
    print("round-trip max error:", np.max(np.abs(back.matrix - factor.matrix)))

    print("\n=== closed-form Karcher mean ===")
    # the factors of diag(1,0) and diag(4,0) anchored at row 0: columns (1,0) and (2,0)
    a = CholFactor(np.array([[1.0], [0.0]]), IndexSet((0,)))
    b = CholFactor(np.array([[2.0], [0.0]]), IndexSet((0,)))
    mean = karcher_mean([a, b])
    print("mean factor of diag(1,0) and diag(4,0):\n", mean.entries)
    print("mean matrix:\n", mean.matrix)
    print("geometric on the anchored diagonal: sqrt(1*4) =", mean.matrix[0, 0])
    print("distance a<->b:", geodesic_distance(a, b))
    print("  the factors are diag sqrt(1) and sqrt(4), so this is "
          "|log 2 - log 1| =", np.log(2.0))
    print("distance a<->mean:", geodesic_distance(a, mean), "(the midpoint)")


if __name__ == "__main__":
    main()
