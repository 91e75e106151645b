"""Distance kernels and reproducible random streams.

Everything downstream (losses, mining, retrieval) reduces to the two
pairwise-distance kernels shown here, so this is the place to convince
yourself of their conventions.
"""

import numpy as np

from crossmodal.core import (
    RngStream,
    cross_distances,
    euclidean_distance,
    pairwise_distances,
)

rng = RngStream(0)
x = rng.normal(size=(4, 3))

print("euclid, single pair:", euclidean_distance(x[0], x[1]))

# the matrix form agrees with the scalar form entry by entry
d = pairwise_distances(x)
print("\npairwise euclid:\n", np.round(d, 4))
assert abs(d[0, 1] - euclidean_distance(x[0], x[1])) < 1e-12
assert np.allclose(d, d.T) and not d.diagonal().any()

# rectangular blocks for query-vs-gallery scoring
q = rng.normal(size=(2, 3))
print("\ncross block (2 queries x 4 gallery):\n", np.round(cross_distances(q, x), 4))

# Streams are seeded explicitly and fork into independent children; the same
# path always replays the same draws, which is what makes training runs and
# the bundled benchmark bit-reproducible.
a = RngStream(7).child(1, 2).normal(size=3)
b = RngStream(7).child(1).child(2).normal(size=3)
print("\nchild(1, 2) == child(1).child(2):", np.array_equal(a, b))

epoch_draws = [RngStream(7).child(1, e).integers(0, 100, size=4) for e in range(3)]
print("per-epoch streams differ:", [d.tolist() for d in epoch_draws])
