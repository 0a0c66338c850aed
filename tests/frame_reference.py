"""The per-frame shifted Cholesky QR that corpus._orthonormalize is held to.

cholesky_qr(grid, vectors) orthonormalizes one frame [r, ...] with no
chunks and no stack: three passes, each forming the quadrature Gram matrix
G = h^d V V^H in one product, factoring G = L L^H (G + s I on the first
pass, s = 11 (N^d r + r (r + 1)) u tr G with u the unit roundoff) and
taking L^{-1} V as one product with the inverse factor.  Where a frame's
columns fit one chunk, the batched kernel runs the same operations on each
frame of its stack, so the two agree bit for bit.
"""

import numpy as np


def cholesky_qr(grid, vectors) -> np.ndarray:
    rows = np.array(vectors, dtype=complex).reshape(len(vectors), -1)
    rank = len(rows)
    shift = 11.0 * (grid.size * rank + rank * (rank + 1)) * np.finfo(float).eps / 2.0
    for step in range(3):
        gram = grid.cell_volume * (rows @ rows.conj().T)
        if step == 0:
            gram += shift * np.trace(gram).real * np.eye(rank)
        rows = np.linalg.inv(np.linalg.cholesky(gram)) @ rows
    return rows.reshape(np.shape(vectors))
