"""Test problem generation and Matrix Market persistence.

The main generator discretizes the lid-free Stokes flow

    -laplace(u) + grad(p) = 0,   div(u) = 0   on [-1, 1]^2

with stabilized Q1-P0 elements on a uniform q x q grid of squares,
Dirichlet velocity data everywhere on the boundary taken from the
interpolant of the smooth solenoidal field

    u = (20 x y^3, 5 x^4 - 5 y^4),   p = 60 x^2 y - 20 y^3 + const.

Boundary conditions are imposed symmetrically: boundary rows and
columns of the vector Laplacian are cleared to the identity, the
eliminated couplings move to the right-hand side, and the boundary
columns of the divergence matrix are cleared.  The velocity dimension
stays n = 2 (q+1)^2 and the pressure dimension m = q^2 (one pressure
unknown is pinned by default because the enclosed-flow operator has
the constant pressure in its null space).

Each assembly step runs over all elements at once as array operations.
The eliminated couplings are subtracted from f and g with ``ufunc.at``,
which adds in sequence, in element order: floating-point sums depend
on their order, and this one keeps f and g bitwise reproducible (equal
to the element-by-element loops the array assembly replaced).
"""

import json
import numbers
import os

import numpy as np

from .sparse import CsrMatrix, SaddleSystem

__all__ = [
    "StokesConfig",
    "generate_stokes_q1p0",
    "stokes_velocity_interpolant",
    "generate_random_saddle",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector",
    "write_vector",
    "save_bundle",
    "load_bundle",
    "MatrixMarketError",
]

# Q1 element stiffness of the scalar Laplacian on a square, corner
# order SW, SE, NE, NW (independent of the mesh width in 2-D)
_K_LOC = np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
) / 6.0

# signs of the element integrals of d(phi)/dx and d(phi)/dy, same corner order
_SX = np.array([-1.0, 1.0, 1.0, -1.0])
_SY = np.array([-1.0, -1.0, 1.0, 1.0])

# pressure-jump coupling of one 2x2 macroelement, elements ordered
# cyclically SW, SE, NE, NW (a 4-cycle graph Laplacian)
_C_LOC = np.array(
    [
        [2.0, -1.0, 0.0, -1.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [-1.0, 0.0, -1.0, 2.0],
    ]
)


class StokesConfig:
    """Grid and stabilization settings; ``stab_param`` >= 0 and finite keeps C PSD."""

    def __init__(self, q, stab_param=0.25, pin_pressure=True):
        # bool is an int subclass; numpy integers are Integral
        if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 2 or q % 2:
            raise ValueError(f"q must be an even integer >= 2 (macroelements need 2x2 tiles), got {q!r}")
        self.q = int(q)
        self.stab_param = float(stab_param)
        if not 0.0 <= self.stab_param < np.inf:
            raise ValueError(f"stab_param must be finite and >= 0, got {self.stab_param}")
        self.pin_pressure = bool(pin_pressure)


def stokes_velocity_interpolant(q):
    """Nodal interpolant of the exact velocity, length 2 (q+1)^2."""
    coords = np.linspace(-1.0, 1.0, q + 1)
    X, Y = (a.ravel() for a in np.meshgrid(coords, coords, indexing="xy"))
    return np.concatenate([20.0 * X * Y**3, 5.0 * X**4 - 5.0 * Y**4])


def generate_stokes_q1p0(cfg):
    """Assemble the stabilized Q1-P0 Stokes saddle point system."""
    q = cfg.q
    h = 2.0 / q
    nv = (q + 1) ** 2
    n = 2 * nv
    m = q * q

    # node j * (q+1) + i sits at (x_i, y_j); element ey * q + ex has its
    # SW corner at node ey * (q+1) + ex and corners SW, SE, NE, NW
    sw = (np.arange(q)[:, None] * (q + 1) + np.arange(q)).ravel()
    nodes = sw[:, None] + np.array([0, 1, q + 2, q + 1])
    j, i = np.divmod(np.arange(nv), q + 1)
    on_boundary = (i == 0) | (i == q) | (j == 0) | (j == q)
    bnd = np.flatnonzero(np.tile(on_boundary, 2))  # boundary rows of both components
    u = stokes_velocity_interpolant(q)  # only its boundary entries are read

    # vector Laplacian, corner pairs (a, b) of every element: interior
    # rows keep interior columns and move boundary columns to f
    pairs = np.broadcast_arrays(nodes[:, :, None], nodes[:, None, :], _K_LOC)
    ia, ib, k = (a.ravel() for a in pairs)
    keep = ~on_boundary[ia] & ~on_boundary[ib]
    elim = ~on_boundary[ia] & on_boundary[ib]
    a_rows = np.concatenate([ia[keep], nv + ia[keep], bnd])
    a_cols = np.concatenate([ib[keep], nv + ib[keep], bnd])
    a_vals = np.concatenate([k[keep], k[keep], np.ones(bnd.size)])
    f = np.zeros(n)
    ia, ib, k = ia[elim], ib[elim], k[elim]
    np.subtract.at(f, np.concatenate([ia, nv + ia]), np.concatenate([k * u[ib], k * u[nv + ib]]))
    f[bnd] = u[bnd]

    # divergence, corners of every element: interior corners give B
    # entries; the eliminated coupling of a boundary corner stays in g,
    # which preserves the consistency of the constraint (and hence
    # convergence under refinement) after the columns are cleared
    corner = nodes.ravel()
    elem = np.repeat(np.arange(m), 4)
    dx, dy = np.tile(_SX * h / 2.0, m), np.tile(_SY * h / 2.0, m)
    free = ~on_boundary[corner]
    b_rows = np.concatenate([elem[free], elem[free]])
    b_cols = np.concatenate([corner[free], nv + corner[free]])
    b_vals = np.concatenate([dx[free], dy[free]])
    g = np.zeros(m)
    fixed = ~free
    corner, dx, dy = corner[fixed], dx[fixed], dy[fixed]
    np.subtract.at(g, elem[fixed], dx * u[corner] + dy * u[nv + corner])

    # stabilization, one 4-cycle per 2x2 macroelement of elements
    # SW, SE, NE, NW
    tile_sw = (np.arange(0, q, 2)[:, None] * q + np.arange(0, q, 2)).ravel()
    tiles = tile_sw[:, None] + np.array([0, 1, q + 1, q])
    nz = _C_LOC != 0.0
    pairs = np.broadcast_arrays(tiles[:, :, None], tiles[:, None, :])
    c_rows, c_cols = (a[:, nz].ravel() for a in pairs)
    c_vals = np.tile(cfg.stab_param * h * h / 4.0 * _C_LOC[nz], tiles.shape[0])

    if cfg.pin_pressure:
        # drop the last pressure unknown with its row of B, row and column of C
        m -= 1
        kb = b_rows < m
        b_rows, b_cols, b_vals = b_rows[kb], b_cols[kb], b_vals[kb]
        kc = (c_rows < m) & (c_cols < m)
        c_rows, c_cols, c_vals = c_rows[kc], c_cols[kc], c_vals[kc]
        g = g[:m]

    A = CsrMatrix.from_triplets(n, n, a_rows, a_cols, a_vals)
    B = CsrMatrix.from_triplets(m, n, b_rows, b_cols, b_vals)
    C = CsrMatrix.from_triplets(m, m, c_rows, c_cols, c_vals)
    return SaddleSystem(A, B, C, f, g)


def generate_random_saddle(n, m, density=0.3, seed=0):
    """Random saddle system with guaranteed block properties.

    A = W W^T + n I for a sparse random W (positive definite), B has a
    positive diagonal in its left m x m block (full row rank), and
    C = V V^T with rank floor(m/2) (genuinely semidefinite).  Fixed
    seeds give bitwise identical systems under every BLAS kernel: the
    Gram products are einsum sums, no BLAS call, and exactly symmetric.
    """
    if not 0 <= m <= n:
        raise ValueError(f"0 <= m <= n is required, got n={n}, m={m}")
    if not 0.0 <= density <= 1.0:  # NaN fails too
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    Ad = np.einsum("ik,jk->ij", W, W) + n * np.eye(n)
    Bd = np.hstack([np.diag(rng.uniform(0.5, 1.5, size=m)),
                    rng.standard_normal((m, n - m)) * (rng.random((m, n - m)) < density)])
    V = rng.standard_normal((m, m // 2))
    Cd = np.einsum("ik,jk->ij", V, V)
    f = rng.standard_normal(n)
    g = rng.standard_normal(m)
    return SaddleSystem(
        CsrMatrix.from_dense(Ad),
        CsrMatrix.from_dense(Bd),
        CsrMatrix.from_dense(Cd),
        f,
        g,
    )


# -- Matrix Market and bundle I/O ------------------------------------------


class MatrixMarketError(ValueError):
    pass


def write_matrix_market(M, path):
    """Write a CsrMatrix in general coordinate format with 1-based indices.

    Values carry 17 significant digits, enough for an exact float64
    round trip.
    """
    rows, cols, vals = M.to_triplets()
    header = f"%%MatrixMarket matrix coordinate real general\n{M.nrows} {M.ncols} {rows.size}"
    # float64 holds every index up to 2**53 exactly
    np.savetxt(path, np.column_stack([rows + 1, cols + 1, vals]), fmt="%d %d %.17g",
               header=header, comments="")


def read_matrix_market(path):
    """Read a general or symmetric coordinate Matrix Market file into a CsrMatrix.

    A symmetric file stores the lower triangle; each off-diagonal entry
    is mirrored, and an entry above the diagonal is refused.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"{path}:1: malformed Matrix Market header")
    obj, fmt, field, kind = (tok.lower() for tok in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(f"{path}:1: unsupported format '{obj} {fmt}' (need matrix coordinate)")
    if field != "real":
        raise MatrixMarketError(f"{path}:1: unsupported field '{field}' (need real)")
    if kind not in ("general", "symmetric"):
        raise MatrixMarketError(f"{path}:1: unsupported symmetry '{kind}'")
    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError(f"{path}: missing size line")
    parts = lines[idx].split()
    if len(parts) != 3:
        raise MatrixMarketError(f"{path}:{idx + 1}: malformed size line")
    try:
        nrows, ncols, nnz = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise MatrixMarketError(f"{path}:{idx + 1}: malformed size line") from exc
    rows, cols, vals = [], [], []
    seen = 0
    for ln in range(idx + 1, len(lines)):
        text = lines[ln].strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"{path}:{ln + 1}: expected 'row col value'")
        try:
            r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MatrixMarketError(f"{path}:{ln + 1}: non-numeric entry") from exc
        if not (1 <= r <= nrows and 1 <= c <= ncols):
            raise MatrixMarketError(f"{path}:{ln + 1}: index ({r}, {c}) out of range")
        if kind == "symmetric" and c > r:
            raise MatrixMarketError(f"{path}:{ln + 1}: entry ({r}, {c}) above the diagonal "
                                    "of a symmetric file, which stores the lower triangle")
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(v)
        if kind == "symmetric" and r != c:
            rows.append(c - 1)
            cols.append(r - 1)
            vals.append(v)
        seen += 1
    if seen != nnz:
        raise MatrixMarketError(f"{path}: size line promised {nnz} entries, found {seen}")
    return CsrMatrix.from_triplets(nrows, ncols, rows, cols, vals)


def write_vector(x, path):
    np.savetxt(path, np.asarray(x, dtype=np.float64), fmt="%.17g")


def read_vector(path):
    with open(path, "r") as fh:
        return np.array([float(line) for line in fh if line.strip()], dtype=np.float64)


def save_bundle(sys, dirpath, meta=None):
    """Persist a SaddleSystem as A.mtx, B.mtx, C.mtx, f.vec, g.vec, meta.json."""
    os.makedirs(dirpath, exist_ok=True)
    write_matrix_market(sys.A, os.path.join(dirpath, "A.mtx"))
    write_matrix_market(sys.B, os.path.join(dirpath, "B.mtx"))
    write_matrix_market(sys.C, os.path.join(dirpath, "C.mtx"))
    write_vector(sys.f, os.path.join(dirpath, "f.vec"))
    write_vector(sys.g, os.path.join(dirpath, "g.vec"))
    record = {"n": sys.n, "m": sys.m}
    if meta:
        record.update(meta)
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(dirpath):
    """Load a SaddleSystem bundle; returns (system, meta_dict)."""
    needed = ["A.mtx", "B.mtx", "C.mtx", "f.vec", "g.vec"]
    for name in needed:
        if not os.path.exists(os.path.join(dirpath, name)):
            raise FileNotFoundError(f"bundle {dirpath!r} is missing {name}")
    A = read_matrix_market(os.path.join(dirpath, "A.mtx"))
    B = read_matrix_market(os.path.join(dirpath, "B.mtx"))
    C = read_matrix_market(os.path.join(dirpath, "C.mtx"))
    f = read_vector(os.path.join(dirpath, "f.vec"))
    g = read_vector(os.path.join(dirpath, "g.vec"))
    meta_path = os.path.join(dirpath, "meta.json")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return SaddleSystem(A, B, C, f, g), meta
