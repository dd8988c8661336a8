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

The blocks are written in CSR order directly, as array operations
with no triplets to sort or merge.  A boundary row of the vector
Laplacian is the identity, and an interior row is the 3x3 stencil of
its node (the four element matrices around it) restricted to interior
columns; each stencil position adds equal values, so its bits are
those of summing the element matrices.  Row e of B holds the interior
corners of element e in node order, and row e of C the row of element
e in its macroelement's block, in column order.  The eliminated
couplings are subtracted from f and g with ``ufunc.at``, which adds in
sequence, running in element order over the elements that touch the
boundary (no other element has any): floating-point sums depend on
their order, and this one keeps f and g bitwise reproducible, equal
to an element-by-element loop.
"""

import json
import os

import numpy as np

from .sparse import CsrMatrix, SaddleSystem, _check_count, _is_integer

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
        if not _is_integer(q) or q < 2 or q % 2:
            raise ValueError(f"q must be an even integer >= 2 (macroelements need 2x2 tiles), got {q!r}")
        self.q = int(q)
        self.stab_param = float(stab_param)
        if not 0.0 <= self.stab_param < np.inf:
            raise ValueError(f"stab_param must be finite and >= 0, got {self.stab_param}")
        self.pin_pressure = bool(pin_pressure)


def _velocity(x, y):
    # products, not numpy's power loop: its AVX-512 path rounds the last
    # bit of some y**3 and x**4 differently from its other SIMD targets
    return 20.0 * x * (y * y * y), 5.0 * ((x * x) * (x * x)) - 5.0 * ((y * y) * (y * y))


def stokes_velocity_interpolant(q):
    """Nodal interpolant of the exact velocity, length 2 (q+1)^2."""
    coords = np.linspace(-1.0, 1.0, q + 1)
    X, Y = (a.ravel() for a in np.meshgrid(coords, coords, indexing="xy"))
    return np.concatenate(_velocity(X, Y))


def generate_stokes_q1p0(cfg):
    """Assemble the stabilized Q1-P0 Stokes saddle point system."""
    q = cfg.q
    h = 2.0 / q
    nv = (q + 1) ** 2
    n = 2 * nv
    # pinning drops the last pressure unknown with its row of B, row
    # and column of C
    m = q * q - 1 if cfg.pin_pressure else q * q

    # node j * (q+1) + i sits at (x_i, y_j); element ey * q + ex has its
    # SW corner at node ey * (q+1) + ex and corners SW, SE, NE, NW
    ey, ex = np.divmod(np.arange(q * q), q)
    nodes = (ey * (q + 1) + ex)[:, None] + np.array([0, 1, q + 2, q + 1])
    j, i = np.divmod(np.arange(nv), q + 1)
    on_boundary = (i == 0) | (i == q) | (j == 0) | (j == q)
    fixed = on_boundary[nodes]
    bnd = np.flatnonzero(on_boundary)
    both = np.concatenate([bnd, nv + bnd])  # boundary rows of both components
    coords = np.linspace(-1.0, 1.0, q + 1)
    u = np.zeros(n)  # the velocity data, only read at boundary nodes
    u[both] = np.concatenate(_velocity(coords[i[bnd]], coords[j[bnd]]))

    # vector Laplacian: boundary rows are the identity, an interior row
    # the 3x3 stencil of its node restricted to interior columns, and
    # the y block the x block shifted by nv.  A stencil position adds
    # the equal contributions of the elements around the node left to
    # right, as summing the element matrices in element order does
    d, e, c = _K_LOC[0, 0], _K_LOC[0, 1], _K_LOC[0, 2]
    stencil = np.array([c, e + e, c, e + e, d + d + d + d, e + e, c, e + e, c])
    interior = np.tile(~on_boundary, 2)
    cols = np.arange(n)[:, None] + (np.arange(-1, 2)[:, None] * (q + 1) + np.arange(-1, 2)).ravel()
    # an interior row's neighbours lie in its own block; a boundary row
    # keeps only its diagonal, whatever its other (clipped) columns read
    keep = interior[:, None] & np.take(interior, cols, mode="clip")
    keep[~interior, 4] = True
    A = CsrMatrix._from_rows(n, cols, np.where(interior[:, None], stencil, 1.0), keep)

    # SW, SE, NW, NE: corners in increasing node order, and the elements
    # of a macroelement in increasing element order
    increasing = [0, 1, 3, 2]

    # divergence: row e holds the interior corners of element e, x
    # columns then y columns
    corners = nodes[:m, increasing]
    free = ~fixed[:m, increasing]
    signs = np.concatenate([_SX[increasing], _SY[increasing]]) * h / 2.0
    B = CsrMatrix._from_rows(n, np.hstack([corners, nv + corners]), np.broadcast_to(signs, (m, 8)),
                             np.hstack([free, free]))

    # stabilization, one 4-cycle per 2x2 macroelement of elements: row
    # e is the row of element e in its macroelement's block, without
    # exact zeros
    ey, ex = ey[:m], ex[:m]
    cols = ((ey - ey % 2) * q + ex - ex % 2)[:, None] + np.array([0, 1, q, q + 1])
    vals = (cfg.stab_param * h * h / 4.0 * _C_LOC[np.ix_(increasing, increasing)])[2 * (ey % 2) + ex % 2]
    C = CsrMatrix._from_rows(m, cols, vals, (vals != 0.0) & (cols < m))

    # eliminated couplings, subtracted in element order over the
    # elements that touch the boundary (no other has any): an interior
    # corner a and a boundary corner b of one element move k_ab u_b
    # from A to f.  The boundary corners of the divergence stay in g,
    # which preserves the consistency of the constraint (and hence
    # convergence under refinement) after the columns are cleared
    ring = np.flatnonzero(fixed.any(axis=1))
    ring_nodes, ring_fixed = nodes[ring], fixed[ring]
    r, a, b = np.nonzero(~ring_fixed[:, :, None] & ring_fixed[:, None, :])
    ia, ib, k = ring_nodes[r, a], ring_nodes[r, b], _K_LOC[a, b]
    f = np.zeros(n)
    np.subtract.at(f, np.concatenate([ia, nv + ia]), np.concatenate([k * u[ib], k * u[nv + ib]]))
    f[both] = u[both]
    r, s = np.nonzero(ring_fixed)
    corner = ring_nodes[r, s]
    g = np.zeros(q * q)
    np.subtract.at(g, ring[r], _SX[s] * h / 2.0 * u[corner] + _SY[s] * h / 2.0 * u[nv + corner])
    return SaddleSystem(A, B, C, f, g[:m])


def generate_random_saddle(n, m, density=0.3, seed=0):
    """Random saddle system with guaranteed block properties.

    A = W W^T + n I for a sparse random W (positive definite), B has a
    positive diagonal in its left m x m block (full row rank), and
    C = V V^T with rank floor(m/2) (genuinely semidefinite).  Fixed
    seeds give bitwise identical systems under every BLAS kernel: the
    Gram products are einsum sums, no BLAS call, and exactly symmetric.
    n and m must be integers (not bools) with 0 <= m <= n.
    """
    # only integers are compared; _check_count names any other n or m
    if _is_integer(n) and _is_integer(m) and not 0 <= m <= n:
        raise ValueError(f"0 <= m <= n is required, got n={n}, m={m}")
    _check_count("n", n, 0)
    _check_count("m", m, 0)
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
    is mirrored, and an entry above the diagonal is refused.  A position
    given twice is refused, not summed.  A size line with a negative
    number, or a non-square one in a symmetric file, is refused as it
    is read.
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
    if min(nrows, ncols, nnz) < 0:
        raise MatrixMarketError(f"{path}:{idx + 1}: negative number in size line")
    if kind == "symmetric" and nrows != ncols:
        raise MatrixMarketError(f"{path}:{idx + 1}: symmetric matrix of size {nrows}x{ncols} is not square")
    rows, cols, vals = [], [], []
    first_line = {}  # the 1-based line of each position read
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
        first = first_line.setdefault((r, c), ln + 1)
        if first != ln + 1:
            raise MatrixMarketError(f"{path}:{ln + 1}: entry ({r}, {c}) repeats line {first}")
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(v)
        if kind == "symmetric" and r != c:
            rows.append(c - 1)
            cols.append(r - 1)
            vals.append(v)
    if len(first_line) != nnz:
        raise MatrixMarketError(f"{path}: size line promised {nnz} entries, found {len(first_line)}")
    return CsrMatrix.from_triplets(nrows, ncols, rows, cols, vals)


def write_vector(x, path):
    np.savetxt(path, np.asarray(x, dtype=np.float64), fmt="%.17g")


def read_vector(path):
    """Read one float per non-blank line; ``ValueError`` names the line of a bad one."""
    values = []
    with open(path, "r") as fh:
        for ln, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: not a number: {line.strip()!r}") from exc
    return np.array(values, dtype=np.float64)


# a bundle's files: the blocks A, B, C, then the right-hand sides f, g
_MATRIX_FILES, _VECTOR_FILES = ("A.mtx", "B.mtx", "C.mtx"), ("f.vec", "g.vec")


def save_bundle(sys, dirpath, meta=None):
    """Persist a SaddleSystem as A.mtx, B.mtx, C.mtx, f.vec, g.vec, meta.json."""
    os.makedirs(dirpath, exist_ok=True)
    for name, M in zip(_MATRIX_FILES, (sys.A, sys.B, sys.C)):
        write_matrix_market(M, os.path.join(dirpath, name))
    for name, v in zip(_VECTOR_FILES, (sys.f, sys.g)):
        write_vector(v, os.path.join(dirpath, name))
    record = {"n": sys.n, "m": sys.m}
    if meta:
        record.update(meta)
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(dirpath):
    """Load a SaddleSystem bundle; returns (system, meta_dict)."""
    for name in _MATRIX_FILES + _VECTOR_FILES:
        if not os.path.exists(os.path.join(dirpath, name)):
            raise FileNotFoundError(f"bundle {dirpath!r} is missing {name}")
    A, B, C = (read_matrix_market(os.path.join(dirpath, name)) for name in _MATRIX_FILES)
    f, g = (read_vector(os.path.join(dirpath, name)) for name in _VECTOR_FILES)
    meta_path = os.path.join(dirpath, "meta.json")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return SaddleSystem(A, B, C, f, g), meta
