"""HHO spaces, local operators, global assembly and the block solve.

The local gradient reconstruction maps the cell/face unknowns of a cell to a
polynomial one degree above the face degree through a Neumann problem closed
by a cell-mean constraint; the face stabilization penalizes the projected
trace residual with an h_T^{-1} weight.  Per-cell matrices are scattered into
global sparse matrices by one triplet helper.  ``OptimalitySystem`` is the one
solve path of the package: it takes one or more fields over HHO spaces and a
grid of global blocks, slices off the Dirichlet DOFs, factors once, lifts the
fixed values into the right-hand side at each solve and checks the residual.
It serves the Poisson solve, the two- and three-field optimality systems of
the unconstrained schemes and the repeated state/adjoint solves of the
constrained ones.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import poly
from .poly import (CellBasis, FaceBasis, cell_quadrature, face_quadrature,
                   space_dimension)


class SolverError(Exception):
    """Linear solve failed; carries the achieved relative residual.

    The residual is infinite when the factorization itself failed.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class HhoSpace:
    """Degree-(cell, face) DOF layout over a mesh.

    ``cell_degree`` is either the face degree k (equal-order space) or k+1
    (mixed-order space).  With ``dirichlet`` set, boundary-face DOFs exist in
    the vector layout but are excluded from solves and fixed to the supplied
    boundary data (zero by default), realizing the zero-trace space.
    """

    def __init__(self, mesh, face_degree, cell_degree=None, dirichlet=False):
        if cell_degree is None:
            cell_degree = face_degree
        if cell_degree not in (face_degree, face_degree + 1):
            raise ValueError("cell_degree must be face_degree or face_degree + 1")
        self.mesh = mesh
        self.face_degree = int(face_degree)
        self.cell_degree = int(cell_degree)
        self.dirichlet = bool(dirichlet)
        self.cell_dim = space_dimension(self.cell_degree)
        self.recon_dim = space_dimension(self.face_degree + 1)
        self.face_dim = self.face_degree + 1
        self.n_cell_dofs = mesh.n_cells * self.cell_dim
        self.n_dofs = self.n_cell_dofs + mesh.n_faces * self.face_dim
        self._ops = None
        self._stiffness = None
        self._cell_mass = None
        self._recon_mass = None

        fd = self.face_dim
        self.cell_dof_start = np.arange(mesh.n_cells) * self.cell_dim
        self.face_dof_start = self.n_cell_dofs + np.arange(mesh.n_faces) * fd
        active = np.ones(self.n_dofs, dtype=bool)
        if self.dirichlet:
            for f in mesh.boundary_face_ids:
                s = self.face_dof_start[f]
                active[s:s + fd] = False
        self.active_mask = active
        self.active_dofs = np.nonzero(active)[0]
        self.fixed_dofs = np.nonzero(~active)[0]

    # -- layout helpers ----------------------------------------------------

    def cell_dofs(self, i):
        s = self.cell_dof_start[i]
        return np.arange(s, s + self.cell_dim)

    def face_dofs(self, f):
        s = self.face_dof_start[f]
        return np.arange(s, s + self.face_dim)

    def local_dofs(self, i):
        """Global DOF indices of cell i: cell block, then faces in loop order."""
        parts = [self.cell_dofs(i)]
        for fid, _ in self.mesh.cell_faces[i]:
            parts.append(self.face_dofs(fid))
        return np.concatenate(parts)

    def zero_vector(self):
        return HhoVector(self, np.zeros(self.n_dofs))

    # -- operators and assembled matrices (built lazily, cached) ------------

    def local_ops(self):
        if self._ops is None:
            cache = {}
            self._ops = [build_local_operators(self, i, _cache=cache)
                         for i in range(self.mesh.n_cells)]
        return self._ops

    def stiffness_matrix(self):
        """Global a_h matrix over all DOFs (boundary rows included)."""
        if self._stiffness is None:
            self._stiffness = scatter_blocks(
                (self.n_dofs, self.n_dofs),
                ((op.dofs, op.dofs, op.A) for op in self.local_ops()))
        return self._stiffness

    def cell_mass_matrix(self):
        """Block-diagonal mass matrix of the cell blocks."""
        if self._cell_mass is None:
            self._cell_mass = scatter_blocks(
                (self.n_dofs, self.n_dofs),
                ((self.cell_dofs(op.cell_id), self.cell_dofs(op.cell_id),
                  op.M_cell) for op in self.local_ops()))
        return self._cell_mass

    def recon_mass_matrix(self):
        """Matrix of (R v, R w) over all DOFs."""
        if self._recon_mass is None:
            self._recon_mass = scatter_blocks(
                (self.n_dofs, self.n_dofs),
                ((op.dofs, op.dofs, op.G.T @ op.M_recon @ op.G)
                 for op in self.local_ops()))
        return self._recon_mass

    def boundary_values(self, g):
        """Fixed-DOF values for Dirichlet data g (zeros when g is None)."""
        vals = np.zeros(self.n_dofs)
        if g is not None:
            ops = self.local_ops()
            done = set()
            for op in ops:
                for j, fid in enumerate(op.face_ids):
                    if fid in done or fid not in self.mesh.boundary_face_ids:
                        continue
                    done.add(fid)
                    vals[self.face_dofs(fid)] = op.project_face(j, g)
        return vals[self.fixed_dofs]


class HhoVector:
    """Coefficient container matching an HhoSpace layout."""

    def __init__(self, space, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (space.n_dofs,):
            raise ValueError("coefficient length does not match the space")
        self.space = space
        self.values = values

    def cell_block(self, i):
        return self.values[self.space.cell_dofs(i)]

    def face_block(self, f):
        return self.values[self.space.face_dofs(f)]

    def local_block(self, i):
        return self.values[self.space.local_dofs(i)]

    def copy(self):
        return HhoVector(self.space, self.values.copy())

    def __add__(self, other):
        return HhoVector(self.space, self.values + other.values)

    def __sub__(self, other):
        return HhoVector(self.space, self.values - other.values)


class LocalOperators:
    """Per-cell reconstruction, stabilization and stiffness matrices.

    Congruent cells (same relative polygon, face traversal and degrees) share
    all matrices through an internal kernel cache; only the centroid and the
    global DOF indices are cell-specific.
    """

    __slots__ = ("cell_id", "space", "centroid", "face_ids", "dofs", "_k")

    def __init__(self, cell_id, space, centroid, face_ids, dofs, kernels):
        self.cell_id = cell_id
        self.space = space
        self.centroid = centroid
        self.face_ids = face_ids
        self.dofs = dofs
        self._k = kernels

    # geometry / bases
    @property
    def h(self):
        return self._k["h"]

    @property
    def measure(self):
        return self._k["measure"]

    @property
    def n_faces(self):
        return len(self.face_ids)

    def cell_basis(self):
        return CellBasis(self.space.cell_degree, self.centroid, self.h,
                         transform=self._k["Ql"])

    def recon_basis(self):
        return CellBasis(self.space.face_degree + 1, self.centroid, self.h,
                         transform=self._k["Qr"])

    # quadrature in global coordinates
    @property
    def qweights(self):
        return self._k["qw"]

    def qpoints(self):
        return self._k["qp"] + self.centroid

    def face_qweights(self, j):
        return self._k["fqw"][j]

    def face_qpoints(self, j):
        return self._k["fqp"][j] + self.centroid

    # matrices (shared, translation invariant)
    @property
    def G(self):
        """Reconstruction matrix: local DOFs -> P_{k+1}(T) coefficients."""
        return self._k["G"]

    @property
    def A(self):
        """Local stiffness G^T K_{k+1} G + S_T."""
        return self._k["A"]

    @property
    def S_faces(self):
        """Per-face stabilization matrices S_F: local DOFs -> P_k(F) coeffs."""
        return self._k["S_faces"]

    @property
    def M_cell(self):
        return self._k["M_cell"]

    @property
    def M_recon(self):
        return self._k["M_recon"]

    @property
    def M_faces(self):
        return self._k["M_faces"]

    @property
    def K_cell(self):
        return self._k["K_cell"]

    @property
    def int_cell(self):
        """Vector of (phi_i, 1)_T over the cell basis."""
        return self._k["int_cell"]

    @property
    def cell_vals(self):
        """Cell basis values at the cell quadrature points."""
        return self._k["Vl"]

    @property
    def recon_vals(self):
        return self._k["Vr"]

    def face_cell_trace(self, j):
        """Cell basis values at face-j quadrature points."""
        return self._k["Vl_f"][j]

    def face_vals(self, j):
        """Face basis values at face-j quadrature points."""
        return self._k["Vf"][j]

    # local operations
    def project_cell(self, f):
        """L2-projection of f onto the cell polynomial space."""
        w, pts = self.qweights, self.qpoints()
        rhs = self.cell_vals.T @ (w * f(pts))
        return np.linalg.solve(self.M_cell, rhs)

    def project_face(self, j, f):
        w, pts = self.face_qweights(j), self.face_qpoints(j)
        rhs = self.face_vals(j).T @ (w * f(pts))
        return np.linalg.solve(self.M_faces[j], rhs)

    def reduce(self, f):
        """Local reduction: cell projection plus per-face projections."""
        parts = [self.project_cell(f)]
        parts += [self.project_face(j, f) for j in range(self.n_faces)]
        return np.concatenate(parts)

    def reconstruct(self, local_coeffs):
        """Coefficients of R_T applied to a local DOF block."""
        return self.G @ np.asarray(local_coeffs)

    def stabilization(self, local_coeffs):
        """Per-face residual polynomials S_F and the value S_T(v, v)."""
        v = np.asarray(local_coeffs)
        polys = [S @ v for S in self.S_faces]
        val = 0.0
        for j, p in enumerate(polys):
            val += p @ self.M_faces[j] @ p
        return polys, val / self.h

    def elliptic_project(self, f):
        """R_T of the local reduction of f: identity on P_{k+1}(T)."""
        return self.reconstruct(self.reduce(f))


def build_local_operators(space, cell_id, _cache=None):
    """Construct (or fetch from the congruence cache) a cell's operators."""
    mesh = space.mesh
    cell = mesh.cells[cell_id]
    face_ids = [fid for fid, _ in mesh.cell_faces[cell_id]]
    dofs = space.local_dofs(cell_id)

    key = None
    if _cache is not None:
        rel_poly = np.round(cell.polygon - cell.centroid, 12)
        face_rel = []
        for fid, sign in mesh.cell_faces[cell_id]:
            face = mesh.faces[fid]
            face_rel.append(np.round(face.endpoints - cell.centroid, 12))
            face_rel.append(np.array([[sign, 0.0]]))
        key = (space.cell_degree, space.face_degree,
               rel_poly.tobytes(), np.vstack(face_rel).tobytes())
        hit = _cache.get(key)
        if hit is not None:
            return LocalOperators(cell_id, space, cell.centroid, face_ids, dofs, hit)

    k = space.face_degree
    l = space.cell_degree
    r = k + 1
    h = cell.diameter
    exactness = 2 * (k + 2)

    quad = cell_quadrature(cell, max(exactness, 2 * l, 2 * r))
    cb = poly.make_cell_basis(cell, l, quadrature=quad)
    rb = poly.make_cell_basis(cell, r, quadrature=quad)

    w = quad.weights
    Vl = cb.eval(quad.points)
    Gl = cb.grad(quad.points)
    Vr = rb.eval(quad.points)
    Gr = rb.grad(quad.points)

    M_cell = Vl.T @ (w[:, None] * Vl)
    M_recon = Vr.T @ (w[:, None] * Vr)
    N_lr = Vl.T @ (w[:, None] * Vr)
    K_cell = np.einsum("nid,n,njd->ij", Gl, w, Gl)
    K_recon = np.einsum("nid,n,njd->ij", Gr, w, Gr)
    int_cell = w @ Vl
    int_recon = w @ Vr

    n_faces = len(face_ids)
    dim_l, dim_r, dim_f = cb.dimension, rb.dimension, k + 1
    n_loc = dim_l + n_faces * dim_f

    # RHS of the reconstruction problem: (grad v_T, grad q)_T
    #   + sum_F (v_F - v_T, grad q . n)_F for q in the recon basis.
    rhs = np.zeros((dim_r, n_loc))
    rhs[:, :dim_l] = np.einsum("nid,n,njd->ji", Gl, w, Gr)

    fqw, fqp, Vf, Vl_f, Vr_f, M_faces = [], [], [], [], [], []
    for j, (fid, sign) in enumerate(mesh.cell_faces[cell_id]):
        face = mesh.faces[fid]
        fb = FaceBasis(k, face.endpoints[0], face.endpoints[1])
        fq = face_quadrature(face, max(exactness, 2 * r))
        valf = fb.eval(fq.points)
        vall = cb.eval(fq.points)
        valr = rb.eval(fq.points)
        gradr = rb.grad(fq.points)
        normal = sign * face.normal
        dn = gradr @ normal
        fqw.append(fq.weights)
        fqp.append(fq.points - cell.centroid)
        Vf.append(valf)
        Vl_f.append(vall)
        Vr_f.append(valr)
        M_faces.append(valf.T @ (fq.weights[:, None] * valf))
        fslice = slice(dim_l + j * dim_f, dim_l + (j + 1) * dim_f)
        rhs[:, :dim_l] -= dn.T @ (fq.weights[:, None] * vall)
        rhs[:, fslice] += dn.T @ (fq.weights[:, None] * valf)

    # Solve on the mean-free complement, then fix the constant so that
    # (R v, 1)_T = (v_T, 1)_T.  Basis function 0 is constant in both modes,
    # so K_recon has exactly the first row/column zero.
    G = np.zeros((dim_r, n_loc))
    G[1:, :] = np.linalg.solve(K_recon[1:, 1:], rhs[1:, :])
    mean_rhs = np.zeros(n_loc)
    mean_rhs[:dim_l] = int_cell
    G[0, :] = (mean_rhs - int_recon[1:] @ G[1:, :]) / int_recon[0]

    # Stabilization S_F = Pi_F(v_T|_F - v_F + ((I - Pi_T^l) R v)|_F).
    P_lr = np.linalg.solve(M_cell, N_lr)          # Pi_T^l on recon coefficients
    E_cell = np.zeros((dim_l, n_loc))
    E_cell[:, :dim_l] = np.eye(dim_l)
    S_faces = []
    A_stab = np.zeros((n_loc, n_loc))
    for j in range(n_faces):
        wts = fqw[j][:, None]
        proj = np.linalg.solve(M_faces[j], Vf[j].T)
        trace_ops = Vl_f[j] @ E_cell + (Vr_f[j] - Vl_f[j] @ P_lr) @ G
        S = proj @ (wts * trace_ops)
        fslice = slice(dim_l + j * dim_f, dim_l + (j + 1) * dim_f)
        S[:, fslice] -= np.eye(dim_f)
        S_faces.append(S)
        A_stab += S.T @ M_faces[j] @ S
    A = G.T @ K_recon @ G + A_stab / h
    A = 0.5 * (A + A.T)

    kernels = {
        "h": h, "measure": cell.measure,
        "Ql": cb.transform, "Qr": rb.transform,
        "qw": w, "qp": quad.points - cell.centroid,
        "Vl": Vl, "Vr": Vr,
        "M_cell": M_cell, "M_recon": M_recon, "K_cell": K_cell,
        "int_cell": int_cell,
        "G": G, "A": A, "S_faces": S_faces, "M_faces": M_faces,
        "fqw": fqw, "fqp": fqp, "Vf": Vf, "Vl_f": Vl_f,
    }
    if _cache is not None:
        _cache[key] = kernels
    return LocalOperators(cell_id, space, cell.centroid, face_ids, dofs, kernels)


# ---------------------------------------------------------------------------
# Projections and reduction over the whole mesh
# ---------------------------------------------------------------------------

def reduce_function(space, f, include_boundary=False):
    """Global reduction of f: cellwise and facewise L2 projections.

    With a Dirichlet space the boundary blocks are zeroed (the interpolant
    lands in the zero-trace space) unless ``include_boundary`` asks for the
    faithful trace projections, which error measurement against solutions
    carrying lifted boundary data needs.
    """
    vec = np.zeros(space.n_dofs)
    mesh = space.mesh
    done = set()
    for op in space.local_ops():
        vec[space.cell_dofs(op.cell_id)] = op.project_cell(f)
        for j, fid in enumerate(op.face_ids):
            if fid in done:
                continue
            done.add(fid)
            if (space.dirichlet and not include_boundary
                    and fid in mesh.boundary_face_ids):
                continue
            vec[space.face_dofs(fid)] = op.project_face(j, f)
    return HhoVector(space, vec)


def reconstruct_all(space, vec):
    """Reconstruction coefficients R v on every cell, (n_cells, recon_dim)."""
    out = np.empty((space.mesh.n_cells, space.recon_dim))
    for op in space.local_ops():
        out[op.cell_id] = op.G @ vec.local_block(op.cell_id)
    return out


def h1h_seminorm_sq(space, vec):
    """Square of the discrete H1-like norm sum_T(|grad v_T|^2 + h_T^{-1}|v_T - v_F|^2)."""
    total = 0.0
    for op in space.local_ops():
        c = vec.cell_block(op.cell_id)
        total += c @ op.K_cell @ c
        jump = 0.0
        for j, fid in enumerate(op.face_ids):
            d = op.face_cell_trace(j) @ c - op.face_vals(j) @ vec.face_block(fid)
            jump += op.face_qweights(j) @ d ** 2
        total += jump / op.h
    return float(total)


# ---------------------------------------------------------------------------
# Loads and global assembly
# ---------------------------------------------------------------------------

def cell_load_vector(space, f):
    """Load tested against cell polynomials: (f, w_T)."""
    vec = np.zeros(space.n_dofs)
    for op in space.local_ops():
        fv = f(op.qpoints())
        vec[space.cell_dofs(op.cell_id)] = op.cell_vals.T @ (op.qweights * fv)
    return vec


def recon_load_vector(space, f):
    """Load tested against reconstructions: (f, R w)."""
    vec = np.zeros(space.n_dofs)
    for op in space.local_ops():
        fv = f(op.qpoints())
        vec[op.dofs] += op.G.T @ (op.recon_vals.T @ (op.qweights * fv))
    return vec


def scatter_blocks(shape, triplets):
    """CSR matrix summing per-cell ``(row_dofs, col_dofs, block)`` triplets."""
    rows, cols, vals = [], [], []
    for r, c, block in triplets:
        rows.append(np.repeat(r, len(c)))
        cols.append(np.tile(c, len(r)))
        vals.append(block.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape).tocsr()


def write_coo(matrix, path):
    """Dump a sparse matrix as one `row col value` triplet per line, 0-based."""
    coo = sp.coo_matrix(matrix)
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")


class OptimalitySystem:
    """Block system over HHO fields, factored once and solved many times.

    ``spaces`` lists the fields; ``blocks`` is a square grid of full-size
    sparse matrices (None for a zero block), block (i, j) acting on field j in
    the equations tested against field i.  The rows and columns of fixed
    (Dirichlet) DOFs are sliced off before the single factorization; at each
    solve the fixed columns times the given fixed values move into the
    right-hand side (the lift), and every solve is checked against
    ``||K x - b|| <= 1e-10 ||b||``.
    """

    RESIDUAL_TOL = 1e-10

    def __init__(self, spaces, blocks):
        self.spaces = list(spaces)
        act = [s.active_dofs for s in self.spaces]
        fix = [s.fixed_dofs for s in self.spaces]
        self._lift = [[None if b is None else b[act[i]][:, fix[j]]
                       for j, b in enumerate(row)]
                      for i, row in enumerate(blocks)]
        grid = [[None if b is None else b[act[i]][:, act[j]]
                 for j, b in enumerate(row)] for i, row in enumerate(blocks)]
        # bmat copies even a lone block through COO arrays, and sliced blocks
        # kept alive through the factorization add to its peak; each raised
        # the peak RSS of the one-field wc2 solve at 32 x 32 by 1-3 MB
        self.matrix = (grid[0][0].tocsc() if len(grid) == 1
                       else sp.bmat(grid, format="csc"))
        del grid
        self._split = np.cumsum([len(a) for a in act])[:-1]
        self.residuals = None
        try:
            self._lu = spla.splu(self.matrix)
        except RuntimeError as exc:  # exactly singular
            raise SolverError(f"factorization failed: {exc}",
                              residual=np.inf) from None

    def solve(self, loads, fixed=None):
        """Full-length solution vectors, one per field.

        ``loads`` holds one full-length load vector per field and ``fixed``
        the values of each field's fixed DOFs (None, or a None entry, for
        zero).  Sets ``residuals`` to each field's residual relative to the
        whole right-hand side; raises SolverError above the tolerance.
        """
        fixed = fixed or [None] * len(self.spaces)
        rhs = []
        for space, load, lift in zip(self.spaces, loads, self._lift):
            b = load[space.active_dofs]
            for block, g in zip(lift, fixed):
                if block is not None and g is not None:
                    b = b - block @ g
            rhs.append(b)
        b = np.concatenate(rhs)
        x = self._lu.solve(b)
        r = self.matrix @ x - b
        scale = np.linalg.norm(b)
        unit = scale if scale > 0 else 1.0  # with b = 0 only x = 0 passes
        self.residuals = [float(np.linalg.norm(part) / unit)
                          for part in np.split(r, self._split)]
        res = np.linalg.norm(r)
        if not res <= self.RESIDUAL_TOL * scale:
            raise SolverError(f"linear solve residual {res / unit:.3e} exceeds "
                              f"{self.RESIDUAL_TOL:.0e}", residual=res / unit)
        out = []
        for space, part, g in zip(self.spaces, np.split(x, self._split), fixed):
            vals = np.zeros(space.n_dofs)
            vals[space.active_dofs] = part
            if g is not None:
                vals[space.fixed_dofs] = g
            out.append(HhoVector(space, vals))
        return out


def solve_poisson(space, f, boundary_data=None):
    """Solve a_h(y, w) = (f, w_T) on a Dirichlet space."""
    if not space.dirichlet:
        raise ValueError("solve_poisson requires a Dirichlet space")
    system = OptimalitySystem([space], [[space.stiffness_matrix()]])
    (y,) = system.solve([cell_load_vector(space, f)],
                        [space.boundary_values(boundary_data)])
    return y
