"""HHO spaces, local operators, global assembly and the one sparse solve.

The local gradient reconstruction maps the cell/face unknowns of a cell to a
polynomial one degree above the face degree through a Neumann problem closed
by a cell-mean constraint; the face stabilization penalizes the projected
trace residual with an h_T^{-1} weight.  The local operators of a space are
its kernel groups, and the library applies them only group by group:
congruent cells share one kernel, and the distinct kernels are built group
by group (equal face count and quadrature size) with stacked products and
solves, from one monomial table per point set (cell nodes, face nodes).
The ``_build_kernels`` entry names (``G``, ``A``, ``S_faces``,
``M_cell``, ``Vl``, ``qw``, ``fqw`` ...) are the one vocabulary of the local
operators: ``HhoSpace.local_ops()`` lists, for inspection, one record per
cell that holds the same entries under the same names.  Every face shares
the basis, mass and projection of ``poly.reference_face_table``.  A
per-space ``NodeTable`` stacks the quadrature nodes of every cell, so loads,
projections, norms and errors evaluate a function once on all nodes.  Its
nodes are laid out class-major (kernel group, kernel row, cell), and it
applies each congruence class's basis and weight tables to all of the
class's cells in one broadcast product.
Per-cell matrices are scattered into global sparse matrices by one triplet
helper.  ``OptimalitySystem`` is the one solve path of the package: one
space and the local matrices, real or complex, of one system, given kernel
group by kernel group (``local_stiffness`` for the stiffness).  It
eliminates the cell unknowns once per distinct local block (static
condensation) and scatters the blocks K_FF - K_FT K_TT^{-1} K_TF straight
into the face Schur complement, which it factors once without pivoting in
a nested-dissection order, whose parts come from the Morton key of the
cell centroids; every solve is refined against the matrix assembled from
the same blocks and checked.  It solves the Poisson problem and the
complex uc1, uc2 and uc31 systems, and its plain ``lu_solve`` runs the
``reduced_hessian_cg`` of uc32, wc1 and wc2.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import poly
from .mesh import is_count, loop_groups
from .poly import space_dimension


class SolverError(Exception):
    """Linear solve failed; carries the residual (relative for a direct solve).

    It is infinite when the factorization itself failed.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class NonFiniteError(ValueError):
    """Dirichlet data, a mesh size or a measured error is NaN or infinite.

    A report never carries such a value as a result: the level fails instead.
    """


class HhoSpace:
    """Degree-(cell, face) DOF layout over a mesh.

    ``cell_degree`` is either the face degree k (equal-order space) or k+1
    (mixed-order space).  With ``dirichlet`` set, boundary-face DOFs exist in
    the vector layout but are excluded from solves and fixed to the supplied
    boundary data (zero by default), realizing the zero-trace space.  A DOF
    vector of the space is a flat real (or complex) array of length
    ``n_dofs``: the cell blocks in cell order, then the face blocks in face
    order.
    """

    def __init__(self, mesh, face_degree, cell_degree=None, dirichlet=False):
        if cell_degree is None:
            cell_degree = face_degree
        for d in (face_degree, cell_degree):
            if not is_count(d):
                raise ValueError(f"degrees must be non-negative integers, got {d!r}")
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
        self._groups = None
        self._nodes = None
        self._stiffness = None
        self._cell_mass = None

        fd = self.face_dim
        self.cell_dof_start = np.arange(mesh.n_cells) * self.cell_dim
        self.face_dof_start = self.n_cell_dofs + np.arange(mesh.n_faces) * fd
        active = np.ones(self.n_dofs, dtype=bool)
        if self.dirichlet:
            bf = mesh.boundary_faces
            active[(self.face_dof_start[bf, None] + np.arange(fd)).ravel()] = False
        self.active_dofs = np.nonzero(active)[0]
        self.fixed_dofs = np.nonzero(~active)[0]

    # -- operators and assembled matrices (built lazily, cached) ------------

    def kernel_groups(self):
        """The stacked local kernels of every cell, one entry per group."""
        if self._groups is None:
            self._groups = _build(self, range(self.mesh.n_cells))
        return self._groups

    def local_ops(self):
        """Per-cell records of the kernel groups (see ``_views``).

        Congruent cells share one kernel: their records hold the same arrays.
        """
        if self._ops is None:
            self._ops = _views(self.kernel_groups(), range(self.mesh.n_cells))
        return self._ops

    def nodes(self):
        """The space's ``NodeTable``, built on first use."""
        if self._nodes is None:
            self._nodes = NodeTable(self)
        return self._nodes

    def _assemble(self, shape, blocks):
        """Sum of the per-cell blocks ``blocks(group) -> (rows, cols, stack)``."""
        return scatter_blocks(shape, (blocks(g) for g in self.kernel_groups()))

    def stiffness_matrix(self):
        """Global a_h matrix over all DOFs (boundary rows included)."""
        if self._stiffness is None:
            self._stiffness = self._assemble(
                (self.n_dofs, self.n_dofs),
                lambda g: (g.dofs, g.dofs, g.kernels["A"][g.rows]))
        return self._stiffness

    def cell_mass_matrix(self):
        """Block-diagonal mass matrix of the cell blocks."""
        if self._cell_mass is None:
            dl = self.cell_dim
            self._cell_mass = self._assemble(
                (self.n_dofs, self.n_dofs),
                lambda g: (g.dofs[:, :dl], g.dofs[:, :dl],
                           g.kernels["M_cell"][g.rows]))
        return self._cell_mass

    def boundary_values(self, g):
        """Fixed-DOF values for Dirichlet data g (zeros when g is None).

        NonFiniteError when g is NaN or infinite at a boundary face node.
        """
        vals = np.zeros(self.n_dofs)
        if g is not None:
            faces = self.mesh.boundary_faces
            proj = _face_projections(self, g, faces)
            if not np.isfinite(proj).all():
                raise NonFiniteError("Dirichlet data must be finite on the boundary")
            vals[self.face_dof_start[faces, None] + np.arange(self.face_dim)] = proj
        return vals[self.fixed_dofs]

    def dof_vector(self, values):
        """``values`` as a real or complex DOF vector of this space.

        ValueError on a length mismatch.
        """
        values = np.asarray(values)
        if values.shape != (self.n_dofs,):
            raise ValueError(f"coefficient shape {values.shape} does not match "
                             f"the space's {self.n_dofs} DOFs")
        return values.astype(np.result_type(values, float), copy=False)

    def cell_blocks(self, vec):
        """Cell coefficients of every cell, a (n_cells, cell_dim) view of ``vec``."""
        return self.dof_vector(vec)[:self.n_cell_dofs].reshape(-1, self.cell_dim)


def _mT(a):
    return np.swapaxes(a, -1, -2)


def _grad_grams(Fl, Fr, w):
    """Weighted gradient products of two bases on a stack of cells.

    ``Fl`` ``(B, dim_l, 2n)`` and ``Fr`` ``(B, dim_r, 2n)`` hold the basis
    gradients at the nodes of weights ``w`` ``(B, n)``, flattened function
    by function with each node's x and y adjacent.  Returns the Gram
    matrices ``(grad l_i, grad l_j)`` and ``(grad r_i, grad r_j)`` and the
    cross products ``(grad r_i, grad l_j)``, ``(B, dim_r, dim_l)``.  With
    the weights repeated per direction, every product is one batched matmul;
    if ``Fr`` is ``Fl`` (one basis) the three are one product.
    """
    w2 = np.repeat(w, 2, axis=1)[:, :, None]
    wFl = w2 * _mT(Fl)
    K_l = Fl @ wFl
    if Fr is Fl:  # one basis: the three products are one
        return K_l, K_l, K_l
    return K_l, Fr @ (w2 * _mT(Fr)), Fr @ wFl


class KernelGroup:
    """Stacked kernels of cells with one face count and one quadrature size.

    ``kernels`` maps each kernel entry to a stacked array with one row per
    distinct (non-congruent) cell shape.  ``cells`` are the cells that use
    the group, ascending; ``rows`` the kernel row of each, and ``dofs``,
    ``face_ids`` and ``centroids`` their local DOFs, faces and centroids.
    """

    def __init__(self, kernels, cells, rows, dofs, face_ids, centroids):
        self.kernels = kernels
        self.cells = cells
        self.rows = rows
        self.dofs = dofs
        self.face_ids = face_ids
        self.centroids = centroids

    @property
    def n_nodes(self):
        return self.kernels["qw"].shape[1]


def _build_kernels(space, pts, w, centroids, h, face_ends, lengths, normals):
    """Kernels of cells with one face count and rule size, stacked by cell.

    ``pts`` ``(B, n, 2)`` and ``w`` ``(B, n)`` hold each cell's quadrature
    rule, ``face_ends`` the endpoints of its faces in loop order ``(B, m, 2,
    2)`` (each in the face's own orientation), ``lengths`` their lengths
    ``(B, m)`` and ``normals`` its outward face normals ``(B, m, 2)``.
    The entries returned are the ones the library reads, plus
    ``recon_degree``, ``Qr`` and ``S_faces``, which the test oracles read; a
    cell's area is ``mesh.cell_areas`` and its basis integrals ``qw @ Vl``.
    The bases come from one degree-(k + 1) ``poly.monomial_table`` at the
    cell nodes and one at the face nodes (the cell basis is its first dim_l
    columns), ``Ql`` and ``Qr`` from the raw cell-node table.  In a mixed
    space (l = r) the two bases are one, and each of their products is
    built once: ``Vl`` is ``Vr``, ``M_cell`` is ``M_recon``.  Every product
    and solve is batched: a transform is one product per cell, of the values
    ``(n, dim)`` and of the gradients ``(dim, 2n)``, the layout that
    ``_grad_grams`` multiplies.  No cell of a Voronoi mesh shares its kernel,
    so these BLAS paths set the cost of the local operators there.
    """
    k, l, r = space.face_degree, space.cell_degree, space.face_degree + 1
    B, m = normals.shape[:2]
    dim_l, dim_r, dim_f = space.cell_dim, space.recon_dim, space.face_dim
    n_loc = dim_l + m * dim_f

    def table(points):
        V, dV = poly.monomial_table(
            (points - centroids[:, None, :]) / h[:, None, None], r)
        return V, dV(h)

    # the first dim functions of a table, transformed by T cell by cell
    def values(V, T, dim):
        V = V[..., :dim]
        return np.ascontiguousarray(V) if T is None else V @ _mT(T)

    def grads(F, T, dim):
        F = F[:, :dim].reshape(B, dim, -1)
        return F if T is None else T @ F

    # the cell and reconstruction bases are orthonormalized from degree 2,
    # both from the raw table at the cell nodes; if l = r they are one basis,
    # and every product of the two is built once
    same = l == r
    V, F = table(pts)
    Qr = poly.orthonormal_transform(V, w) if r >= 2 else None
    Ql = (Qr if same else
          poly.orthonormal_transform(V[..., :dim_l], w) if l >= 2 else None)
    Vr, Fr = values(V, Qr, dim_r), grads(F, Qr, dim_r)
    Vl, Fl = (Vr, Fr) if same else (values(V, Ql, dim_l), grads(F, Ql, dim_l))

    wc = w[:, :, None]
    M_recon = _mT(Vr) @ (wc * Vr)
    M_cell = M_recon if same else _mT(Vl) @ (wc * Vl)
    N_lr = M_recon if same else _mT(Vl) @ (wc * Vr)
    K_cell, K_recon, K_rl = _grad_grams(Fl, Fr, w)
    int_recon = (w[:, None, :] @ Vr)[:, 0]
    int_cell = int_recon if same else (w[:, None, :] @ Vl)[:, 0]

    # Faces, stacked (B, m, ...): quadrature, cell and reconstruction
    # traces, and the normal derivative of the recon basis.  Every face's
    # basis at its nodes is the reference table V_ref.
    V_ref, M_ref, P_ref = poly.reference_face_table(k)
    fpts, fw = poly.face_rule(face_ends, k)
    nf = fw.shape[-1]
    V, F = table(fpts.reshape(B, m * nf, 2))
    Vr_f = values(V, Qr, dim_r).reshape(B, m, nf, dim_r)
    Vl_f = Vr_f if same else values(V, Ql, dim_l).reshape(B, m, nf, dim_l)
    dn = (np.moveaxis(grads(F, Qr, dim_r).reshape(B, dim_r, m, nf, 2), 1, 3)
          @ normals[:, :, None, :, None])[..., 0]
    fwc = fw[..., None]

    # RHS of the reconstruction problem: (grad v_T, grad q)_T
    #   + sum_F (v_F - v_T, grad q . n)_F for q in the recon basis.
    rhs = np.zeros((B, dim_r, n_loc))
    rhs[:, :, :dim_l] = K_rl
    cell_flux = _mT(dn) @ (fwc * Vl_f)
    face_flux = _mT(dn) @ (fwc * V_ref)
    for j in range(m):
        rhs[:, :, :dim_l] -= cell_flux[:, j]
        rhs[:, :, dim_l + j * dim_f:dim_l + (j + 1) * dim_f] += face_flux[:, j]

    # Solve on the mean-free complement, then fix the constant so that
    # (R v, 1)_T = (v_T, 1)_T.  Basis function 0 is constant in both modes,
    # so K_recon has exactly the first row/column zero.
    G = np.zeros((B, dim_r, n_loc))
    G[:, 1:, :] = np.linalg.solve(K_recon[:, 1:, 1:], rhs[:, 1:, :])
    mean_rhs = np.zeros((B, n_loc))
    mean_rhs[:, :dim_l] = int_cell
    G[:, 0, :] = ((mean_rhs - (int_recon[:, None, 1:] @ G[:, 1:, :])[:, 0])
                  / int_recon[:, :1])

    # Stabilization S_F = Pi_F(v_T|_F - v_F + ((I - Pi_T^l) R v)|_F): the
    # weights of a face cancel in Pi_F, and its mass matrix is (|F|/2) M_ref.
    P_lr = np.linalg.solve(M_cell, N_lr)          # Pi_T^l on recon coefficients
    trace_ops = (Vl_f @ np.eye(dim_l, n_loc)       # v_T on the local DOFs
                 + (Vr_f - Vl_f @ P_lr[:, None]) @ G[:, None])
    S_faces = P_ref @ trace_ops
    A_stab = np.zeros((B, n_loc, n_loc))
    for j in range(m):
        S_faces[:, j, :, dim_l + j * dim_f:dim_l + (j + 1) * dim_f] -= np.eye(dim_f)
        S = S_faces[:, j]
        A_stab += 0.5 * lengths[:, j, None, None] * (_mT(S) @ M_ref @ S)
    A = _mT(G) @ K_recon @ G + A_stab / h[:, None, None]
    A = 0.5 * (A + _mT(A))

    return {
        "cell_degree": l, "recon_degree": r,
        "h": h, "Ql": Ql, "Qr": Qr,
        "qw": w, "qp": pts - centroids[:, None, :],
        "Vl": Vl, "Vr": Vr,
        "M_cell": M_cell, "M_recon": M_recon, "K_cell": K_cell,
        "G": G, "A": A, "S_faces": S_faces, "fqw": fw, "Vl_f": Vl_f,
    }


def _build(space, cell_ids):
    """Kernel groups of the cells ``cell_ids``."""
    mesh = space.mesh
    cell_ids = np.asarray(cell_ids, dtype=np.intp).reshape(-1)
    dl, fd = space.cell_dim, space.face_dim
    groups = []
    for at, idx in loop_groups(mesh.cell_ptr, cell_ids):
        ids, m = cell_ids[at], idx.shape[1]
        vids, fids = mesh.cell_vertex_ids[idx], mesh.cell_face_ids[idx]
        signs = mesh.cell_face_signs[idx]
        c0 = mesh.cell_centroids[ids]
        dofs = np.concatenate(
            (space.cell_dof_start[ids, None] + np.arange(dl),
             (space.face_dof_start[fids][..., None] + np.arange(fd))
             .reshape(len(ids), m * fd)), axis=1)

        # congruence key: polygon and face traversal relative to the centroid
        polys = mesh.vertices[vids]
        rel_faces = np.round(mesh.face_points[fids] - c0[:, None, None, :], 12)
        orient = np.stack((signs, np.zeros_like(signs)), -1)[:, :, None, :]
        keys = np.concatenate(
            (np.round(polys - c0[:, None, :], 12).reshape(len(ids), -1),
             np.concatenate((rel_faces, orient), axis=2).reshape(len(ids), -1)),
            axis=1)
        first = {}
        kernel_of = np.array([first.setdefault(key.tobytes(), i)
                              for i, key in enumerate(keys)])
        reps = np.unique(kernel_of)               # first cell of each shape

        # 2(k + 2) covers every product of two basis functions: l, r <= k + 1
        for sel, pts, w in poly.polygon_rules(polys[reps], c0[reps],
                                              2 * (space.face_degree + 2)):
            r = reps[sel]
            kernels = _build_kernels(
                space, pts, w, c0[r], mesh.cell_diameters[ids[r]],
                mesh.face_points[fids[r]], mesh.face_lengths[fids[r]],
                signs[r][..., None] * mesh.face_normals[fids[r]])
            row_of = np.full(len(ids), -1)
            row_of[r] = np.arange(len(r))
            rows = row_of[kernel_of]
            mine = np.nonzero(rows >= 0)[0]
            groups.append(KernelGroup(kernels, ids[mine], rows[mine], dofs[mine],
                                      fids[mine], c0[mine]))
    return groups


def _views(groups, cell_ids):
    """Per-cell records of ``cell_ids``, in order.

    A record holds the cell's ``cell_id``, ``centroid``, ``face_ids`` and
    ``dofs`` and every ``_build_kernels`` entry under its own name; cells of
    one kernel row share that row's arrays, which are views into the group.
    """
    ops = {}
    for g in groups:
        shared = [{name: a[b] if isinstance(a, np.ndarray) else a
                   for name, a in g.kernels.items()}
                  for b in range(len(g.kernels["h"]))]
        for c, c0, fids, dofs, row in zip(g.cells, g.centroids, g.face_ids,
                                          g.dofs, g.rows):
            ops[c] = SimpleNamespace(**shared[row], cell_id=int(c), centroid=c0,
                                     face_ids=fids.tolist(), dofs=dofs)
    return [ops[c] for c in cell_ids]


def _runs_of(labels, items):
    """``items`` grouped by their ``labels``, as runs of equally large groups.

    The groups come in ascending label order, each keeping its items' order;
    consecutive groups that hold equally many items form one run, yielded as
    ``(run_labels, members)`` with ``members`` ``(len(run_labels), size)``.
    """
    if not len(labels):
        return
    order = np.argsort(labels, kind="stable")
    uniq, sizes = np.unique(labels, return_counts=True)
    cuts = np.flatnonzero(np.diff(sizes)) + 1
    start = 0
    for run, size in zip(np.split(uniq, cuts), sizes[np.r_[0, cuts]]):
        end = start + len(run) * size
        yield run, items[order[start:end]].reshape(len(run), size)
        start = end


class NodeTable:
    """Quadrature nodes of every cell of a space, laid out class by class.

    The nodes come kernel group by kernel group, within a group kernel row by
    kernel row (one congruence class), within a class cell by cell (cells
    ascending), and each cell's nodes are contiguous.  ``points``,
    ``weights``, ``starts`` (the first node of each cell) and ``counts``
    describe the nodes; ``group_of`` and ``row_of`` name each cell's kernel
    group and row.  Consecutive rows of a group whose classes hold equally
    many cells form a run, whose nodes are one block ``(rows, cells, nodes)``.
    ``values``, ``moments`` and ``cell_integrals`` apply each run's
    ``Vl``/``Vr``/``qw`` rows as per-cell products broadcast over the class's
    cells (``V[:, None] @ c[..., None]``), on reshaped views of the node
    arrays and with no gather of kernel rows: each cell gets the bits of a
    product of its own kernel row.  ``reduce_cells`` reduces node values per
    cell with boundaries that ascend in node order.  ``class_rules`` gives
    the kernel classes of some cells a rule of their own and the cell basis
    at its points, once per class.  The nodes depend on the mesh and the
    face degree only, so the spaces of one mesh and face degree share them
    (the state and control spaces of uc32, say).
    """

    def __init__(self, space):
        # no reference back to the space: a cycle would keep a finished
        # level's tables alive until the garbage collector runs
        self.groups = space.kernel_groups()
        centroids = space.mesh.cell_centroids
        nc = space.mesh.n_cells
        self.counts = np.empty(nc, dtype=np.intp)
        self.starts = np.empty(nc, dtype=np.intp)
        self.group_of = np.empty(nc, dtype=np.intp)
        self.row_of = np.empty(nc, dtype=np.intp)
        self._runs, order, start = [], [], 0
        for i, g in enumerate(self.groups):
            self.counts[g.cells] = g.n_nodes
            self.group_of[g.cells], self.row_of[g.cells] = i, g.rows
            for rows, cells in _runs_of(g.rows, g.cells):
                at = slice(start, start + cells.size * g.n_nodes)
                # every row of a group has a cell, so a run's rows are a range
                self._runs.append((g.kernels, slice(rows[0], rows[-1] + 1),
                                   cells, at))
                self.starts[cells] = start + g.n_nodes * np.arange(
                    cells.size).reshape(cells.shape)
                order.append(cells.ravel())
                start = at.stop
        # the cells in node order and their first nodes, ascending
        self._order = np.concatenate(order)
        self._bounds = self.starts[self._order]
        self.points = np.empty((start, 2))
        self.weights = np.empty(start)
        for k, rows, cells, at in self._runs:
            self.points[at] = (k["qp"][rows][:, None]
                               + centroids[cells][:, :, None, :]).reshape(-1, 2)
            self.weights[at] = np.broadcast_to(
                k["qw"][rows][:, None], cells.shape + k["qw"].shape[-1:]).ravel()

    def values(self, table, coeffs):
        """Node values of per-cell coefficients ``(n_cells, dim)``.

        ``table`` names the basis: ``"Vl"`` (cell) or ``"Vr"`` (reconstruction).
        """
        out = np.empty(len(self.weights))
        for k, rows, cells, at in self._runs:
            out[at] = (k[table][rows][:, None] @ coeffs[cells][..., None]).ravel()
        return out

    def moments(self, table, values):
        """Per-cell moments ``(w * values, basis_i)_T``, ``(n_cells, dim)``."""
        wv = self.weights * values
        out = np.empty((len(self.counts), self.groups[0].kernels[table].shape[-1]))
        for k, rows, cells, at in self._runs:
            out[cells] = (_mT(k[table][rows])[:, None]
                          @ wv[at].reshape(cells.shape + (-1, 1)))[..., 0]
        return out

    def free_mass(self, free):
        """Block-diagonal BSR matrix of the cell masses over the nodes ``free``.

        A cell's block sums w Vl Vl^T over its free nodes: it is ``M_cell``
        if all are free and zero if none is.
        """
        n_free = self.reduce_cells(np.add, free.astype(np.intp))
        wf = self.weights * free
        dim = self.groups[0].kernels["Vl"].shape[-1]
        blocks = np.zeros((len(self.counts), dim, dim))
        for g in self.groups:
            n = n_free[g.cells]
            full = n == g.n_nodes
            blocks[g.cells[full]] = g.kernels["M_cell"][g.rows[full]]
            mixed = (n > 0) & ~full
            cells, V = g.cells[mixed], g.kernels["Vl"][g.rows[mixed]]
            at = self.starts[cells][:, None] + np.arange(g.n_nodes)
            blocks[cells] = _mT(V) @ (wf[at][..., None] * V)
        ids = np.arange(len(blocks) + 1)
        return sp.bsr_matrix((blocks, ids[:-1], ids))

    def cell_integrals(self, values):
        """Quadrature of node values over each cell."""
        out = np.empty(len(self.counts))
        for k, rows, cells, at in self._runs:
            out[cells] = (k["qw"][rows][:, None, None, :]
                          @ values[at].reshape(cells.shape + (-1, 1)))[..., 0, 0]
        return out

    def reduce_cells(self, ufunc, values):
        """``ufunc.reduceat`` of node values over each cell's nodes, per cell."""
        out = np.empty(len(self.counts), dtype=values.dtype)
        out[self._order] = ufunc.reduceat(values, self._bounds)
        return out

    def class_rules(self, mesh, cells, exactness):
        """Rules of exactness ``exactness`` on the kernel classes of ``cells``.

        Each class gets ``poly.polygon_rules`` of its first cell's polygon,
        in coordinates relative to that cell's centroid, and the cell basis
        at those points, shared by every cell of ``cells`` in the class.
        Yields ``(members, points, weights, basis)`` per batch of classes
        that hold equally many of ``cells``: ``members`` ``(C, s)``,
        ``points`` ``(C, q, 2)`` relative to each member's centroid,
        ``weights`` ``(C, q)`` and ``basis`` ``(C, q, dim)``.
        """
        cells = np.asarray(cells, dtype=np.intp)
        for i, g in enumerate(self.groups):
            k = g.kernels
            mine = cells[self.group_of[cells] == i]
            for rows, members in _runs_of(self.row_of[mine], mine):
                first = members[:, 0]
                # the cells of a kernel group share their face count
                (_, idx), = loop_groups(mesh.cell_ptr, first)
                polys = (mesh.vertices[mesh.cell_vertex_ids[idx]]
                         - mesh.cell_centroids[first][:, None, :])
                zero = np.zeros((len(first), 2))
                for sel, pts, w in poly.polygon_rules(polys, zero, exactness):
                    r = rows[sel]
                    basis = poly.monomial_table(pts / k["h"][r][:, None, None],
                                                k["cell_degree"])[0]
                    if k["Ql"] is not None:
                        basis = basis @ _mT(k["Ql"][r])
                    yield members[sel], pts, w, basis


def sorted_sum(contribs):
    """Sum of per-cell contributions in sorted order (reproducible)."""
    return float(np.sum(np.sort(np.asarray(contribs))))


# ---------------------------------------------------------------------------
# Projections and reduction over the whole mesh
# ---------------------------------------------------------------------------

def _face_projections(space, f, faces):
    """L2 projections of f onto P_k(F) of ``faces``, one row per face.

    f is evaluated and projected with numpy's warnings off: data that are
    not finite on a face give non-finite rows, which the callers check.
    """
    k = space.face_degree
    pts, _ = poly.face_rule(space.mesh.face_points[faces], k)
    with np.errstate(all="ignore"):
        fv = f(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        return fv @ poly.reference_face_table(k)[2].T  # P_ref^T


def reduce_function(space, f, at_nodes=None):
    """Global reduction of f: cellwise and facewise L2 projections.

    Every face is projected, a Dirichlet space's boundary faces too: a
    solution carries the lifted trace of its boundary data.  ``at_nodes``
    holds f at ``space.nodes().points`` when the caller has sampled it.
    """
    t = space.nodes()
    vec = np.zeros(space.n_dofs)
    rhs = t.moments("Vl", f(t.points) if at_nodes is None else at_nodes)
    cells = vec[:space.n_cell_dofs].reshape(rhs.shape)
    for g in t.groups:
        cells[g.cells] = np.linalg.solve(g.kernels["M_cell"][g.rows],
                                         rhs[g.cells][..., None])[..., 0]
    vec[space.n_cell_dofs:] = _face_projections(
        space, f, np.arange(space.mesh.n_faces)).ravel()
    return vec


def reconstruct_all(space, vec):
    """Reconstruction coefficients R v on every cell, (n_cells, recon_dim)."""
    vec = space.dof_vector(vec)
    out = np.empty((space.mesh.n_cells, space.recon_dim))
    for g in space.kernel_groups():
        out[g.cells] = (g.kernels["G"][g.rows] @ vec[g.dofs][..., None])[..., 0]
    return out


def h1h_seminorm_sq(space, vec):
    """Square of the discrete H1-like norm sum_T(|grad v_T|^2 + h_T^{-1}|v_T - v_F|^2)."""
    c = space.cell_blocks(vec)
    vf = vec[space.n_cell_dofs:].reshape(-1, space.face_dim)
    V = poly.reference_face_table(space.face_degree)[0]
    contribs = np.empty(space.mesh.n_cells)
    for g in space.kernel_groups():
        k, rows, cg = g.kernels, g.rows, c[g.cells]
        grad = ((cg[:, None, :] @ k["K_cell"][rows]) @ cg[..., None])[:, 0, 0]
        jump = np.zeros(len(rows))
        for j in range(g.face_ids.shape[1]):
            d = (k["Vl_f"][rows, j] @ cg[..., None]
                 - V @ vf[g.face_ids[:, j]][..., None])
            jump += (k["fqw"][rows, j][:, None, :] @ d ** 2)[:, 0, 0]
        contribs[g.cells] = grad + jump / k["h"][rows]
    return sorted_sum(contribs)


# ---------------------------------------------------------------------------
# Loads and global assembly
# ---------------------------------------------------------------------------

def node_load_vector(space, values):
    """Load of values at the ``NodeTable`` nodes tested against cell polynomials."""
    vec = np.zeros(space.n_dofs)
    vec[:space.n_cell_dofs] = space.nodes().moments("Vl", values).ravel()
    return vec


def cell_load_vector(space, f):
    """Load tested against cell polynomials: (f, w_T)."""
    return node_load_vector(space, f(space.nodes().points))


def recon_load_vector(space, values):
    """Load of values at the ``NodeTable`` nodes tested against reconstructions.

    With the values of f it is (f, R w).
    """
    t = space.nodes()
    moments = t.moments("Vr", values)
    vec = np.zeros(space.n_dofs)
    for g in t.groups:
        np.add.at(vec, g.dofs, (_mT(g.kernels["G"][g.rows])
                                @ moments[g.cells][..., None])[..., 0])
    return vec


def scatter_blocks(shape, triplets):
    """CSR matrix summing ``(row_dofs, col_dofs, block)`` triplets.

    A triplet is one block with 1D index arrays, or a stack of blocks
    ``(..., nr, nc)`` with index arrays ``(..., nr)`` and ``(..., nc)``.
    Entries with a negative row or column index are left out.  The indices
    are int32 where ``shape`` allows.
    """
    triplets = [(np.asarray(r)[..., :, None], np.asarray(c)[..., None, :],
                 block) for r, c, block in triplets]
    shapes = [np.broadcast_shapes(r.shape, c.shape) for r, c, _ in triplets]
    ends = np.cumsum([0] + [np.prod(s, dtype=int) for s in shapes])
    index = np.int32 if max(shape) < np.iinfo(np.int32).max else np.intp
    rows, cols = np.empty(ends[-1], dtype=index), np.empty(ends[-1], dtype=index)
    vals = np.empty(ends[-1], np.result_type(*(b for _, _, b in triplets)))
    for (r, c, block), s, start, end in zip(triplets, shapes, ends, ends[1:]):
        rows[start:end].reshape(s)[...] = r
        cols[start:end].reshape(s)[...] = c
        vals[start:end].reshape(s)[...] = block
    # the entries left out go to a spare last row, which the CSR arrays
    # then cut off: cheaper than compressing every array
    out = (rows < 0) | (cols < 0)
    rows[out], cols[out] = shape[0], 0
    csr = sp.coo_matrix((vals, (rows, cols)),
                        shape=(shape[0] + 1, max(shape[1], 1))).tocsr()
    end = csr.indptr[-2]
    return sp.csr_matrix((csr.data[:end], csr.indices[:end], csr.indptr[:-1]),
                         shape=shape)


def local_stiffness(group):
    """The stiffness of a kernel group as ``OptimalitySystem`` local blocks."""
    return group.kernels["A"], group.rows


def _local_stack(group, blocks, index):
    """``(blocks, index)`` of ``group`` as arrays, checked against its DOFs."""
    blocks, index = np.asarray(blocks), np.asarray(index)
    n = group.dofs.shape[1]
    if blocks.ndim != 3 or blocks.shape[1:] != (n, n):
        raise ValueError(f"local blocks of shape {blocks.shape} do not match "
                         f"the group's {n} local DOFs: expected (rows, {n}, {n})")
    if (index.shape != group.cells.shape or index.dtype.kind not in "iu"
            or (index.size and not 0 <= index.min() <= index.max() < len(blocks))):
        raise ValueError(f"index of shape {index.shape} must hold one row of "
                         f"the {len(blocks)} local blocks per cell: expected "
                         f"shape {group.cells.shape}")
    return blocks, index


def _real_if_real(a):
    """``a``, or its real part if it is complex with no imaginary part."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def _stack_matmul(a, b):
    """``a @ b`` for stacks of small matrices, one of them possibly complex.

    numpy multiplies small complex matrices about ten times slower than
    real ones, so a real factor multiplies the real and imaginary parts of
    the other in one real product.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(a):  # (a b)^T = b^T a^T
        return _mT(_stack_matmul(_mT(b), _mT(a)))
    b = np.ascontiguousarray(b)
    return (a @ b.view(b.real.dtype)).view(b.dtype)


def nested_dissection(space):
    """Nested-dissection order of the active face DOFs of ``space``.

    The cells are cut at the middle lines of the mesh's bounding box, then
    of each half, and so on (George, SIAM J. Numer. Anal. 10 (1973)
    345-363), x before y at each level.  That recursion is the Z-order
    (Morton) key of the centroids: quantized to a 2^b x 2^b grid over the
    vertex bounding box, with b = ceil(log2(n_cells) / 2) + 1, a cell's leaf
    interleaves the bits of its grid column and row, x bit above y bit, and
    the leaf's bits are the path of the cell from the root, one bit per
    level of depth 2b, 1 for the upper half; cells in one grid square share
    a leaf.  A face's DOFs belong to the lowest part holding both its
    cells, so the faces whose two cells fall in different halves of a part
    form that part's separator.  A cell's condensed block couples only its
    own faces, and all faces of a cell lie on the path from its leaf to the
    root, so eliminating each part's halves before its separator creates
    no fill between the halves.  The order lists the parts in postorder
    (both halves, then the separator); within a part by DOF index.  Returns
    the permutation of positions in the active face vector (the active
    vector after its ``n_cell_dofs`` cell entries).
    """
    mesh = space.mesh
    faces = space.active_dofs[space.n_cell_dofs:] - space.n_cell_dofs
    if mesh.n_cells < 2:  # one part: nothing to dissect
        return np.arange(len(faces))
    bits = ((mesh.n_cells - 1).bit_length() + 1) // 2 + 1  # ceil(log2 n / 2) + 1
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    grid = np.minimum((mesh.cell_centroids - lo) / (hi - lo) * 2 ** bits,
                      2 ** bits - 1).astype(np.int64)
    leaf = np.zeros(mesh.n_cells, dtype=np.int64)
    for bit in reversed(range(bits)):
        leaf = leaf << 2 | (grid >> bit & 1) @ np.array([2, 1])
    c0, c1 = mesh.face_cells.T
    a = leaf[c0]
    # levels from the leaves up to the lowest part holding both cells
    up = np.frexp(a ^ leaf[np.where(c1 < 0, c0, c1)])[1]
    # by the part's last leaf, then deeper parts first: both halves of a
    # part come before its separator
    key = np.repeat(((((a >> up) + 1) << up) - 1) * (2 * bits + 1) + up,
                    space.face_dim)
    return np.argsort(key[faces], kind="stable")


_EPS = np.finfo(float).eps


class OptimalitySystem:
    """Sparse system over one HHO space, factored once and solved many times.

    The system is given by its local matrices, real or complex:
    ``local(group)`` returns ``(blocks, index)`` for each kernel group of
    ``space``, a stack ``(rows, n, n)`` over the group's local DOFs
    ``group.dofs`` (cell DOFs first) and each cell's row in that stack.
    The stiffness is ``local_stiffness``: one block per kernel row, shared
    by the congruent cells.  ValueError if a stack does not match the
    group's local DOF count or an index falls outside it.  ``matrix`` is
    the assembly of the blocks over the active DOFs; at each solve the
    columns of the fixed (Dirichlet) DOFs times the given fixed values move
    into the right-hand side (the lift).

    Factorization.  A cell's unknowns couple only with its own faces, and
    the cell DOFs are never fixed.  They are eliminated before any global
    assembly, once per stack row (static condensation; Di Pietro &
    Droniou, The Hybrid High-Order Method for Polytopal Meshes, Springer
    2020): each cell block K_TT of a row is inverted, in one batch per
    group, to D = K_TT^{-1}, and the row gives its couplings X = D K_TF and
    E = K_FT D and its face Schur block K_FF - K_FT X.  These are scattered
    by ``index`` to the cells: the Schur blocks straight into the face
    Schur complement S over the active faces, in their
    ``nested_dissection`` order (George, SIAM J. Numer. Anal. 10 (1973)
    345-363: the cells are cut at the middle lines of each part, read off
    the Morton key of their centroids), and X and E into two sparse
    coupling matrices.  Only S is factored, with SuperLU told to keep its
    order (``permc_spec="NATURAL"``, ``SymmetricMode``) and to pivot on the
    diagonal (``diag_pivot_thresh=0``).  A solve takes the faces
    x_F = S^{-1}(b_F - E b_T) and the cells x_T = D b_T - X x_F.  Every
    matrix factored here has a positive definite Hermitian part: the
    stiffness, the pinned uc32 control mass, and the complex uc matrix
    A - i C / sqrt(lam), whose Hermitian part is A.  The cell blocks and S
    inherit that property, so their LU without pivoting exists and is
    stable (Golub & Van Loan, Linear Algebra Appl. 28 (1979) 85-97).  A
    cell block that cannot be inverted fails with an infinite residual.

    Refinement (Demmel et al., ACM TOMS 32 (2006) 325-351).  Every solve is
    refined against the assembled matrix, each correction d_k solved with
    the same LU.  A residual b - K x that the loop solves with is summed in
    ``np.longdouble`` (``np.clongdouble`` for a complex K) from a cached
    extended copy of K; the last one, which only checks x, is summed in
    double.  Refinement stops when the correction stops shrinking, when it
    reaches ``MAX_REFINEMENT_STEPS``, or when the next correction is
    predicted below the resolution of x: the corrections shrink by a steady
    ratio (Demmel et al. judge convergence by it), so the next is about
    ||d_k||^2 / ||d_{k-1}||, and the loop stops once that is at most
    eps ||x_k||, with d_0 = x_0 (the unrefined solve) for a cold solve.  A
    cold solve whose first correction is below about sqrt(eps) ||x|| thus
    makes two LU solves, one extended and one double residual.  The result
    is the solution of the assembled system to about double precision,
    whatever the ordering of the factorization.  Given a ``start`` (an
    approximate solution carried by a loop) a solve is one refinement step
    from it: the start's residual is extended (a zero start's is b, with no
    product) and the new iterate's only checks it, so the loop's own
    iterations do the refining.  ``lu_solve`` is the plain solve, for inner
    iterations.  Where ``np.longdouble`` is no wider than double (aarch64
    macOS, Windows) refinement improves only the backward error, and the
    results keep the round-off of the factorization.

    Every solve is checked against ``||b - K x|| <= 1e-10 ||b||``; a
    non-finite solution fails with an infinite residual.  ``residual`` holds
    the last residual b - K x over the active DOFs relative to ||b||;
    ``refinement`` the number of refinement steps and the norm of that
    relative residual.
    """

    RESIDUAL_TOL = 1e-10
    MAX_REFINEMENT_STEPS = 10

    def __init__(self, space, local):
        self.space = space
        nt, dl = space.n_cell_dofs, space.cell_dim
        act, fixed = space.active_dofs, space.fixed_dofs
        n_act = len(act)
        self._order = nested_dissection(space)
        # each DOF's place in the active vector, among the fixed DOFs and
        # among the active faces in their order; -1 (left out) elsewhere
        active_at, fixed_at, face_at = (np.full(space.n_dofs, -1)
                                        for _ in range(3))
        active_at[act], fixed_at[fixed] = np.arange(n_act), np.arange(len(fixed))
        face_at[act[nt + self._order]] = np.arange(n_act - nt)

        groups = space.kernel_groups()
        stacks = [_local_stack(g, *local(g)) for g in groups]
        D = np.empty((space.mesh.n_cells, dl, dl),
                     np.result_type(*(blocks for blocks, _ in stacks)))
        K, lift, S, X, E = [], [], [], [], []
        for g, (blocks, index) in zip(groups, stacks):
            try:
                D_g = np.linalg.inv(blocks[:, :dl, :dl])
            except np.linalg.LinAlgError:
                raise SolverError("a cell block is singular",
                                  residual=np.inf) from None
            # the couplings are often real where the cell blocks are not
            # (the uc matrices carry C on the cell block only)
            K_TF, K_FT, K_FF = (_real_if_real(blocks[:, r, c]) for r, c in (
                (slice(dl), slice(dl, None)), (slice(dl, None), slice(dl)),
                (slice(dl, None), slice(dl, None))))
            X_g = _stack_matmul(D_g, K_TF)
            cells, faces = g.dofs[:, :dl], face_at[g.dofs[:, dl:]]
            D[g.cells] = D_g[index]
            dofs = active_at[g.dofs]
            K.append((dofs, dofs, blocks[index]))
            fix = fixed_at[g.dofs]
            edge = (fix >= 0).any(axis=1)  # the cells with a fixed DOF
            lift.append((dofs[edge], fix[edge], blocks[index[edge]]))
            # S^T scattered as CSR is S in CSC, the format SuperLU takes
            S.append((faces, faces, _mT(K_FF - _stack_matmul(K_FT, X_g))[index]))
            X.append((cells, faces, X_g[index]))
            E.append((faces, cells, _stack_matmul(K_FT, D_g)[index]))
        self.matrix = scatter_blocks((n_act, n_act), K)
        self._lift = scatter_blocks((n_act, len(fixed)), lift)
        # the assembled matrix in double and, over the same indices, in
        # extended precision for the residuals of iterates near the solution
        self._matrix_ld = sp.csr_matrix(
            (self.matrix.data.astype(
                np.promote_types(self.matrix.dtype, np.longdouble)),
             self.matrix.indices, self.matrix.indptr),
            shape=self.matrix.shape)
        self.residual = None
        self.refinement = None
        nf = n_act - nt
        self._D = sp.bsr_matrix((D, np.arange(len(D)), np.arange(len(D) + 1)),
                                shape=(nt, nt))
        self._X = scatter_blocks((nt, nf), X)
        self._E = scatter_blocks((nf, nt), E)
        schur = scatter_blocks((nf, nf), S).T
        # the stacks are dropped before the factorization, whose fill sets
        # the peak memory
        del stacks, K, lift, S, X, E
        try:
            self._lu = spla.splu(schur, permc_spec="NATURAL",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular
            raise SolverError(f"factorization failed: {exc}",
                              residual=np.inf) from None

    def _residual(self, b, x, extended=True):
        """b - K x for the assembled K, summed in extended precision if asked."""
        if not extended:
            return b - self.matrix @ x
        r = self._matrix_ld @ x
        np.subtract(b, r, out=r)
        return r.astype(self.matrix.dtype)

    def lu_solve(self, b):
        """K^{-1} b through the condensed factorization, unrefined.

        ``b`` and the result are vectors over the active DOFs: no lift, no
        refinement and no residual check.  The faces solve S x_F = b_F -
        E b_T, then the cells take x_T = D b_T - X x_F.  This is
        the one plain solve, for inner iterations (``reduced_hessian_cg``)
        that apply K^{-1} many times and are corrected by a refined
        ``solve``.
        """
        nt = self.space.n_cell_dofs
        b_T = b[:nt]
        x_F = self._lu.solve(b[nt + self._order] - self._E @ b_T)
        x = np.empty(len(b), dtype=x_F.dtype)
        x[nt + self._order] = x_F
        x[:nt] = self._D @ b_T - self._X @ x_F
        return x

    def solve(self, load, fixed=None, start=None):
        """Full-length solution vector, a new array.

        ``load`` is a full-length load vector (ValueError on a length
        mismatch) and ``fixed`` the values of the fixed DOFs (None for
        zero).  ``start`` is an approximate solution to take one refinement
        step from; without it the solve refines until the next correction
        is predicted below eps ||x||.  The residual that only checks the
        result is summed in double, the ones solved with in extended
        precision.  Sets ``residual`` and ``refinement``; raises SolverError
        above the tolerance or on a non-finite solution.
        """
        space = self.space
        b = space.dof_vector(load)[space.active_dofs]
        if fixed is not None:
            b = b - self._lift @ fixed
        if start is None:  # the first correction d_0 is x_0 itself
            x = self.lu_solve(b)
            cap, last = self.MAX_REFINEMENT_STEPS, _norm(x)
        else:
            x, cap, last = space.dof_vector(start)[space.active_dofs], 1, np.inf
        # K 0 sums to +0, so the residual of a zero start is b, bit for bit
        r = self._residual(b, x) if x.any() else b.astype(self.matrix.dtype)
        steps = 0
        while True:
            d = self.lu_solve(r)
            size = _norm(d)
            if not size < last:  # stopped shrinking (or not finite)
                break
            x, steps = x + d, steps + 1
            # the next correction is predicted at size^2 / last: below the
            # resolution of x (eps ||x||) the loop stops, and the residual
            # that only checks x is summed in double
            done = steps == cap or size * size <= _EPS * _norm(x) * last
            r = self._residual(b, x, extended=not done)
            if done:
                break
            last = size

        scale = _norm(b)
        unit = scale if scale > 0 else 1.0  # with b = 0 only x = 0 passes
        res = _norm(r)
        self.residual = r / unit
        residual = _finite_or_inf(res / unit)
        self.refinement = {"steps": steps, "residual": residual}
        # a non-finite x leaves a non-finite residual, which fails here
        if not res <= self.RESIDUAL_TOL * scale:
            raise SolverError(f"linear solve residual {residual:.3e} exceeds "
                              f"{self.RESIDUAL_TOL:.0e}", residual=residual)
        out = np.zeros(space.n_dofs, dtype=x.dtype)
        out[space.active_dofs] = x
        if fixed is not None:
            out[space.fixed_dofs] = fixed
        return out


def _norm(v):
    """Euclidean norm, summed by ``einsum`` rather than BLAS; inf on overflow.

    A threaded BLAS dot hands a vector of more than 10k entries to a second
    thread; right after a SuperLU solve that hand-off took about 0.5 ms.
    """
    return float(np.sqrt(np.einsum("i,i->", v.conj(), v).real))


def _finite_or_inf(value):
    """``value`` as a float, infinite when it is not finite."""
    value = float(value)
    return value if np.isfinite(value) else np.inf


def linear_response(system, M, load):
    """Plain-solve state A^{-1} load and adjoint A^{-1} M y, zero if fixed."""
    act = system.space.active_dofs
    y, phi = np.zeros(len(load)), np.zeros(len(load))
    y[act] = system.lu_solve(load[act])
    phi[act] = system.lu_solve((M @ y)[act])
    return y, phi


def reduced_hessian_cg(system, M, load, G, inner, u, y, phi, reduction,
                       max_steps):
    """CG for u + G(phi) = 0 in the inner product ``inner``.

    y and phi, the state and adjoint of u, are carried along: a change p adds
    the ``linear_response`` of ``load(p)``, so the reduced Hessian
    H p = p + G(phi_p) (Hinze, Pinnau, Ulbrich & Ulbrich, Optimization with
    PDE Constraints, Springer 2009) must be self-adjoint and positive in
    ``inner``, which may be semi-definite where ``load`` ignores its kernel
    (wc's cell mass over the free nodes).  Returns ``(u, y, phi, steps)``
    once the residual's norm has fallen by ``reduction``; SolverError with
    that norm after ``max_steps``.
    """
    r = -(u + G(phi))
    p, rr = r, inner(r, r)
    stop, steps = reduction ** 2 * rr, 0
    while not rr <= stop:  # not reduced enough, or not finite
        if steps == max_steps:
            res = float(np.sqrt(rr))
            raise SolverError(f"conjugate gradients did not converge in "
                              f"{max_steps} steps (residual {res:.3e})", res)
        y_p, phi_p = linear_response(system, M, load(p))
        Hp = p + G(phi_p)
        alpha = rr / inner(p, Hp)
        u, y, phi = u + alpha * p, y + alpha * y_p, phi + alpha * phi_p
        r = r - alpha * Hp
        rr, rr_old = inner(r, r), rr
        p = r + (rr / rr_old) * p
        steps += 1
    return u, y, phi, steps


def solve_poisson(space, f, boundary_data=None):
    """Solve a_h(y, w) = (f, w_T) on a Dirichlet space."""
    if not space.dirichlet:
        raise ValueError("solve_poisson requires a Dirichlet space")
    system = OptimalitySystem(space, local_stiffness)
    return system.solve(cell_load_vector(space, f),
                        space.boundary_values(boundary_data))
