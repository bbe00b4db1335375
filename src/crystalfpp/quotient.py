"""Rational projections and quotient lattices.

The user specifies an integer kernel sublattice; the induced epimorphism q on
translation indices comes from an exact Smith normal form, and the orthogonal
projection P is derived from the realization.  The commuting square
P(point(x)) = point1(project(x)) is the correctness contract, checked by
verify_diagram.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import CrystalLattice, LatticeError, Realization, Window, instantiate_window

Matrix = list[list[int]]


class TorsionError(LatticeError):
    """Kernel sublattice has a torsion quotient; not a rational-projection kernel."""

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        super().__init__(
            f"quotient of Z^d by the kernel has torsion: invariant factors {factors}")


class RankError(LatticeError):
    """Kernel basis columns are linearly dependent."""


# ---------------------------------------------------------------------------
# Smith normal form, exact over Python integers


def _eye(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Exact Smith normal form: returns (U, D, V) with U @ m @ V == D.

    U and V are unimodular, D is diagonal with each entry dividing the next.
    All arithmetic is arbitrary-precision Python int, so there is no overflow.
    """
    d = [[int(x) for x in row] for row in m]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    for row in d:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = _eye(rows)
    v = _eye(cols)

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        d[dst] = [a + c * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]

    for s in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(s, rows):
                for j in range(s, cols):
                    if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(s, pivot[0])
            swap_cols(s, pivot[1])
            if d[s][s] < 0:
                negate_row(s)
            clean = True
            for i in range(s + 1, rows):
                q = d[i][s] // d[s][s]
                if q:
                    add_row(i, s, -q)
                if d[i][s]:
                    clean = False
            for j in range(s + 1, cols):
                q = d[s][j] // d[s][s]
                if q:
                    add_col(j, s, -q)
                if d[s][j]:
                    clean = False
            if not clean:
                continue
            # cross is zero; enforce divisibility of the remaining block
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if d[i][j] % d[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(s, offender, 1)
    return u, d, v


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form."""
    _, d, _ = smith_normal_form(m)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return tuple(out)


# ---------------------------------------------------------------------------
# kernel sublattices and quotient construction


@dataclass(frozen=True)
class KernelSublattice:
    """Integer columns spanning the sublattice of translations to collapse.

    The quotient Z^d / span(columns) must be torsion-free (all invariant
    factors 1), which is exactly the rational-projection condition.
    Construction checks it, with the column lengths and the rank.
    """

    columns: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self):
        for col in self.columns:
            if len(col) != self.dim:
                raise LatticeError(f"kernel column {col} does not have dimension {self.dim}")
        if self.columns:
            factors = invariant_factors(self.matrix())
            if len(factors) != len(self.columns):
                raise RankError("kernel columns are linearly dependent")
            if any(f != 1 for f in factors):
                raise TorsionError(factors)

    @staticmethod
    def of(columns: Sequence[Sequence[int]], dim: int) -> "KernelSublattice":
        return KernelSublattice(tuple(tuple(int(c) for c in col) for col in columns), dim)

    def matrix(self) -> Matrix:
        """d x r matrix with the kernel generators as columns."""
        if not self.columns:
            return [[] for _ in range(self.dim)]
        return [list(row) for row in zip(*self.columns)]

    @property
    def rank(self) -> int:
        return len(self.columns)


@dataclass
class QuotientData:
    """Everything derived from one rational projection.

    q maps translation indices of the cover onto those of the quotient;
    p_matrix expresses the orthogonal projection in an orthonormal basis of
    the image subspace, so the diagram P o point = point1 o project commutes.
    """

    lattice: CrystalLattice
    realization: Realization
    kernel: KernelSublattice
    q: tuple[tuple[int, ...], ...]            # d1 x d
    section: tuple[tuple[int, ...], ...]      # d x d1, right inverse of q
    p_matrix: np.ndarray                      # d1 x d, rows orthonormal
    sub_lattice: CrystalLattice
    sub_realization: Realization

    @property
    def dim_quotient(self) -> int:
        return len(self.q)

    def project_index(self, z: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(r * c for r, c in zip(row, z)) for row in self.q)


def _gram_schmidt(columns: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    basis = []
    for j in range(columns.shape[1]):
        w = columns[:, j].astype(float)
        for b in basis:
            w = w - (b @ w) * b
        norm = float(np.linalg.norm(w))
        if norm > tol:
            basis.append(w / norm)
    return np.array(basis)


def _too_degenerate(kernel: KernelSublattice, failure: str) -> str:
    """The error for a valid integer kernel whose realized projection fails in floats."""
    columns = ";".join(",".join(str(c) for c in col) for col in kernel.columns)
    return f"kernel {columns} is too degenerate for a float64 projection: {failure}"


def build_quotient(lattice: CrystalLattice, realization: Realization,
                   kernel: KernelSublattice) -> QuotientData:
    """Quotient lattice, its realization, and the projection data.

    The translation epimorphism is read off the Smith normal form of the
    kernel: with U K V = D = [I; 0], the last d1 rows of U give q and the last
    d1 columns of U^-1 a section.  The projection kills the realized kernel
    subspace and writes the complement in an orthonormal basis obtained by
    Gram-Schmidt on the realized section.
    """
    d = lattice.dim
    if kernel.dim != d:
        raise LatticeError(f"kernel dimension {kernel.dim} does not match lattice dim {d}")
    r = kernel.rank
    d1 = d - r
    if d1 < 1:
        raise LatticeError("kernel rank must leave at least one quotient dimension")

    u_mat, _, _ = smith_normal_form(kernel.matrix())
    # U is unimodular, so its own form is U2 U V2 = I and U^-1 = V2 U2
    u2, _, v2 = smith_normal_form(u_mat)
    q = tuple(tuple(row) for row in u_mat[r:])
    section = tuple(tuple(sum(a * b[r + j] for a, b in zip(row, u2)) for j in range(d1))
                    for row in v2)

    rho = realization.period_matrix()
    kernel_real = rho @ np.array(kernel.matrix(), dtype=float).reshape(d, r)
    section_real = rho @ np.array(section, dtype=float)
    span = _gram_schmidt(kernel_real) if r else np.zeros((0, d))
    if span.shape[0] != r:
        raise RankError(_too_degenerate(kernel, "realized kernel subspace is rank deficient"))
    complement = section_real.copy()
    for b in span:
        complement -= np.outer(b, b @ complement)
    p_matrix = _gram_schmidt(complement)
    if p_matrix.shape[0] != d1:
        raise RankError(_too_degenerate(kernel, "projection image is rank deficient"))

    # Python ints, as in project_index: a voltage need not fit an int64
    voltage1 = {eid: tuple(sum(r * c for r, c in zip(row, vec)) for row in q)
                for eid, vec in lattice.voltage.items()}
    sub_lattice = CrystalLattice(lattice.base, d1, voltage1)
    period1 = p_matrix @ section_real
    positions1 = {u: tuple(float(c) for c in p_matrix @ np.array(p))
                  for u, p in realization.positions.items()}
    try:
        sub_realization = Realization(positions1, tuple(map(tuple, period1)))
    except LatticeError as exc:
        raise LatticeError(_too_degenerate(kernel, f"quotient {exc}")) from None
    return QuotientData(lattice, realization, kernel, q, section, p_matrix,
                        sub_lattice, sub_realization)


def covering_fiber(qdata: QuotientData, quotient_vertex: tuple[int, tuple[int, ...]],
                   window: Window) -> list:
    """All window vertices of the cover mapping onto the given quotient vertex.

    The fiber is the set of (u, z) with the same base vertex whose index is
    congruent to the target modulo the kernel.
    """
    u1, z1 = quotient_vertex
    if not qdata.lattice.base.has_vertex(u1):
        raise LatticeError(f"unknown base vertex {u1}")
    if len(z1) != qdata.dim_quotient:
        raise LatticeError(f"quotient vertex {quotient_vertex} has the wrong dimension")
    hits = np.all(window.vertex_translations @ np.array(qdata.q, dtype=int).T
                  == np.array(z1, dtype=int), axis=1)
    return [window.vertices[i] for i in np.flatnonzero(hits) if window.vertices[i][0] == u1]


@dataclass(frozen=True)
class DiagramReport:
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def verify_diagram(qdata: QuotientData, radius: int = 3, tol: float = 1e-9) -> DiagramReport:
    """Max over window vertices of |P(point(x)) - point1(project(x))|."""
    win = instantiate_window(qdata.lattice, qdata.realization, radius)
    lhs = win.coords @ qdata.p_matrix.T
    rho1 = qdata.sub_realization.period_matrix()
    pos1 = qdata.sub_realization.position_array(qdata.lattice.base.vertices)
    projected = (win.vertex_translations @ np.array(qdata.q, dtype=int).T).astype(float)
    # a stack of matrix-vector products, rounded as rho1 @ z rounds one vertex
    rhs = np.tile(pos1, (len(win.indices), 1)) + (rho1 @ projected[:, :, None])[:, :, 0]
    dev = float(np.max(np.linalg.norm(lhs - rhs, axis=1))) if len(win.vertices) else 0.0
    return DiagramReport(dev, tol)
