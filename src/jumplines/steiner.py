"""Steiner matrix pencils of point configurations and their splitting types.

A configuration Z of m points yields a pencil A(l) = l0*A0 + l1*A1 + l2*A2
of (m-3) x (m-1) matrices: the multiplication map from functions-on-Z modulo
constants to functions-on-Z modulo linear evaluations, taken with fixed
affine lifts of the points.  Restricting to the pencil of lines through a
point x and reading off the Kronecker column minimal indices of the
restricted pencil decides whether the dual line of x is a jumping line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import kernels
from .algebra import DegenerateInputError, FieldSpec, Mat, mat_inverse, rank, rref
from .geom import PointConfig, Point, dual_line_basis


@dataclass(frozen=True)
class SteinerPencil:
    m: int
    A0: Mat
    A1: Mat
    A2: Mat
    config: PointConfig

    def matrices(self):
        return (self.A0, self.A1, self.A2)

    def member(self, l) -> Mat:
        """A(l) for a linear form l given by its three coefficients."""
        field = self.config.field
        ent = tuple(
            field.add(
                field.mul(l[0], self.A0.entries[i]),
                field.add(field.mul(l[1], self.A1.entries[i]), field.mul(l[2], self.A2.entries[i])),
            )
            for i in range(len(self.A0.entries))
        )
        return Mat(self.A0.rows, self.A0.cols, ent)

    def to_json(self) -> str:
        field = self.config.field
        payload = {
            "m": self.m,
            "A": [[field.to_json(v) for v in a.entries] for a in self.matrices()],
        }
        return json.dumps(payload, indent=2) + "\n"


def _complement_indices(field: FieldSpec, spanning_rows, width: int):
    """Standard-basis indices completing the row span to the full space."""
    _, _, pivots = rref(field, Mat.from_rows(spanning_rows))
    pivot_set = set(pivots)
    return [j for j in range(width) if j not in pivot_set]


def steiner_pencil(cfg: PointConfig) -> SteinerPencil:
    """Build the pencil presenting the configuration's direct-image bundle.

    The affine lifts are the normalized representatives.  The quotient bases
    are canonical complements: standard basis vectors away from the pivot
    columns of the constants row (for functions mod constants) and of the
    transpose lift matrix (for functions mod linear evaluations).
    """
    field = cfg.field
    m = len(cfg)
    if m < 4:
        raise DegenerateInputError("pencil needs at least 4 points")
    lifts = cfg.points

    # Complement of the constants inside k^m.
    w_idx = _complement_indices(field, [[field.one] * m], m)

    # Complement of the 3-dim space of linear evaluations inside k^m.
    lcols = [[lifts[i][k] for i in range(m)] for k in range(3)]
    c_idx = _complement_indices(field, lcols, m)
    if len(c_idx) != m - 3:
        raise DegenerateInputError("linear evaluations are degenerate on the lifts")

    # P = [L | e_j, j in complement]; the projection onto the complement
    # coordinates is the bottom block of P^-1.
    prows = []
    for i in range(m):
        row = [lifts[i][0], lifts[i][1], lifts[i][2]]
        row += [field.one if i == j else field.zero for j in c_idx]
        prows.append(row)
    pinv = mat_inverse(field, Mat.from_rows(prows))

    mats = []
    for k in range(3):
        rows = [[field.zero] * (m - 1) for _ in range(m - 3)]
        for col, j in enumerate(w_idx):
            scale = lifts[j][k]
            for i in range(m - 3):
                rows[i][col] = field.mul(scale, pinv.at(3 + i, j))
        mats.append(Mat.from_rows(rows))

    sp = SteinerPencil(m, mats[0], mats[1], mats[2], cfg)

    # Generic member must have full row rank (no trisecant-type degeneracy).
    probe_rank = 0
    for l in ((field.one, field.zero, field.zero),
              (field.zero, field.one, field.zero),
              (field.zero, field.zero, field.one),
              (field.one, field.one, field.of(2)),
              (field.one, field.of(2), field.of(3))):
        probe_rank = max(probe_rank, rank(field, sp.member(l)))
        if probe_rank == m - 3:
            break
    if probe_rank != m - 3:
        raise DegenerateInputError("pencil has deficient generic rank")
    return sp


def restrict_to_dual_line(sp: SteinerPencil, x: Point):
    """(B0, B1) = (A(l0), A(l1)) for the canonical basis of lines through x."""
    l0, l1 = dual_line_basis(sp.config.field, x)
    return sp.member(l0), sp.member(l1)


def minimal_indices(field: FieldSpec, b0: Mat, b1: Mat, want: int | None = None):
    """Kronecker column minimal indices of the pencil s*B0 + t*B1, ascending.

    Column staircase (Van Dooren 1979): at level k, the kernel K of B0 has
    dimension nu and B1*K has rank mu, so nu - mu indices equal k; clearing
    B1*K by row operations, then dropping its mu pivot rows and the nu kernel
    columns, leaves the pencil of level k + 1.  Requires full generic row
    rank; the number of indices is then cols - rows.  Runs over any field: it
    backs `splitting_type` over Q and is the reference the scan kernels are
    tested against, as `pencil_nullity` is its own.
    """
    if b0.rows != b1.rows or b0.cols != b1.cols:
        raise ValueError("pencil matrices must share a shape")
    rows, cols = b0.rows, b0.cols
    if want is None:
        want = cols - rows
    # the generic rank is probed on the members (s, t) = (1, 0), (0, 1),
    # (1, 1), (1, 2), (1, 3); the first is B0, whose rank level 0's RREF gives
    red, rho, piv = rref(field, b0)
    probe_rank = rho
    for s, t in ((field.zero, field.one), (field.one, field.one),
                 (field.one, field.of(2)), (field.one, field.of(3))):
        if probe_rank == rows:
            break
        ent = tuple(field.add(field.mul(s, a), field.mul(t, b)) for a, b in zip(b0.entries, b1.entries))
        probe_rank = max(probe_rank, rank(field, Mat(rows, cols, ent)))
    if probe_rank < rows:
        raise ArithmeticError("pencil is rank deficient for generic members")
    if cols - rows < want:
        raise ArithmeticError("pencil kernel is too small")
    found = []
    level = 0
    while len(found) < want:
        if level:
            red, rho, piv = rref(field, b0)
        free = [j for j in range(b0.cols) if j not in piv]
        nu = len(free)
        if nu == 0:
            raise ArithmeticError("minimal indices not found within the degree cap")
        # [B1*K | B0 on pivot columns | B1 on pivot columns]; kernel column f
        # of K is e_f - sum_t red[t][f] e_piv[t]
        aug = []
        for i in range(b0.rows):
            row0, row1 = b0.row(i), b1.row(i)
            for f in free:
                acc = row1[f]
                for t in range(rho):
                    acc = field.sub(acc, field.mul(red.at(t, f), row1[piv[t]]))
                aug.append(acc)
            aug += [row0[j] for j in piv] + [row1[j] for j in piv]
        # every pivot in the B1*K columns comes first; the later ones only
        # combine the rows that are kept, which leaves their indices alone
        width = nu + 2 * rho
        out, _, apiv = rref(field, Mat(b0.rows, width, tuple(aug)))
        mu = sum(1 for c in apiv if c < nu)
        found += [level] * (nu - mu)
        keep = range(mu, b0.rows)
        b0 = Mat(len(keep), rho, tuple(out.at(i, j) for i in keep for j in range(nu, nu + rho)))
        b1 = Mat(len(keep), rho, tuple(out.at(i, j) for i in keep for j in range(nu + rho, width)))
        level += 1
    return tuple(found[:want])


def pencil_nullity(field: FieldSpec, b0: Mat, b1: Mat, d: int) -> int:
    """Nullity N_d of the degree-d coefficient map of the pencil."""
    rows, cols = b0.rows, b0.cols
    bigr, bigc = rows * (d + 2), cols * (d + 1)
    m = [[field.zero] * bigc for _ in range(bigr)]
    for r in range(rows):
        for e in range(cols):
            v0, v1 = b0.at(r, e), b1.at(r, e)
            for k in range(d + 1):
                col = e * (d + 1) + k
                m[r * (d + 2) + k][col] = field.add(m[r * (d + 2) + k][col], v0)
                m[r * (d + 2) + k + 1][col] = field.add(m[r * (d + 2) + k + 1][col], v1)
    return bigc - rank(field, Mat.from_rows(m))


def splitting_type(sp: SteinerPencil, x: Point) -> tuple:
    """Splitting degrees (eps1, eps2), ascending, on the dual line of x: the
    restricted pencil's kernel degrees plus one (the twist), so that eps1 +
    eps2 = m - 1 and the balanced generic value of eps1 is floor((m-1)/2).
    Over F_p this is a one-point `splitting_scan`."""
    if sp.config.field.kind == "fp":
        eps1, eps2 = splitting_scan(sp, list(x))
        return eps1[0], eps2[0]
    b0, b1 = restrict_to_dual_line(sp, x)
    d1, d2 = minimal_indices(sp.config.field, b0, b1, want=2)
    return d1 + 1, d2 + 1


def generic_eps1(m: int) -> int:
    """Balanced value of eps1; anything below it is a jumping line."""
    return (m - 1) // 2


def jumping_order(sp: SteinerPencil, x: Point) -> int:
    """How far eps1 at x falls below the balanced value (0 = not jumping)."""
    return generic_eps1(sp.m) - splitting_type(sp, x)[0]


def splitting_scan(sp: SteinerPencil, pts_flat, threads: int = 1):
    """(eps1, eps2) columns of the splitting types at many points (prime fields only).

    The points are one flat list of coordinates (`flat_coords`) or a
    `geom.PlaneCoords` range of plane rows.  Two `array('i')` columns, one
    entry per point, in the order of the points, the same for every thread
    count (`kernels.scan_in_chunks`).
    """
    field = sp.config.field
    if field.kind != "fp":
        raise ValueError("scans require a prime field")
    a0, a1, a2 = ([int(v) for v in a.entries] for a in sp.matrices())
    rows, cols = sp.A0.rows, sp.A0.cols

    def run(chunk):
        return kernels.splitting_scan(a0, a1, a2, rows, cols, chunk, field.p)

    return kernels.scan_in_chunks(run, pts_flat, threads)
