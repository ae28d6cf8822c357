"""Jumping-line scans, the eliminant pipeline and the structural cross checks.

The main theorem this library exercises says: for an even configuration Z of
2n points in linear general position (n >= 2), the jumping lines of the
associated logarithmic bundle are the points of Z (with order n-2) together
with the finite set Gamma of points x admitting a degree-(n-1) curve through
Z with an (n-2)-fold point at x (order 1); for an odd configuration of 2n+1
points they are the zero locus of the monoidal determinant.  Everything here
verifies those statements pointwise over a prime field, by exhaustive scans
(the ninth base point of the cubic pencil through 8 points among them) and by
resultant elimination.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass

from . import kernels
from .algebra import (
    DegenerateInputError,
    FieldSpec,
    Mat,
    det,
    kernel_basis,
    mat_inverse,
    up_divrem,
    up_gcd,
    up_eval,
)
from .forms import (
    HForm,
    MonoidalFamily,
    _dot,
    _jets_at,
    _symbolic_jet_rows,
    curves_through,
    gamma_minor_matrix,
    hf_eval,
    hf_div_exact,
    hf_is_zero,
    hf_mul,
    hf_normalize,
    hf_partial,
    hf_sub,
    monomials,
    monoidal_det,
    monoidal_family,
    require_interpolation_grid,
    restrict_to_vertical_line,
    scan_form_matrix,
    sylvester_resultant,
    binary_form_to_upoly,
)
from .geom import (
    PlaneCoords,
    PointConfig,
    Point,
    flat_coords,
    normalize_point,
    plane_index,
    plane_point,
    plane_points,
)
from .intersect import length_accounting
from .steiner import generic_eps1, splitting_scan, steiner_pencil


class VerificationError(AssertionError):
    """A structural identity failed on concrete input (with a witness)."""


# ---------------------------------------------------------------------------
# Batch evaluation helpers (prime field)
# ---------------------------------------------------------------------------


def eval_form_on_points(field: FieldSpec, f: HForm, flat):
    """Values of f at the points given as one flat list of coordinates or as
    a `geom.PlaneCoords` range of plane rows: the kernel's column."""
    if field.kind != "fp":
        raise ValueError("batch evaluation needs a prime field")
    coeffs = [int(c) for c in f.coeffs]
    exps = [v for e in monomials(f.degree) for v in e]
    return kernels.eval_form_many(coeffs, exps, flat, field.p)


def rank_drops(field: FieldSpec, rows, flat, threads: int = 1) -> list:
    """Positions, ascending, of the points where the matrix of forms `rows`
    loses column rank.

    The points are given as one flat list of coordinates (`flat_coords`) or
    as a `geom.PlaneCoords` range of plane rows, whose positions are then
    counted from the range's first row.  The fat-point test: with a
    system's order-k partials as rows and its members as columns, the rank
    drops at x iff some member has all order-k partials zero at x.  One
    kernel call, or one per thread's chunk of the points, evaluates and
    ranks at every point; the entries must share one degree.
    """
    ranks, _ = scan_form_matrix(field, rows, flat, threads)
    return kernels.rows_below(ranks, len(rows[0]))


# ---------------------------------------------------------------------------
# The extra jumping points Gamma
# ---------------------------------------------------------------------------


def gamma_scan(cfg: PointConfig, threads: int = 1):
    """(gamma points, configuration points hitting the fat-point condition).

    Gamma is the set of plane points outside the configuration where the
    symbolic jet matrix drops rank, i.e. where some degree-(n-1) curve
    through the 2n points is (n-2)-fold singular.  The second list must be
    empty for the disjoint-union statement to hold.  One kernel call scans
    every row of the plane, or one per range of rows on `threads` threads.
    """
    field = cfg.field
    if field.kind != "fp":
        raise ValueError("exhaustive scans need a prime field")
    m = len(cfg)
    if m % 2:
        raise DegenerateInputError("gamma scan needs an even configuration")
    n = m // 2
    if n <= 3:
        return [], []
    p = field.p
    zrows = set(_rows_of(p, cfg.points))
    drops = rank_drops(field, gamma_minor_matrix(cfg), PlaneCoords.whole(p), threads)
    gamma = [plane_point(p, i) for i in drops if i not in zrows]
    zhits = [plane_point(p, i) for i in drops if i in zrows]
    return sorted(gamma), zhits


def gamma_points(cfg: PointConfig) -> list:
    """All rational points carrying the extra-jumping condition, sorted."""
    return gamma_scan(cfg)[0]


# ---------------------------------------------------------------------------
# Exhaustive jumping scan
# ---------------------------------------------------------------------------


_CSV_HEADER = "x0,x1,x2,eps1,eps2,order,in_z,in_gamma\n"


def _rows_of(p: int, marked) -> list:
    """Row indices, ascending, of the plane points `marked` over F_p."""
    return sorted(plane_index(p, pt) for pt in marked)


@dataclass
class JumpingReport:
    """A full-plane scan, kept as columns: row i is the point
    `plane_point(p, i)` with its splitting type (`eps1[i]`, `eps2[i]`).

    The points, the jumping order and the Z and Gamma flags of each row are
    derived from p, the configuration and `gamma`.
    """

    config: PointConfig
    epsilon: int  # 1 for an even configuration (finite jumping scheme), 0 otherwise
    n: int
    eps1: array
    eps2: array
    gamma: tuple
    counts: dict
    verdicts: dict
    witness: Point | None
    reseeds: int = 0
    seed: int | None = None

    @property
    def points(self) -> list:
        """The scanned plane points, in row order."""
        return plane_points(self.config.field.p)

    def all_verdicts_true(self) -> bool:
        return all(self.verdicts.values())

    def order(self) -> list:
        """Jumping order of every row: how far eps1 falls below its generic value."""
        top = generic_eps1(len(self.config))
        return [top - e for e in self.eps1]

    def order_at(self, row: int) -> int:
        """The jumping order of one row."""
        return generic_eps1(len(self.config)) - self.eps1[row]

    def jumping_rows(self) -> list:
        """The rows of order >= 1, ascending."""
        return kernels.rows_below(self.eps1, generic_eps1(len(self.config)))

    def z_rows(self) -> list:
        """The rows of the configuration points, ascending."""
        return _rows_of(self.config.field.p, self.config.points)

    def _formatted_rows(self, csv: bool) -> str:
        p = self.config.field.p
        top = generic_eps1(len(self.config))
        return kernels.report_rows(p, self.eps1, self.eps2, top, self.z_rows(), _rows_of(p, self.gamma), csv)

    def json_parts(self) -> tuple:
        """The JSON report as three parts, to be written one after another:
        the head up to the "records" list, its rows, and the tail."""
        f = self.config.field
        payload = {
            "config": {
                "field": f.tag,
                "points": [[f.to_json(c) for c in pt] for pt in self.config.points],
            },
            "epsilon": self.epsilon,
            "n": self.n,
            "seed": self.seed,
            "reseeds": self.reseeds,
            "counts": self.counts,
            "verdicts": self.verdicts,
            "witness": list(self.witness) if self.witness is not None else None,
            "gamma": [[f.to_json(c) for c in pt] for pt in self.gamma],
            "records": [],
        }
        head = json.dumps(payload, indent=2)
        # "records" is the last key: its rows go between the "[" and the "]\n}" closing it
        return head[:-3] + "\n", self._formatted_rows(csv=False), "\n  ]\n}\n"

    def csv_parts(self) -> tuple:
        """The CSV report as its header and its rows."""
        return _CSV_HEADER, self._formatted_rows(csv=True)

    def to_json(self) -> str:
        return "".join(self.json_parts())

    def to_csv(self) -> str:
        return "".join(self.csv_parts())


def jumping_scan(cfg: PointConfig, threads: int = 1) -> JumpingReport:
    """Scan every point of the plane and test the structural theorem.

    Even configuration (2n points): the jumping set must be exactly
    Z union Gamma with orders n-2 and 1.  Odd configuration (2n+1 points):
    the jumping set must be exactly the zero locus of the monoidal
    determinant.  Any pointwise failure flips the corresponding verdict, and
    the witness is the first plane point, in scan order, that fails a check;
    nothing fails silently.  The kernels scan the plane by row index and
    return columns; the checks visit only the rows that jump, vanish or are
    marked.
    """
    field = cfg.field
    if field.kind != "fp":
        raise ValueError("exhaustive scans need a prime field")
    m = len(cfg)
    p = field.p
    plane = PlaneCoords.whole(p)
    sp = steiner_pencil(cfg)
    eps1, eps2 = splitting_scan(sp, plane, threads=threads)
    top = generic_eps1(m)
    jumping = set(kernels.rows_below(eps1, top))
    zrows = _rows_of(p, cfg.points)

    even = m % 2 == 0
    n = m // 2 if even else (m - 1) // 2
    verdicts: dict = {}
    counts: dict = {"m": m, "n": n, "p": p, "plane_points": plane.stop}

    if even:
        # below 8 points there is no Gamma; the guard keeps every gamma_scan call a scan
        gamma, zhits = gamma_scan(cfg, threads) if n > 3 else ([], [])
        grows = _rows_of(p, gamma)
        z_order = n - 2
        bad_set = jumping ^ set(grows + (zrows if z_order >= 1 else []))
        bad_zorder = {i for i in zrows if top - eps1[i] != z_order}
        bad_gorder = {i for i in grows if top - eps1[i] != 1}
        bad = bad_set | bad_zorder | bad_gorder
        verdicts["jumping_set_is_z_union_gamma"] = not bad_set
        verdicts["order_on_z_is_n_minus_2"] = not bad_zorder
        verdicts["order_on_gamma_is_1"] = not bad_gorder
        verdicts["gamma_disjoint_from_z"] = not zhits
        total, z_part, gamma_part = length_accounting(n)
        counts["gamma_rational"] = len(gamma)
        counts["length_total"] = total
        counts["length_z_part"] = z_part
        counts["length_gamma_part"] = gamma_part
        verdicts["length_split_consistent"] = total == z_part + gamma_part
        report_gamma = tuple(gamma)
    else:
        mono = monoidal_det(cfg)
        # the values are residues, so the rows below 1 are the zeros
        zeros = set(kernels.rows_below(eval_form_on_points(field, mono, plane), 1))
        bad = jumping ^ zeros
        verdicts["jumping_set_is_monoidal_zero_locus"] = not bad
        # a nonzero determinant of quadric entries has degree n(n-1)
        verdicts["monoidal_degree_is_n_times_n_minus_1"] = not hf_is_zero(field, mono)
        counts["monoidal_degree"] = mono.degree
        counts["monoidal_zeros"] = len(zeros)
        report_gamma = ()
    counts["jumping_points"] = len(jumping)

    return JumpingReport(
        config=cfg,
        epsilon=1 if even else 0,
        n=n,
        eps1=eps1,
        eps2=eps2,
        gamma=report_gamma,
        counts=counts,
        verdicts=verdicts,
        witness=plane_point(p, min(bad)) if bad else None,
    )


# ---------------------------------------------------------------------------
# Random coordinate changes
# ---------------------------------------------------------------------------

# coordinate changes the eliminant pipeline draws before giving up
_TRANSFORM_RETRIES = 24


def _random_transform(field: FieldSpec, rng):
    while True:
        if field.kind == "fp":
            ent = tuple(field.of(rng.randrange(field.p)) for _ in range(9))
        else:
            ent = tuple(field.of(rng.randint(-9, 9)) for _ in range(9))
        t = Mat(3, 3, ent)
        if not field.is_zero(det(field, t)):
            return t, mat_inverse(field, t)


def _apply_transform(field: FieldSpec, t: Mat, pt: Point) -> Point:
    out = []
    for i in range(3):
        acc = field.zero
        for j in range(3):
            acc = field.add(acc, field.mul(t.at(i, j), pt[j]))
        out.append(acc)
    return normalize_point(field, out)


def _transform_config(cfg: PointConfig, t: Mat) -> PointConfig:
    return PointConfig(tuple(_apply_transform(cfg.field, t, pt) for pt in cfg.points), cfg.field)


# ---------------------------------------------------------------------------
# The eliminant pipeline for 8 points
# ---------------------------------------------------------------------------


@dataclass
class Pencil4Result:
    r12: list
    r16: list
    r4: list
    transform: Mat
    transform_inv: Mat
    attempts: int
    minors: tuple  # (M01, M02) in transformed coordinates
    pencil_basis: tuple  # (f0, f1) in transformed coordinates


def pencil4_eliminant(cfg: PointConfig) -> Pencil4Result:
    """Eliminate the singular-point conditions of the cubic pencil through 8 points.

    With pencil basis (f0, f1) and the 2x2 minors M01, M02 of the matrix of
    gradients [grad f0 | grad f1], the resultant R16 = Res_{x2}(M01, M02)
    has degree 16 and splits off R4 = Res_{x2}(d0 f0, d0 f1), the Bezout
    factor of the shared gradient row; the exact quotient R12 of degree 12
    cuts out the projection of Gamma.  A recorded random coordinate change
    keeps every leading coefficient nonzero; degenerate draws are retried.
    """
    field = cfg.field
    if len(cfg) != 8:
        raise DegenerateInputError("the eliminant pipeline needs exactly 8 points")
    # no coordinate change helps a field too small for the degree-16 resultant
    require_interpolation_grid(field, "resultant", 16)
    rng = random.Random(f"jumplines:pencil4:{field.tag}:0")
    last = "no attempt"
    for attempt in range(1, _TRANSFORM_RETRIES + 1):
        t, tinv = _random_transform(field, rng)
        zt = _transform_config(cfg, t)
        system = curves_through(zt, 3)
        if system.dim() != 2:
            raise DegenerateInputError("cubics through the 8 points do not form a pencil")
        f0, f1 = system.basis
        g = [[hf_partial(field, f, i) for f in (f0, f1)] for i in range(3)]
        m01 = _two_by_two(field, g[0], g[1])
        m02 = _two_by_two(field, g[0], g[2])
        try:
            r16 = binary_form_to_upoly(field, sylvester_resultant(field, m01, m02))
            r4 = binary_form_to_upoly(field, sylvester_resultant(field, g[0][0], g[0][1]))
        except DegenerateInputError as exc:
            last = str(exc)
            continue
        if len(r16) != 17 or len(r4) != 5:
            last = f"degrees {len(r16) - 1}/{len(r4) - 1}, want 16/4"
            continue
        q, rem = up_divrem(field, r16, r4)
        if rem or len(q) != 13:
            last = "inexact division R16 / R4"
            continue
        return Pencil4Result(
            r12=q, r16=r16, r4=r4, transform=t, transform_inv=tinv,
            attempts=attempt, minors=(m01, m02), pencil_basis=(f0, f1),
        )
    raise DegenerateInputError(f"eliminant pipeline failed after {_TRANSFORM_RETRIES} coordinate changes ({last})")


def _two_by_two(field: FieldSpec, rowa, rowb) -> HForm:
    return hf_sub(field, hf_mul(field, rowa[0], rowb[1]), hf_mul(field, rowa[1], rowb[0]))


def lift_eliminant_roots(cfg: PointConfig, res: Pencil4Result) -> list:
    """Lift the rational roots of R12 back to plane points (original coordinates).

    Each root t gives the projection (1 : t) of a singular point of a pencil
    member; the fiber is recovered from the gcd of the two minors restricted
    to the line x0 = 1, x1 = t.  M01 and M02 also vanish where the first
    gradient row does (the R4 factor), so a point is kept only where the
    third minor M12 vanishes too.  Returns the lifted points, sorted.
    """
    field = cfg.field
    if field.kind != "fp":
        raise ValueError("root lifting needs a prime field")
    p = field.p
    m01, m02 = res.minors
    g = [[hf_partial(field, f, i) for f in res.pencil_basis] for i in (1, 2)]
    m12 = _two_by_two(field, g[0], g[1])
    out = set()
    for tval in range(p):
        if up_eval(field, res.r12, field.of(tval)) != 0:
            continue
        a, b, c = (restrict_to_vertical_line(field, f, tval) for f in (m01, m02, m12))
        gcd = up_gcd(field, a, b)
        for cval in range(p):
            if up_eval(field, gcd, field.of(cval)) == 0 and up_eval(field, c, field.of(cval)) == 0:
                pt = _apply_transform(field, res.transform_inv, (field.one, field.of(tval), field.of(cval)))
                out.add(pt)
    return sorted(out)


# ---------------------------------------------------------------------------
# The ninth base point of the cubic pencil
# ---------------------------------------------------------------------------


def ninth_point(cfg: PointConfig) -> Point:
    """Residual base point of the pencil of cubics through 8 general points.

    Over F_p the ninth base point is rational, so one scan of the plane
    finds it: the matrix of the two basis cubics has rank 0 exactly at the
    base points, which must be the 8 points and one more.
    """
    field = cfg.field
    if field.kind != "fp":
        raise ValueError("the ninth point scan needs a prime field")
    if len(cfg) != 8:
        raise DegenerateInputError("the ninth point needs exactly 8 points")
    system = curves_through(cfg, 3)
    if system.dim() != 2:
        raise DegenerateInputError("cubics through the 8 points do not form a pencil")
    f0, f1 = system.basis
    base = rank_drops(field, [[f0], [f1]], PlaneCoords.whole(field.p))
    extra = set(base).difference(_rows_of(field.p, cfg.points))
    if len(base) != 9 or len(extra) != 1:
        raise DegenerateInputError(f"the cubic pencil has {len(base)} rational base points, {len(extra)} off Z; want 9 and 1")
    return plane_point(field.p, extra.pop())


# ---------------------------------------------------------------------------
# Monoidal containment and base-locus checks
# ---------------------------------------------------------------------------


def _family_for(cfg: PointConfig, family: MonoidalFamily | None) -> MonoidalFamily:
    if family is None:
        return monoidal_family(cfg)
    if family.config != cfg:
        raise ValueError("the monoidal family belongs to another configuration")
    return family


def containment_monoidal(report: JumpingReport, x_extra: Point, family: MonoidalFamily | None = None) -> bool:
    """Does the monoidal curve of the augmented configuration contain Z and Gamma?

    `family` is the configuration's `monoidal_family`, built here when not given.
    """
    cfg = report.config
    field = cfg.field
    rows = _family_for(cfg, family).matrix(normalize_point(field, x_extra))
    marked = cfg.points + report.gamma
    return len(rank_drops(field, rows, flat_coords(marked))) == len(marked)


def _valid_extra_point(cfg: PointConfig, rng, family: MonoidalFamily | None = None) -> Point:
    field = cfg.field
    family = _family_for(cfg, family)
    for _ in range(500):
        coords = (rng.randrange(field.p), rng.randrange(field.p), rng.randrange(field.p))
        if not any(coords):
            continue
        x = normalize_point(field, coords)
        if family.reject(x) is None:
            return x
    raise DegenerateInputError("no valid augmenting point found")


_BASE_LOCUS_CURVES = 16


def base_locus_equality(report: JumpingReport, seed: int, family: MonoidalFamily | None = None):
    """Intersect the zero sets of augmented monoidal curves, drawn until the
    intersection over all plane points is Z union the report's Gamma.

    Returns ``(equal, intersection, curves drawn)``.  It fails once the
    intersection misses a point of Z union Gamma, or after
    `_BASE_LOCUS_CURVES` curves.  The first curve is ranked at every row of
    the plane, later ones only at the points still in the intersection.
    `family` is the configuration's `monoidal_family`, built here when not
    given.
    """
    cfg = report.config
    field = cfg.field
    family = _family_for(cfg, family)
    rng = random.Random(f"jumplines:baselocus:{field.tag}:{seed}")
    want = set(cfg.points + report.gamma)
    alive = None  # the whole plane, until a curve is ranked
    for curves in range(1, _BASE_LOCUS_CURVES + 1):
        rows = family.matrix(_valid_extra_point(cfg, rng, family))
        if alive is None:
            alive = [plane_point(field.p, i) for i in rank_drops(field, rows, PlaneCoords.whole(field.p))]
        else:
            alive = [alive[i] for i in rank_drops(field, rows, flat_coords(alive))]
        found = set(alive)
        if found == want or not want <= found:
            break
    return found == want, found, curves


# ---------------------------------------------------------------------------
# Factorization of the fat-point system at an extra jumping point
# ---------------------------------------------------------------------------


@dataclass
class PinceauResult:
    common_factor: HForm
    members: tuple
    lines: tuple


def pinceau_factorization(cfg: PointConfig, x: Point, family: MonoidalFamily | None = None) -> PinceauResult:
    """Split the fat-point system at an extra jumping point x.

    For 2n points and x in Gamma the degree-n curves through Z with an
    (n-1)-fold point at x form a system of dimension >= 2 whose members all
    share a degree-(n-1) factor c: the one curve through Z that is
    (n-2)-fold singular at x; the residual factors are lines through x.  c
    is predicted as the kernel of the order-(n-3) jets of the degree-(n-1)
    system at x, and two independent members must each be c times a line
    through x, so c is their gcd.  Violations raise VerificationError (they
    would falsify the factorization statement).  Both systems and their
    jets come from `family`, the configuration's `monoidal_family`, built
    here when not given.
    """
    field = cfg.field
    m = len(cfg)
    if m % 2 or m // 2 < 4:
        raise DegenerateInputError("needs an even configuration of at least 8 points")
    n = m // 2
    x = normalize_point(field, x)
    family = _family_for(cfg, family)
    combos = kernel_basis(field, _jets_at(field, family.jets, x))
    if len(combos) < 2:
        raise VerificationError(f"fat-point system at {x} has dimension {len(combos)} < 2")
    members = [_combine(field, v, family.system.basis) for v in combos[:2]]
    singular = kernel_basis(field, _jets_at(field, family.gamma_jets, x))
    if len(singular) != 1:
        raise VerificationError(
            f"{len(singular)} independent degree-{n - 1} curves through Z are {n - 2}-fold singular at {x}, want 1"
        )
    c = hf_normalize(field, _combine(field, singular[0], family.gamma_system.basis))
    lines = []
    for g in members:
        try:
            line = hf_div_exact(field, g, c)
        except ValueError:
            raise VerificationError(f"the curve singular at {x} does not divide a member of its fat-point system") from None
        if not field.is_zero(hf_eval(field, line, x)):
            raise VerificationError("residual factor is not a line through x")
        lines.append(line)
    return PinceauResult(common_factor=c, members=tuple(members), lines=tuple(lines))


def _combine(field: FieldSpec, v, basis) -> HForm:
    """The member sum(v_j * basis_j) of a linear system."""
    return HForm(basis[0].degree, tuple(_dot(field, v, col) for col in zip(*(f.coeffs for f in basis))))


# ---------------------------------------------------------------------------
# Pointwise equivalence of the pencil test and the fat-point test
# ---------------------------------------------------------------------------


def lien_equivalence(report: JumpingReport):
    """Check: a dual line jumps iff some fat-point system is nonempty.

    For every scanned x outside the configuration, the order at x being >= 1
    must be equivalent to fat_point_dim(z, x, a, a+1) >= 1 for some a below
    the balanced index floor((m-1)/2).  Configuration points are skipped (the
    ideal-sheaf translation of the jumping test is only valid away from Z).
    Each system is ranked at every row of the plane in one kernel call, and
    only the rows that jump or drop rank are compared.  Returns (ok,
    witness), the first failing point in scan order.
    """
    cfg = report.config
    field = cfg.field
    top = generic_eps1(len(cfg))
    if 0 < field.characteristic() <= top:
        raise ValueError("jet reduction needs characteristic 0 or p > degree")
    plane = PlaneCoords.whole(field.p)
    fat = set()
    for a in range(1, top):
        system = curves_through(cfg, a + 1)
        if system.dim():
            fat.update(rank_drops(field, _symbolic_jet_rows(field, system, a - 1), plane))
    bad = (set(report.jumping_rows()) ^ fat).difference(report.z_rows())
    witness = plane_point(field.p, min(bad)) if bad else None
    return witness is None, witness
