import inspect
import json
import os
import random
import re
from array import array
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from jumplines.algebra import RATIONALS, Mat, det, mat_mul, prime_field, rank
from jumplines.forms import HForm, basis_size, hf_add, hf_eval, hf_mul, hf_zero, monomials
from jumplines.geom import PlaneCoords, PointConfig, dual_line_basis, flat_coords, plane_points, random_config
from jumplines.jumping import jumping_scan, rank_drops
import jumplines.kernels
from jumplines.kernels import (
    BACKEND,
    COMPILED_P_LIMIT,
    backends,
    eval_form_many,
    form_matrix_scan,
    impl_for,
    rank_mod_p,
    report_rows,
)
from jumplines.steiner import (
    generic_eps1,
    minimal_indices,
    pencil_nullity,
    steiner_pencil,
)

F101 = prime_field(101)
IMPLS = backends()
C_SOURCE = Path(__file__).resolve().parent.parent / "src" / "jumplines" / "_fastkern.c"
# smallest prime above 2**32: residue products overflow signed 64-bit integers
LARGE_P = 4294967311


def _have_c_toolchain():
    cc = sysconfig.get_config_var("CC")
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None and header.exists()


@pytest.mark.skipif(not _have_c_toolchain(), reason="no C compiler or Python.h to build the kernel")
def test_backends_present(kernel_build):
    assert "pure" in IMPLS
    # the in-tree build (tests/conftest.py) compiles the committed _fastkern.c
    compiled = IMPLS.get("compiled")
    fresh = compiled is not None and os.path.getmtime(compiled.__file__) >= os.path.getmtime(C_SOURCE)
    assert fresh, (
        "compiled kernel missing or older than _fastkern.c; "
        "python setup.py build_ext --inplace reported:\n" + kernel_build.stderr
    )


def test_backend_selected_by_prime_size():
    forced_pure = os.environ.get("JUMPLINES_PURE") == "1"
    assert BACKEND == ("compiled" if "compiled" in IMPLS and not forced_pure else "pure")
    assert impl_for(101).BACKEND == BACKEND
    assert impl_for(COMPILED_P_LIMIT - 1).BACKEND == BACKEND
    assert impl_for(COMPILED_P_LIMIT).BACKEND == "pure"
    assert impl_for(LARGE_P).BACKEND == "pure"


def _pencil_pair(scan, b0, b1, rows, cols, p):
    """The two smallest column minimal indices of s*B0 + t*B1 (flat int
    lists), by the splitting scan `scan` (a backend's, or the dispatcher's)
    at the one point (1:0:0): its dual basis is (e1, e2), so with A0 = 0,
    A1 = B0 and A2 = B1 the restricted pencil is (B0, B1) itself."""
    eps1, eps2 = scan([0] * (rows * cols), b0, b1, rows, cols, [1, 0, 0], p)
    return eps1[0] - 1, eps2[0] - 1


def test_every_dispatched_kernel_exists_on_both_backends():
    # the names jumplines.kernels passes on to a backend module, read off its source
    called = set(re.findall(r"(?:impl_for\(p\)|_impl)\.(\w+)\(", inspect.getsource(jumplines.kernels)))
    assert {"rank_mod_p", "splitting_scan", "form_matrix_scan", "report_rows"} <= called
    for impl in IMPLS.values():
        assert all(callable(getattr(impl, name, None)) for name in called), impl.BACKEND
    # one staircase entry per backend: the per-pencil entry is gone
    for module in (jumplines.kernels, *IMPLS.values()):
        assert not hasattr(module, "pencil_kernel_degrees")


def _low_rank(rng, rows, cols, k, p):
    """A random rows x cols matrix of rank <= k, as a product (rows x k)(k x cols)."""
    u = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
    v = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    return [sum(u[i][t] * v[t][j] for t in range(k)) % p for i in range(rows) for j in range(cols)]


def test_rank_large_prime_low_rank():
    # full-rank random matrices stay full rank under wrapped arithmetic, so
    # only rank-deficient ones expose an overflowing elimination
    field = prime_field(LARGE_P)
    rng = random.Random(11)
    for _ in range(60):
        r, c = rng.randint(2, 7), rng.randint(2, 7)
        flat = _low_rank(rng, r, c, rng.randint(1, min(r, c) - 1), LARGE_P)
        expect = rank(field, Mat(r, c, tuple(flat)))
        assert rank_mod_p(list(flat), r, c, LARGE_P) == expect
        assert IMPLS["pure"].rank_mod_p(list(flat), r, c, LARGE_P) == expect


def test_pencil_degrees_large_prime_low_rank():
    # B0, B1 of rank 2 each: the 3 x 6 pencil is generically of full row rank,
    # but every rank the kernel takes on the way is of a deficient matrix
    field = prime_field(LARGE_P)
    rng = random.Random(12)
    rows, cols = 3, 6
    for _ in range(12):
        b0 = _low_rank(rng, rows, cols, 2, LARGE_P)
        b1 = _low_rank(rng, rows, cols, 2, LARGE_P)
        pair = _pencil_pair(jumplines.kernels.splitting_scan, b0, b1, rows, cols, LARGE_P)
        assert pair == _pencil_pair(IMPLS["pure"].splitting_scan, b0, b1, rows, cols, LARGE_P)
        # all three indices e must reproduce the nullities N_d = sum(max(0, d - e + 1))
        m0, m1 = Mat(rows, cols, tuple(b0)), Mat(rows, cols, tuple(b1))
        degs = minimal_indices(field, m0, m1)
        assert degs[:2] == pair
        _check_nullities(field, m0, m1, degs)


def test_rank_matches_generic_linalg():
    rng = random.Random(1)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        flat = [rng.randrange(101) for _ in range(r * c)]
        expect = rank(F101, Mat(r, c, tuple(flat)))
        for impl in IMPLS.values():
            assert impl.rank_mod_p(list(flat), r, c, 101) == expect


def _kronecker_pencil(rng, lams):
    """A random pencil in Kronecker form (`_kronecker_blocks`) whose finite
    blocks take their eigenvalues from lams."""
    sizes = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
    finite = [(rng.randint(1, 2), rng.choice(lams)) for _ in range(rng.randint(0, 2))]
    infinite = [rng.randint(1, 2) for _ in range(rng.randint(0, 1))]
    return _kronecker_blocks(sizes, finite, infinite)


def _kronecker_blocks(sizes, finite, infinite):
    """The pencil s*B0 + t*B1 in Kronecker form, as row lists with int entries.

    L blocks of sizes e (e x (e+1): B0 = [I | 0], B1 = [0 | I]), finite
    Jordan blocks (k, lam) (B0 = I, B1 = J(lam), singular where s + t*lam =
    0) and infinite ones of sizes k (B0 nilpotent, B1 = I, singular where
    t = 0).  Returns (rows, cols, B0, B1, L sizes, lams of the finite
    blocks, number of infinite blocks).
    """
    rows = sum(sizes) + sum(k for k, _ in finite) + sum(infinite)
    cols = rows + len(sizes)
    b0 = [[0] * cols for _ in range(rows)]
    b1 = [[0] * cols for _ in range(rows)]
    r = c = 0
    for e in sizes:
        for i in range(e):
            b0[r + i][c + i] = 1
            b1[r + i][c + i + 1] = 1
        r, c = r + e, c + e + 1
    for k, lam in finite:
        for i in range(k):
            b0[r + i][c + i] = 1
            b1[r + i][c + i] = lam
            if i + 1 < k:
                b1[r + i][c + i + 1] = 1
        r, c = r + k, c + k
    for k in infinite:
        for i in range(k):
            b1[r + i][c + i] = 1
            if i + 1 < k:
                b0[r + i][c + i + 1] = 1
        r, c = r + k, c + k
    return rows, cols, b0, b1, sizes, [lam for _, lam in finite], len(infinite)


def _probes_find_full_rank(field, lams, n_infinite):
    """Whether one of the kernels' five probe members (s, t) is regular on every
    Jordan block; the L blocks have full row rank at every (s, t) != 0."""
    for s, t in ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3)):
        s, t = field.of(s), field.of(t)
        if (n_infinite == 0 or t != 0) and all(field.add(s, field.mul(t, field.of(lam))) != 0 for lam in lams):
            return True
    return False


def _transformed(field, rows, cols, pencil, entry):
    """U*B0*V and U*B1*V for random invertible U, V with entries from entry()."""
    def invertible(n):
        while True:
            m = Mat(n, n, tuple(field.of(entry()) for _ in range(n * n)))
            if rank(field, m) == n:
                return m

    u, v = invertible(rows), invertible(cols)
    out = []
    for b in pencil:
        m = Mat(rows, cols, tuple(field.of(x) for row in b for x in row))
        out.append(mat_mul(field, mat_mul(field, u, m), v) if rows else m)
    return out


def _check_nullities(field, m0, m1, indices):
    # N_d = sum(max(0, d - e + 1)) over the minimal indices e
    for d in range(max(indices) + 2):
        assert pencil_nullity(field, m0, m1, d) == sum(max(0, d - e + 1) for e in indices)


@pytest.mark.parametrize("p", [2, 3, 5, 101, COMPILED_P_LIMIT - 1])
def test_indices_of_kronecker_pencils(p):
    # L blocks plus a regular part, under random invertible row and column
    # transforms: the minimal indices are the smallest L block sizes
    field = prime_field(p)
    rng = random.Random(100 + p)
    for _ in range(25):
        rows, cols, b0, b1, sizes, lams, n_inf = _kronecker_pencil(rng, range(p))
        m0, m1 = _transformed(field, rows, cols, (b0, b1), lambda: rng.randrange(p))
        flat0, flat1 = [int(x) for x in m0.entries], [int(x) for x in m1.entries]
        want = rng.randint(0, cols - rows)
        if not _probes_find_full_rank(field, lams, n_inf):
            with pytest.raises(ArithmeticError, match="rank deficient"):
                minimal_indices(field, m0, m1, want)
            for impl in IMPLS.values():
                with pytest.raises(ArithmeticError, match="rank deficient"):
                    _pencil_pair(impl.splitting_scan, flat0, flat1, rows, cols, p)
            continue
        assert minimal_indices(field, m0, m1, want) == tuple(sizes[:want])
        for impl in IMPLS.values():
            if cols - rows < 2:
                with pytest.raises(ArithmeticError, match="kernel is too small"):
                    _pencil_pair(impl.splitting_scan, flat0, flat1, rows, cols, p)
            else:
                assert _pencil_pair(impl.splitting_scan, flat0, flat1, rows, cols, p) == tuple(sizes[:2])
        indices = minimal_indices(field, m0, m1)
        assert indices == tuple(sizes)
        _check_nullities(field, m0, m1, indices)


def test_indices_of_kronecker_pencils_over_q():
    rng = random.Random(7)
    checked = 0
    for _ in range(12):
        rows, cols, b0, b1, sizes, lams, n_inf = _kronecker_pencil(rng, range(-3, 4))
        if not _probes_find_full_rank(RATIONALS, lams, n_inf):
            continue
        m0, m1 = _transformed(RATIONALS, rows, cols, (b0, b1), lambda: rng.randint(-2, 2))
        indices = minimal_indices(RATIONALS, m0, m1)
        assert indices == tuple(sizes)
        _check_nullities(RATIONALS, m0, m1, indices)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("field", [prime_field(101), prime_field(COMPILED_P_LIMIT - 1), RATIONALS])
def test_generic_rank_is_probed_before_anything_else(field):
    # B0 deficient: its rank is the first probe's, and the other probes must
    # still run, before any other check and, in `minimal_indices`, even when
    # no index is wanted; the kernels always want the two smallest
    rows, cols = 3, 5
    b0 = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0]]
    b1 = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    # every member of this one has a zero last row
    d1 = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]]
    cases = [(b0, b1, None), (b0, d1, "rank deficient"), (d1, b0, "rank deficient")]
    for m0, m1, error in cases:
        flat0, flat1 = [v for row in m0 for v in row], [v for row in m1 for v in row]
        mats = Mat(rows, cols, tuple(map(field.of, flat0))), Mat(rows, cols, tuple(map(field.of, flat1)))
        for want in (0, 1, 2, 3):
            if error is not None:
                with pytest.raises(ArithmeticError, match=error):
                    minimal_indices(field, *mats, want)
            elif want > cols - rows:
                with pytest.raises(ArithmeticError, match="kernel is too small"):
                    minimal_indices(field, *mats, want)
            else:
                assert minimal_indices(field, *mats, want) == (0, 2)[:want]
        if field.kind == "fp":
            for impl in IMPLS.values():
                if error is not None:
                    with pytest.raises(ArithmeticError, match=error):
                        _pencil_pair(impl.splitting_scan, flat0, flat1, rows, cols, field.p)
                else:
                    assert _pencil_pair(impl.splitting_scan, flat0, flat1, rows, cols, field.p) == (0, 2)
        if error is None:
            _check_nullities(field, *mats, (0, 2))


def test_pencil_degrees_backend_parity():
    # both backends' staircases and the field-generic one in minimal_indices
    rng = random.Random(2)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = r + 2
        b0 = [rng.randrange(101) for _ in range(r * c)]
        b1 = [rng.randrange(101) for _ in range(r * c)]
        runs = [lambda: minimal_indices(F101, Mat(r, c, tuple(b0)), Mat(r, c, tuple(b1)), want=2)]
        runs += [lambda impl=impl: _pencil_pair(impl.splitting_scan, b0, b1, r, c, 101) for impl in IMPLS.values()]
        outs = []
        for run in runs:
            try:
                outs.append(run())
            except ArithmeticError as exc:
                outs.append(str(exc))
        assert all(o == outs[0] for o in outs)


def test_eval_form_many_matches_pointwise():
    rng = random.Random(3)
    f = HForm(4, tuple(rng.randrange(101) for _ in range(basis_size(4))))
    pts = plane_points(101)[:300]
    coeffs = list(f.coeffs)
    exps = [v for e in monomials(4) for v in e]
    flat = [c for pt in pts for c in pt]
    for impl in IMPLS.values():
        vals = impl.eval_form_many(coeffs, exps, flat, 101)
        assert [int(v) for v in vals] == [hf_eval(F101, f, pt) for pt in pts]


def _scan_pairs(impl, a, rows, cols, pts, p):
    """splitting_scan's degree pair at each of the points, in order: its
    splitting type less the twist 1."""
    eps1, eps2 = impl.splitting_scan(*a, rows, cols, [c for pt in pts for c in pt], p)
    return [(e1 - 1, e2 - 1) for e1, e2 in zip(eps1, eps2)]


def _pointwise_pair(impl, a, rows, cols, x, p):
    """The degree pair of the pencil restricted to the dual line of x, built
    here by `geom.dual_line_basis` and run as its own pencil (`_pencil_pair`)."""
    field = prime_field(p)
    b0, b1 = ([sum(c * m[i] for c, m in zip(form, a)) % p for i in range(rows * cols)]
              for form in dual_line_basis(field, x))
    return _pencil_pair(impl.splitting_scan, b0, b1, rows, cols, p)


def test_splitting_scan_backend_parity():
    # the whole plane of F_31, with the jumping points of an even and an odd
    # m, in plane order, reversed and shuffled: consecutive plane points share
    # a member of their restricted pencils, which the scan builds and reduces
    # once and runs the staircase from; shuffled, few neighbours share one.
    # A scan of at least p points inverts from a table, so here the compiled
    # scan's table is checked against the per-point kernel's extended Euclid
    # and the pure twin's pow(x, p - 2, p)
    p = 31
    pts = plane_points(p)
    orders = (pts, pts[::-1], random.Random(5).sample(pts, len(pts)))
    for m in (8, 9):
        sp = steiner_pencil(random_config(m, prime_field(p), seed=5))
        a = [[int(v) for v in mat.entries] for mat in sp.matrices()]
        outs = []
        for impl in IMPLS.values():
            want = {x: _pointwise_pair(impl, a, m - 3, m - 1, x, p) for x in pts}
            for order in orders:
                assert _scan_pairs(impl, a, m - 3, m - 1, order, p) == [want[x] for x in order]
            outs.append(want)
        assert all(o == outs[0] for o in outs)
        assert any(d1 + 1 < generic_eps1(m) for d1, _ in outs[0].values())


def test_splitting_scan_falls_back_when_the_shared_member_is_deficient():
    # Along the row a = 1 the dual basis is (e1 - b*e0, e2 - e0).  With
    # A0 = M - K0, A1 = M and A2 = K1 + M - K0 the point (1, 0, 1) restricts
    # to (M, K1), (1, 1, 1) to (K0, K1) and (1, 2, 1) to (2*K0 - M, K1): the
    # last two share K1, which is deficient (its J(0) block).  Every probe
    # of (K0, K1) is deficient, so that point must raise as the per-point
    # kernel does, although K1 + 2*K0, a probe of (K1, K0), has full rank.
    # Scans of 1-3 points invert by extended Euclid, not from a table.
    p = 31
    field = prime_field(p)
    finite = [(1, field.of(lam)) for lam in (0, -1, "-1/2", "-1/3")]
    rows, cols, k0, k1, _, _, _ = _kronecker_blocks([1, 1], finite, [1])
    k0, k1 = [v for row in k0 for v in row], [v for row in k1 for v in row]
    rng = random.Random(9)
    while True:
        mm = [rng.randrange(p) for _ in range(rows * cols)]
        if rank_mod_p(mm, rows, cols, p) == rows:
            break
    a = [[(x - y) % p for x, y in zip(mm, k0)], mm, [(x + y - z) % p for x, y, z in zip(k1, mm, k0)]]
    start, good, bad = (1, 0, 1), (1, 2, 1), (1, 1, 1)
    assert rank_mod_p(k1, rows, cols, p) < rows
    for impl in IMPLS.values():
        assert _pencil_pair(impl.splitting_scan, k1, k0, rows, cols, p) == (1, 1)
        with pytest.raises(ArithmeticError, match="rank deficient"):
            _pointwise_pair(impl, a, rows, cols, bad, p)
        want = [_pointwise_pair(impl, a, rows, cols, x, p) for x in (start, good)]
        assert _scan_pairs(impl, a, rows, cols, [start, good], p) == want
        for pts in ([bad], [start, bad], [start, good, bad], [good, bad, start]):
            with pytest.raises(ArithmeticError, match="rank deficient"):
                impl.splitting_scan(*a, rows, cols, [c for pt in pts for c in pt], p)


@pytest.mark.parametrize("m", [8, 9])
def test_splitting_scan_backend_parity_near_the_compiled_limit(m):
    # residues near 2**31 keep the quotients of every reduction at their
    # largest; 290 + m points are far fewer than p, so inverses are by Euclid
    p = COMPILED_P_LIMIT - 1
    cfg = random_config(m, prime_field(p), seed=5)
    sp = steiner_pencil(cfg)
    rng = random.Random(m)
    pts = [(rng.randrange(p), rng.randrange(p), 1) for _ in range(290)] + list(cfg.points)
    flat = [c for pt in pts for c in pt]
    a = [[int(v) for v in mat.entries] for mat in sp.matrices()]
    outs = [impl.splitting_scan(*a, m - 3, m - 1, flat, p) for impl in IMPLS.values()]
    assert all(o == outs[0] for o in outs)
    # the configuration points jump, so the staircase runs past its generic levels there
    assert all(outs[0][0][i] < generic_eps1(m) for i in range(290, len(pts)))


def test_kernels_reject_malformed_input():
    a = [1] * 6
    for impl in IMPLS.values():
        with pytest.raises(ValueError, match="not a point"):
            impl.splitting_scan(a, a, a, 2, 3, [0, 0, 0, 0, 0, 1], 101)
    compiled = IMPLS.get("compiled")
    if compiled is None:
        return
    # the compiled kernels refuse what would overflow or index out of bounds
    with pytest.raises(ValueError, match="modulus"):
        compiled.rank_mod_p([1], 1, 1, COMPILED_P_LIMIT)
    with pytest.raises(ValueError, match="exponents"):
        compiled.eval_form_many([1], [0, -1, 1], [0, 0, 1], 101)
    with pytest.raises(IndexError):
        compiled.rank_mod_p([1, 2, 3], 2, 2, 101)


def test_kernels_reject_a_composite_modulus():
    # every inverse in the kernels assumes a prime modulus
    a, exps, pt, plane = [1] * 6, [0, 0, 1], [0, 0, 1], PlaneCoords(15, 0, 3)
    for impl in IMPLS.values():
        col = array("i", [0] * (15 * 15 + 15 + 1))
        calls = (
            lambda: impl.report_rows(15, col, col, 0, [], [], False),
            lambda: impl.rank_mod_p([1], 1, 1, 15),
            lambda: impl.splitting_scan(a, a, a, 2, 3, pt, 15),
            lambda: impl.eval_form_many([1], exps, pt, 15),
            lambda: impl.form_matrix_scan([1], exps, 1, 1, pt, 15),
            lambda: impl.splitting_scan(a, a, a, 2, 3, plane, 15),
            lambda: impl.eval_form_many([1], exps, plane, 15),
            lambda: impl.form_matrix_scan([1], exps, 1, 1, plane, 15),
        )
        for call in calls:
            with pytest.raises(ValueError, match="prime modulus"):
                call()


INT_MIN, INT_MAX = -(2**31), 2**31 - 1


def _report_oracle(p, eps1, eps2, top, zrows, grows, csv):
    """The report rows as csv.writer and json.dumps(indent=2) (inside the
    "records" list of an object) write them, from `plane_points`."""
    zset, gset = set(zrows), set(grows)
    rows = [list(pt) + [a, b, top - a, int(i in zset), int(i in gset)]
            for i, (pt, a, b) in enumerate(zip(plane_points(p), eps1, eps2))]
    if csv:
        return "".join(",".join(map(str, row)) + "\n" for row in rows)
    text = json.dumps({"records": rows}, indent=2)
    return text[len('{\n  "records": [\n') : -len("\n  ]\n}")]


@pytest.mark.parametrize("p", [2, 3, 5, 31, 101])
def test_report_rows_backend_parity(p, assert_same_text):
    # multi-digit and negative splitting types, the int extremes among them,
    # and the Z and Gamma lists empty, full, and unsorted with repeats
    n = p * p + p + 1
    rng = random.Random(p)
    extremes = [INT_MIN, INT_MAX, -1, 0, 9, 10, -10, 99999]
    eps1 = array("i", [rng.choice(extremes) if rng.random() < 0.1 else rng.randint(-999, 999) for _ in range(n)])
    eps2 = array("i", [rng.randint(-(10**6), 10**6) for _ in range(n)])
    some = [rng.randrange(n) for _ in range(8)]
    flag_lists = [([], []), (list(range(n)), []), ([], list(range(n))[::-1]), (some, some[::2] + some[:3])]
    for top in (4, -3, INT_MAX):
        for zrows, grows in flag_lists:
            for csv in (False, True):
                want = _report_oracle(p, eps1, eps2, top, zrows, grows, csv)
                for impl in IMPLS.values():
                    assert_same_text(impl.report_rows(p, eps1, eps2, top, zrows, grows, csv), want)


def test_report_rows_rejects_malformed_input():
    p, n = 5, 31
    good = array("i", [1] * n)
    bad_columns = [array("i", [1] * (n - 1)), array("i", [1] * (n + 1)), array("i"), array("q", [1] * n),
                   array("h", [1] * n), array("I", [1] * n), array("f", [1] * n)]
    for impl in IMPLS.values():
        for col in bad_columns:
            for eps1, eps2 in ((col, good), (good, col)):
                with pytest.raises(ValueError, match="array"):
                    impl.report_rows(p, eps1, eps2, 4, [], [], True)
        for rows in ([-1], [n], [0, n + 7], [2**70], [-(2**70)]):
            for zrows, grows in ((rows, []), ([], rows)):
                with pytest.raises(ValueError, match="row indices"):
                    impl.report_rows(p, good, good, 4, zrows, grows, False)
        with pytest.raises(TypeError):
            impl.report_rows(p, [1] * n, good, 4, [], [], False)


def _random_forms(rng, rows, cols, d, p):
    return [[HForm(d, tuple(rng.randrange(p) for _ in range(basis_size(d)))) for _ in range(cols)] for _ in range(rows)]


def _low_rank_forms(rng, rows, cols, k, p):
    """A rows x cols matrix of quadrics of rank <= k at every point: (rows x k)(k x cols) of linear forms."""
    field = prime_field(p)
    u, v = _random_forms(rng, rows, k, 1, p), _random_forms(rng, k, cols, 1, p)
    out = [[hf_zero(field, 2) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for t in range(k):
                out[i][j] = hf_add(field, out[i][j], hf_mul(field, u[i][t], v[t][j]))
    return out


@pytest.mark.parametrize("p", [2, 3, 101, COMPILED_P_LIMIT - 1, LARGE_P])
def test_form_matrix_scan_matches_generic_linalg(p):
    # rank and determinant of the evaluated matrix, as algebra computes them
    # from hf_eval; LARGE_P runs on the pure twin whatever the backend.  A
    # compiled scan of at least p points inverts from a table, of fewer by
    # extended Euclid: every third trial of a small p takes exactly p points
    field = prime_field(p)
    rng = random.Random(p)
    impls = [impl for impl in IMPLS.values() if p < COMPILED_P_LIMIT or impl.BACKEND == "pure"]
    for trial in range(24):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        if trial % 2 and rows and cols:
            a = _low_rank_forms(rng, rows, cols, rng.randint(1, min(rows, cols)), p)
        else:
            a = _random_forms(rng, rows, cols, rng.randint(0, 3), p)
        d = a[0][0].degree if rows and cols else 0
        exps = [v for e in monomials(d) for v in e]
        # the same residues written as negative and as wider-than-64-bit ints
        coeffs = [int(c) + rng.choice((-1, 1, 2**70)) * p for row in a for f in row for c in f.coeffs]
        naffine = p - 2 if trial % 3 == 0 and p <= 101 else 6
        pts = [(rng.randrange(p), rng.randrange(p), 1) for _ in range(naffine)] + [(1, 0, 0), (rng.randrange(p), 1, 0)]
        flat = [c for pt in pts for c in pt]
        outs = [tuple(map(list, impl.form_matrix_scan(coeffs, exps, rows, cols, flat, p))) for impl in impls]
        assert tuple(map(list, form_matrix_scan(coeffs, exps, rows, cols, flat, p))) == outs[0]
        assert all(o == outs[0] for o in outs)
        ranks, dets = outs[0]
        for i, pt in enumerate(pts):
            m = Mat(rows, cols, tuple(hf_eval(field, f, pt) for row in a for f in row))
            r = rank(field, m) if rows and cols else 0
            full_square = rows == cols and r == rows
            assert (ranks[i], dets[i]) == (r, det(field, m) if full_square else 0)


def test_kernels_sum_products_near_the_compiled_limit():
    # 28 products of residues near 2**31 overflow a 64-bit sum unless it is
    # reduced on the way; a 1 x 1 matrix's determinant is its entry's value
    p = COMPILED_P_LIMIT - 1
    field = prime_field(p)
    rng = random.Random(5)
    f = HForm(6, tuple(p - 1 - rng.randrange(1000) for _ in range(basis_size(6))))
    exps = [v for e in monomials(6) for v in e]
    pts = [(rng.randrange(p), rng.randrange(p), rng.randrange(1, p)) for _ in range(20)]
    flat = [c for pt in pts for c in pt]
    want = [hf_eval(field, f, pt) for pt in pts]
    for impl in IMPLS.values():
        assert [int(v) for v in impl.eval_form_many(list(f.coeffs), exps, flat, p)] == want
        ranks, dets = impl.form_matrix_scan(list(f.coeffs), exps, 1, 1, flat, p)
        assert list(dets) == want and list(ranks) == [int(v != 0) for v in want]


def test_form_matrix_scan_rejects_malformed_input():
    exps = [2, 0, 0, 1, 1, 0]
    for impl in IMPLS.values():
        with pytest.raises(ValueError, match="non-negative"):
            impl.form_matrix_scan([], exps, -1, 2, [0, 0, 1], 101)
        with pytest.raises(ValueError, match="exponents"):
            impl.form_matrix_scan([1, 1], [0, -1, 1], 1, 2, [0, 0, 1], 101)
        with pytest.raises(ValueError, match="exponents"):
            impl.form_matrix_scan([1], [2**20 + 1, 0, 0], 1, 1, [0, 0, 1], 101)
        with pytest.raises(IndexError):
            impl.form_matrix_scan([1, 2, 3], exps, 1, 2, [0, 0, 1], 101)
    compiled = IMPLS.get("compiled")
    if compiled is not None:
        for p in (1, COMPILED_P_LIMIT):
            with pytest.raises(ValueError, match="modulus"):
                compiled.form_matrix_scan([1], [0, 0, 1], 1, 1, [0, 0, 1], p)


def test_rank_drops_rejects_mixed_degrees():
    rows = [[hf_zero(F101, 2), hf_zero(F101, 1)]]
    with pytest.raises(ValueError, match="one degree"):
        rank_drops(F101, rows, [0, 0, 1])


def test_selected_backend_exports():
    flat = [1, 0, 0, 1]
    assert rank_mod_p(flat, 2, 2, 101) == 2
    vals = eval_form_many([1], [0, 0, 1], [0, 0, 1, 4, 5, 1], 101)
    assert [int(v) for v in vals] == [1, 1]
    # [[x, y], [z, x]] at (1, 2, 3), (2, 4, 6) and (0, 2, 3), the last after
    # a row swap: determinant x^2 - yz
    ranks, dets = form_matrix_scan([1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1], 2, 2,
                                   [1, 2, 3, 2, 4, 6, 0, 2, 3], 101)
    assert (ranks, dets) == (array("i", [2, 2, 2]), array("i", [96, 81, 95]))
    # the plane over F_2: (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0)
    eps = array("i", range(7))
    rows = report_rows(2, eps, eps, 3, [6], [0, 2], True)
    assert rows.splitlines()[::3] == ["0,0,1,0,0,3,0,1", "1,1,1,3,3,0,0,0", "1,0,0,6,6,-3,1,0"]


# ---------------------------------------------------------------------------
# The plane form: scans over a range of rows of the plane
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_plane_coords_is_the_flat_plane(p):
    n = p * p + p + 1
    flat = flat_coords(plane_points(p))
    whole = PlaneCoords.whole(p)
    assert whole == PlaneCoords(p, 0, n) and len(whole) == len(flat) == 3 * n
    assert list(whole) == flat
    assert [whole[k] for k in range(-len(flat), len(flat))] == flat + flat
    for k in (len(flat), -len(flat) - 1):
        with pytest.raises(IndexError):
            whole[k]
    for lo in range(0, len(flat) + 1):
        for hi in range(lo, len(flat) + 1):
            part = whole[lo:hi]
            assert list(part) == flat[lo:hi]
            assert isinstance(part, PlaneCoords) == (lo % 3 == 0 and hi % 3 == 0)
    assert whole[3:12] == PlaneCoords(p, 1, 4)
    assert whole[6:3] == PlaneCoords(p, 2, 2)
    assert whole[::2] == flat[::2] and whole[::-3] == flat[::-3]
    assert whole[-6:] == PlaneCoords(p, n - 2, n) and whole[3:-3] == PlaneCoords(p, 1, n - 1)
    for start, stop in ((-1, 2), (0, n + 1), (3, 2)):
        with pytest.raises(ValueError, match="not within the plane"):
            PlaneCoords(p, start, stop)


def _plane_ranges(p):
    """(start, stop) row ranges of the plane over F_p: the whole plane,
    ranges starting mid-row, inside the line at infinity, the last point
    alone, and empty."""
    pp, n = p * p, p * p + p + 1
    return [(0, n), (1, n), (p + 1, 2 * p + 1), (pp - 1, n), (pp + 1, pp + p), (pp, pp + 1), (n - 1, n),
            (0, 0), (p + 1, p + 1), (n, n)]


def _outcome(call):
    """The columns a kernel call returns, as lists, or its exception."""
    try:
        out = call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    for col in (out if isinstance(out, tuple) else (out,)):
        assert isinstance(col, array) and col.typecode == "i"
    return tuple(map(list, out)) if isinstance(out, tuple) else list(out)


def _scan_calls(p):
    """name -> call(impl, pts) of each scan kernel over F_p, on inputs that
    exercise it: a pencil whose restrictions all have full rank, a random
    one, one that vanishes on the dual line of (1, 1, 1), the row p + 1, so
    that a range through that row must fail as the list does, Steiner
    pencils over F_31, and random forms and matrices of forms."""
    rng = random.Random(p)
    pencils = [(1, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
               (2, 4, [[rng.randrange(p) for _ in range(8)] for _ in range(3)]),
               (1, 3, [[1, 2, 3]] * 3)]
    if p == 31:
        for m in (8, 9):
            sp = steiner_pencil(random_config(m, prime_field(p), seed=5))
            pencils.append((m - 3, m - 1, [[int(v) for v in mat.entries] for mat in sp.matrices()]))
    calls = {}
    for k, (rows, cols, a) in enumerate(pencils):
        calls[f"splitting_scan {k}"] = lambda impl, pts, rows=rows, cols=cols, a=a: impl.splitting_scan(
            *a, rows, cols, pts, p)
    for d in (0, 3):
        f = [rng.randrange(p) for _ in range(basis_size(d))]
        exps = [v for e in monomials(d) for v in e]
        calls[f"eval_form_many {d}"] = lambda impl, pts, f=f, exps=exps: impl.eval_form_many(f, exps, pts, p)
    for rows, cols in ((2, 2), (2, 3)):
        forms = _random_forms(rng, rows, cols, 2, p)
        coeffs = [c for row in forms for g in row for c in g.coeffs]
        exps = [v for e in monomials(2) for v in e]
        calls[f"form_matrix_scan {rows}x{cols}"] = lambda impl, pts, coeffs=coeffs, exps=exps, rows=rows, cols=cols: (
            impl.form_matrix_scan(coeffs, exps, rows, cols, pts, p))
    return calls


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_plane_ranges_match_explicit_lists(p):
    # each backend's scan of a range of rows equals its scan of the same
    # points as a flat list, and the two backends agree
    pts = plane_points(p)
    for name, call in _scan_calls(p).items():
        for start, stop in _plane_ranges(p):
            flat = flat_coords(pts[start:stop])
            outs = []
            for impl in IMPLS.values():
                got = _outcome(lambda: call(impl, PlaneCoords(p, start, stop)))
                assert got == _outcome(lambda: call(impl, flat)), (name, start, stop, impl.BACKEND)
                outs.append(got)
            assert all(o == outs[0] for o in outs), (name, start, stop)


def _unchecked_range(p, start, stop):
    """A PlaneCoords that skips the constructor's checks, as a caller that
    builds one by hand could hand to a kernel."""
    rng = object.__new__(PlaneCoords)
    for name, value in (("p", p), ("start", start), ("stop", stop)):
        object.__setattr__(rng, name, value)
    return rng


def test_kernels_reject_malformed_plane_ranges():
    p, n = 5, 31
    calls = _scan_calls(p)
    for impl in IMPLS.values():
        for start, stop, error in ((-1, 3, "within"), (0, n + 1, "within"), (4, 3, "within"), (-5, -2, "within")):
            for name, call in calls.items():
                with pytest.raises(ValueError, match=error):
                    call(impl, _unchecked_range(p, start, stop))
        for other in (PlaneCoords(7, 0, 3), PlaneCoords(3, 0, 13), PlaneCoords(2, 0, 0)):
            for name, call in calls.items():
                with pytest.raises(ValueError, match="plane range over F_"):
                    call(impl, other)


def test_rows_below_backend_parity():
    rng = random.Random(4)
    for n in (0, 1, 7, 500):
        col = array("i", [rng.choice((INT_MIN, INT_MAX, 0, 1, 2, 3, -3)) for _ in range(n)])
        for bound in (INT_MIN, -3, 0, 1, 3, INT_MAX, 2**40, -(2**40)):
            want = [i for i, v in enumerate(col) if v < bound]
            for impl in IMPLS.values():
                assert impl.rows_below(col, bound) == want
    for impl in IMPLS.values():
        for bad in (array("q", [1]), array("h", [1]), array("I", [1])):
            with pytest.raises(ValueError, match="array"):
                impl.rows_below(bad, 1)
        with pytest.raises(TypeError):
            impl.rows_below([1, 2], 1)


@pytest.mark.parametrize("m", [8, 9])
def test_jumping_scan_columns_do_not_depend_on_threads(m):
    # 2 or 3 threads cut the 993 rows of the F_31 plane into ranges that
    # start mid-row, where the splitting kernel builds its shared member anew
    cfg = random_config(m, prime_field(31), seed=3)
    reports = [jumping_scan(cfg, threads=t) for t in (1, 2, 3)]
    assert reports[0].all_verdicts_true()
    for rep in reports[1:]:
        assert (rep.eps1, rep.eps2) == (reports[0].eps1, reports[0].eps2)
        assert rep.to_json() == reports[0].to_json()
