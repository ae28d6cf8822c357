import random
from fractions import Fraction

import pytest

from jumplines import kernels
from jumplines.algebra import DegenerateInputError, RATIONALS, prime_field, rank, up_eval
from jumplines.forms import (
    HForm,
    LeadingCoefficientError,
    basis_size,
    binary_form_to_upoly,
    curves_through,
    fat_point_dim,
    form_matrix_det,
    gamma_minor_matrix,
    gamma_minors,
    hf_add,
    hf_div_exact,
    hf_eval,
    hf_from_dict,
    hf_is_zero,
    hf_mul,
    hf_normalize,
    hf_partial,
    hf_scale,
    jet_matrix,
    monoidal_det,
    monomial_index,
    monomials,
    restrict_to_vertical_line,
    sylvester_resultant,
    _form_det_direct,
    _form_det_interpolated,
    _symbolic_jet_rows,
)
from jumplines.geom import PointConfig, normalize_point, plane_points, random_config

F101 = prime_field(101)


def rand_form(field, rng, d):
    if field.kind == "fp":
        return HForm(d, tuple(rng.randrange(field.p) for _ in range(basis_size(d))))
    return HForm(d, tuple(Fraction(rng.randint(-5, 5)) for _ in range(basis_size(d))))


def test_monomial_order():
    assert monomials(2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert monomial_index(2)[(0, 1, 1)] == 4


def test_eval_examples_and_oracle():
    f = hf_from_dict(RATIONALS, 3, {(1, 1, 1): 1})
    assert hf_eval(RATIONALS, f, (Fraction(1), Fraction(1), Fraction(1))) == 1
    rng = random.Random(3)
    for _ in range(10):
        g = rand_form(F101, rng, 4)
        x = tuple(rng.randrange(101) for _ in range(3))
        brute = sum(
            c * pow(x[0], a, 101) * pow(x[1], b, 101) * pow(x[2], e, 101)
            for (a, b, e), c in zip(monomials(4), g.coeffs)
        ) % 101
        assert hf_eval(F101, g, x) == brute


def test_partial_examples_and_euler():
    f = hf_from_dict(RATIONALS, 2, {(2, 0, 0): 1})
    assert hf_partial(RATIONALS, f, 0) == hf_from_dict(RATIONALS, 1, {(1, 0, 0): 2})
    g = hf_from_dict(RATIONALS, 2, {(1, 1, 0): 1})
    assert hf_is_zero(RATIONALS, hf_partial(RATIONALS, g, 2))
    rng = random.Random(5)
    for field in (F101, RATIONALS):
        f = rand_form(field, rng, 5)
        euler = None
        for axis in range(3):
            term = hf_mul(field, hf_from_dict(field, 1, {tuple(1 if i == axis else 0 for i in range(3)): 1}),
                          hf_partial(field, f, axis))
            euler = term if euler is None else hf_add(field, euler, term)
        assert euler == hf_scale(field, field.of(5), f)


def test_mul_degree_and_exact_division():
    rng = random.Random(7)
    for field in (F101, RATIONALS):
        f = rand_form(field, rng, 3)
        g = rand_form(field, rng, 2)
        if hf_is_zero(field, g):
            continue
        prod = hf_mul(field, f, g)
        assert prod.degree == 5
        assert hf_div_exact(field, prod, g) == f
    with pytest.raises(ValueError):
        hf_div_exact(F101, hf_from_dict(F101, 2, {(2, 0, 0): 1}), hf_from_dict(F101, 1, {(0, 1, 0): 1}))


def test_curves_through_dimensions():
    cfg5 = random_config(5, F101, seed=1)
    assert curves_through(cfg5, 2).dim() == 1
    cfg8 = random_config(8, F101, seed=1)
    sys8 = curves_through(cfg8, 3)
    assert sys8.dim() == 2
    for f in sys8.basis:
        for pt in cfg8.points:
            assert hf_eval(F101, f, pt) == 0
    cfg4 = random_config(4, F101, seed=1)
    assert curves_through(cfg4, 1).dim() == 0


def test_curves_through_empty_config():
    empty = PointConfig((), F101)
    assert curves_through(empty, 1).dim() == 3


def test_jet_matrix_order_zero_is_evaluation():
    cfg = random_config(5, F101, seed=2)
    system = curves_through(cfg, 2)
    x = normalize_point(F101, (3, 7, 1))
    jm = jet_matrix(system, x, 0)
    assert jm.rows == 1 and jm.cols == 1
    assert jm.at(0, 0) == hf_eval(F101, system.basis[0], x)


def test_jet_matrix_conic_at_sixth_point():
    cfg = random_config(6, F101, seed=3)
    five = PointConfig(cfg.points[:5], F101)
    system = curves_through(five, 2)
    jm = jet_matrix(system, cfg.points[5], 0)
    assert rank(F101, jm) == 1  # generic sixth point misses the conic


def test_jet_matrix_errors():
    cfg = random_config(5, F101, seed=1)
    system = curves_through(cfg, 2)
    with pytest.raises(ValueError):
        jet_matrix(system, cfg.points[0], 3)
    small = prime_field(2)
    with pytest.raises(ValueError):
        jet_matrix(curves_through(PointConfig((), small), 2), (1, 0, 0), 1)


def test_euler_reduction_top_order_suffices():
    # vanishing of all top-order partials is equivalent to vanishing of the
    # full stack of lower-order ones (char 0 or p > degree)
    rng = random.Random(13)
    cfg = random_config(8, F101, seed=1)
    system = curves_through(cfg, 3)
    pts = plane_points(101)
    for _ in range(40):
        x = pts[rng.randrange(len(pts))]
        for k in (1, 2):
            top = jet_matrix(system, x, k)
            stacked_rows = []
            for order in range(k + 1):
                jm = jet_matrix(system, x, order)
                stacked_rows.extend(jm.to_lists())
            from jumplines.algebra import Mat

            stacked = Mat.from_rows(stacked_rows)
            assert system.dim() - rank(F101, top) == system.dim() - rank(F101, stacked)


def test_fat_point_dim_empty_config():
    empty = PointConfig((), F101)
    assert fat_point_dim(empty, normalize_point(F101, (4, 5, 1)), 1, 1) == 2


def test_fat_point_dim_five_points_conic():
    cfg = random_config(5, F101, seed=1)
    conic = curves_through(cfg, 2).basis[0]
    on_curve = off_curve = 0
    for pt in plane_points(101):
        d = fat_point_dim(cfg, pt, 1, 2)
        if pt in cfg:
            continue
        if hf_eval(F101, conic, pt) == 0:
            assert d == 1
            on_curve += 1
        else:
            assert d == 0
            off_curve += 1
    assert on_curve > 0 and off_curve > 0


def test_fat_point_invariance():
    cfg = random_config(8, F101, seed=1)
    x = normalize_point(F101, (9, 31, 1))
    base = fat_point_dim(cfg, x, 2, 3)
    # rescaling coordinates of x changes nothing
    assert fat_point_dim(cfg, normalize_point(F101, (18, 62, 2)), 2, 3) == base
    # change of basis of the linear system changes nothing
    system = curves_through(cfg, 3)
    f0, f1 = system.basis
    g0 = hf_add(F101, f0, hf_scale(F101, 7, f1))
    g1 = hf_add(F101, hf_scale(F101, 3, f0), hf_scale(F101, 22, f1))
    from jumplines.forms import LinearSystem

    other = LinearSystem(3, (g0, g1), cfg)
    jm = jet_matrix(other, x, 1)
    assert 2 - rank(F101, jm) == base


def test_monoidal_det_five_points_is_the_conic():
    cfg = random_config(5, F101, seed=1)
    mono = monoidal_det(cfg)
    conic = curves_through(cfg, 2).basis[0]
    assert hf_normalize(F101, mono) == hf_normalize(F101, conic)


def test_monoidal_det_seven_points():
    cfg = random_config(7, F101, seed=1)
    mono = monoidal_det(cfg)
    assert mono.degree == 6
    for pt in cfg.points:
        assert hf_eval(F101, mono, pt) == 0
    with pytest.raises(DegenerateInputError):
        monoidal_det(random_config(6, F101, seed=1))


def test_monoidal_det_basis_independent():
    cfg = random_config(7, F101, seed=2)
    mono = monoidal_det(cfg)
    system = curves_through(cfg, 3)
    f0, f1, f2 = system.basis
    mix = (
        hf_add(F101, f0, hf_scale(F101, 5, f2)),
        hf_add(F101, f1, hf_scale(F101, 9, f0)),
        hf_add(F101, f2, hf_scale(F101, 17, f1)),
    )
    from jumplines.forms import LinearSystem

    rows = _symbolic_jet_rows(F101, LinearSystem(3, mix, cfg), 1)
    other = form_matrix_det(F101, rows, 6)
    assert hf_normalize(F101, other) == hf_normalize(F101, mono)


def test_form_det_direct_vs_interpolated():
    rng = random.Random(17)
    for size in (2, 3, 4):
        a = [[rand_form(F101, rng, 2) for _ in range(size)] for _ in range(size)]
        direct = _form_det_direct(F101, a)
        interp = _form_det_interpolated(F101, a, 2 * size)
        assert direct == interp


@pytest.mark.parametrize("backend", sorted(kernels.backends()))
def test_form_det_interpolated_from_kernel_determinants(monkeypatch, backend):
    # over F_p the grid determinants come from one kernel call
    monkeypatch.setattr(kernels, "_impl", kernels.backends()[backend])
    rng = random.Random(23)
    for size in (5, 6):
        a = [[rand_form(F101, rng, 2) for _ in range(size)] for _ in range(size)]
        assert _form_det_interpolated(F101, a, 2 * size) == _form_det_direct(F101, a)


def test_form_det_interpolated_over_q():
    rng = random.Random(29)
    a = [[rand_form(RATIONALS, rng, 2) for _ in range(3)] for _ in range(3)]
    assert _form_det_interpolated(RATIONALS, a, 6) == _form_det_direct(RATIONALS, a)


def test_interpolation_grid_too_small_is_degenerate():
    a = [[rand_form(prime_field(13), random.Random(1), 2) for _ in range(10)] for _ in range(10)]
    with pytest.raises(DegenerateInputError, match="fp:13 .* degree 20"):
        _form_det_interpolated(prime_field(13), a, 20)


def test_gamma_minors_eight_points():
    cfg = random_config(8, F101, seed=1)
    minors = gamma_minors(cfg)
    assert len(minors) == 3
    assert all(f.degree == 4 for f in minors)
    # the fat-point condition misses the configuration itself
    for pt in cfg.points:
        assert any(hf_eval(F101, f, pt) != 0 for f in minors)
    # off the configuration, common zeros of the minors = fat-point locus
    rng = random.Random(19)
    pts = plane_points(101)
    for _ in range(60):
        x = pts[rng.randrange(len(pts))]
        if x in cfg:
            continue
        vanish = all(hf_eval(F101, f, x) == 0 for f in minors)
        assert vanish == (fat_point_dim(cfg, x, 2, 3) >= 1)


def test_gamma_minors_small_cases():
    assert gamma_minors(random_config(6, F101, seed=1)) == []
    assert gamma_minors(random_config(4, F101, seed=1)) == []


def test_gamma_minor_matrix_shape():
    cfg = random_config(8, F101, seed=1)
    rows = gamma_minor_matrix(cfg)
    assert len(rows) == 3 and len(rows[0]) == 2
    assert all(e.degree == 2 for row in rows for e in row)


def test_sylvester_linear_example():
    f = hf_from_dict(RATIONALS, 1, {(0, 0, 1): 1, (1, 0, 0): -1})  # x2 - x0
    g = hf_from_dict(RATIONALS, 1, {(0, 0, 1): 1, (0, 1, 0): -1})  # x2 - x1
    res = sylvester_resultant(RATIONALS, f, g)
    up = binary_form_to_upoly(RATIONALS, res)
    # x1 - x0 up to sign: dehomogenized to t = x1/x0 that is +-(t - 1)
    assert up in ([Fraction(-1), Fraction(1)], [Fraction(1), Fraction(-1)])


def test_sylvester_conics_degree_four():
    rng = random.Random(23)
    while True:
        f, g = rand_form(F101, rng, 2), rand_form(F101, rng, 2)
        try:
            res = sylvester_resultant(F101, f, g)
            break
        except LeadingCoefficientError:
            continue
    assert res.degree == 4
    up = binary_form_to_upoly(F101, res)
    assert len(up) - 1 <= 4


def test_sylvester_vanishes_at_common_zero_projection():
    rng = random.Random(29)
    # build two conics sharing the point (1 : 2 : 3)
    x = (1, 2, 3)
    while True:
        f, g = rand_form(F101, rng, 2), rand_form(F101, rng, 2)
        fx = hf_eval(F101, f, x)
        gx = hf_eval(F101, g, x)
        corr = hf_from_dict(F101, 2, {(0, 0, 2): 1})
        cx = hf_eval(F101, corr, x)
        inv9 = F101.inv(cx)
        f = hf_add(F101, f, hf_scale(F101, (-fx * inv9) % 101, corr))
        g = hf_add(F101, g, hf_scale(F101, (-gx * inv9) % 101, corr))
        assert hf_eval(F101, f, x) == 0 and hf_eval(F101, g, x) == 0
        try:
            res = sylvester_resultant(F101, f, g)
            break
        except LeadingCoefficientError:
            continue
    assert hf_eval(F101, res, (1, 2, 0)) == 0  # projection along x2


def test_restrict_to_vertical_line_agrees_with_eval():
    rng = random.Random(37)
    for field in (F101, RATIONALS):
        for d in range(1, 6):
            f = rand_form(field, rng, d)
            for _ in range(5):
                t, s = field.of(rng.randint(-50, 50)), field.of(rng.randint(-50, 50))
                restricted = restrict_to_vertical_line(field, f, t)
                assert up_eval(field, restricted, s) == hf_eval(field, f, (field.one, t, s))
                assert not restricted or not field.is_zero(restricted[-1])
    # x0 x1 - x0^2 vanishes on the line x1 = x0
    f = hf_from_dict(F101, 2, {(1, 1, 0): 1, (2, 0, 0): -1})
    assert restrict_to_vertical_line(F101, f, 1) == []


def test_sylvester_leading_zero_error():
    f = hf_from_dict(F101, 2, {(2, 0, 0): 1})  # no x2 at all
    g = hf_from_dict(F101, 2, {(0, 0, 2): 1})
    with pytest.raises(LeadingCoefficientError):
        sylvester_resultant(F101, f, g)


def test_hform_json_roundtrip():
    rng = random.Random(31)
    for field in (F101, RATIONALS):
        f = rand_form(field, rng, 3)
        again = HForm.from_json_obj(field, f.to_json_obj(field))
        assert again == f


def test_precondition_errors():
    cfg = random_config(5, F101, seed=1)
    with pytest.raises(ValueError):
        curves_through(cfg, 0)
    with pytest.raises(ValueError):
        fat_point_dim(cfg, (1, 0, 0), 0, 2)
    with pytest.raises(ValueError):
        fat_point_dim(cfg, (1, 0, 0), 3, 2)
    with pytest.raises(ValueError):
        hf_partial(F101, hf_from_dict(F101, 0, {(0, 0, 0): 1}), 0)
