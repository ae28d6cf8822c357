import csv
import dataclasses
import io
import json
import random
from array import array

import pytest

from jumplines.algebra import (
    RATIONALS,
    DegenerateInputError,
    distinct_degree_profile,
    prime_field,
    up_mul,
    up_squarefree_part,
)
from jumplines import kernels
from jumplines.forms import (
    HForm,
    MonoidalFamily,
    _jets_at,
    _symbolic_jet_rows,
    curves_through,
    gamma_minor_matrix,
    hf_eval,
    hf_mul,
    hf_partial_multi,
    hf_zero,
    jet_matrix,
    monoidal_det,
    monoidal_family,
    monoidal_matrix,
    monomials,
    scan_form_matrix,
)
from jumplines.geom import (
    PlaneCoords,
    PointConfig,
    flat_coords,
    normalize_point,
    plane_index,
    plane_points,
    random_config,
    validate_config,
)
from jumplines.jumping import (
    _BASE_LOCUS_CURVES,
    VerificationError,
    _valid_extra_point,
    base_locus_equality,
    containment_monoidal,
    gamma_points,
    gamma_scan,
    jumping_scan,
    length_accounting,
    lien_equivalence,
    lift_eliminant_roots,
    ninth_point,
    pencil4_eliminant,
    pinceau_factorization,
    rank_drops,
)
from jumplines.steiner import generic_eps1, jumping_order, steiner_pencil
from jumplines.verify import resolve_bundle

F101 = prime_field(101)


@pytest.fixture(scope="module")
def cfg8():
    return random_config(8, F101, seed=1)


@pytest.fixture(scope="module")
def report8(cfg8):
    return jumping_scan(cfg8)


@pytest.fixture(scope="module")
def gamma8(cfg8):
    return gamma_points(cfg8)


@pytest.fixture(scope="module")
def report6():
    return jumping_scan(random_config(6, F101, seed=1))


def test_gamma_small_cases():
    assert gamma_points(random_config(6, F101, seed=1)) == []
    assert gamma_points(random_config(4, F101, seed=1)) == []


def test_gamma_cross_checks_fat_point(cfg8, gamma8):
    from jumplines.forms import fat_point_dim

    assert gamma8  # seed 1 has at least one rational extra jumping point
    for x in gamma8:
        assert fat_point_dim(cfg8, x, 2, 3) >= 1
    _, zhits = gamma_scan(cfg8)
    assert zhits == []


def test_scan_eight_points(report8, cfg8, gamma8):
    assert report8.all_verdicts_true()
    assert report8.witness is None
    assert report8.counts["jumping_points"] == 8 + len(gamma8)
    assert report8.counts["length_total"] == 36
    assert report8.counts["length_z_part"] == 24
    assert report8.counts["length_gamma_part"] == 12
    orders = dict(zip(report8.points, report8.order()))
    for pt in cfg8.points:
        assert orders[pt] == 2
    for pt in gamma8:
        assert orders[pt] == 1


def test_scan_six_points():
    cfg = random_config(6, F101, seed=1)
    rep = jumping_scan(cfg)
    assert rep.all_verdicts_true()
    jumping = {pt: o for pt, o in zip(rep.points, rep.order()) if o >= 1}
    assert set(jumping) == set(cfg.points)
    assert all(o == 1 for o in jumping.values())


def test_scan_four_points_empty():
    rep = jumping_scan(random_config(4, F101, seed=1))
    assert rep.all_verdicts_true()
    assert rep.counts["jumping_points"] == 0


def test_scan_five_points_matches_conic():
    cfg = random_config(5, F101, seed=1)
    rep = jumping_scan(cfg)
    assert rep.all_verdicts_true()
    conic = curves_through(cfg, 2).basis[0]
    jumping = {pt for pt, o in zip(rep.points, rep.order()) if o >= 1}
    on_conic = {pt for pt in plane_points(101) if hf_eval(F101, conic, pt) == 0}
    assert jumping == on_conic


def test_scan_seven_points(cfg8):
    cfg = random_config(7, F101, seed=1)
    rep = jumping_scan(cfg)
    assert rep.all_verdicts_true()
    assert rep.epsilon == 0 and rep.n == 3
    assert rep.counts["monoidal_degree"] == 6


def test_report_serialization_deterministic(cfg8):
    cfg = random_config(6, F101, seed=2)
    a = jumping_scan(cfg)
    b = jumping_scan(cfg, threads=2)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    payload = json.loads(a.to_json())
    assert payload["config"]["field"] == "fp:101"
    assert len(payload["records"]) == 101 * 101 + 101 + 1
    header = a.to_csv().splitlines()[0]
    assert header == "x0,x1,x2,eps1,eps2,order,in_z,in_gamma"


def _stdlib_serializations(rep):
    """The report's JSON and CSV as json.dumps(indent=2) and csv.writer write
    them, rebuilt from the columns, the configuration and Gamma alone."""
    f = rep.config.field
    top = generic_eps1(len(rep.config))
    zset, gset = set(rep.config.points), set(rep.gamma)
    rows = [
        list(pt) + [a, b, top - a, int(pt in zset), int(pt in gset)]
        for pt, a, b in zip(rep.points, rep.eps1, rep.eps2)
    ]
    payload = {
        "config": {"field": f.tag, "points": [list(pt) for pt in rep.config.points]},
        "epsilon": rep.epsilon,
        "n": rep.n,
        "seed": rep.seed,
        "reseeds": rep.reseeds,
        "counts": rep.counts,
        "verdicts": rep.verdicts,
        "witness": list(rep.witness) if rep.witness is not None else None,
        "gamma": [list(pt) for pt in rep.gamma],
        "records": rows,
    }
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x0", "x1", "x2", "eps1", "eps2", "order", "in_z", "in_gamma"])
    w.writerows(rows)
    return json.dumps(payload, indent=2) + "\n", buf.getvalue()


def _drop_first_gamma_point(monkeypatch):
    real = gamma_scan

    def short(cfg, *plane):
        gamma, zhits = real(cfg, *plane)
        return gamma[1:], zhits

    monkeypatch.setattr("jumplines.jumping.gamma_scan", short)


@pytest.mark.parametrize("which", ["eight points, Gamma", "seven points", "four points", "witness"])
def test_report_serializes_as_the_standard_library_does(which, report8, cfg8, gamma8, monkeypatch,
                                                       assert_same_text):
    if which == "eight points, Gamma":
        rep = report8
        assert rep.gamma and rep.witness is None
    elif which == "seven points":
        rep = jumping_scan(random_config(7, F101, seed=1))
    elif which == "four points":
        rep = jumping_scan(random_config(4, F101, seed=1))
        assert set(rep.order()) == {0}  # n = 2: order 0 on Z, as everywhere else
    else:
        _drop_first_gamma_point(monkeypatch)
        rep = dataclasses.replace(jumping_scan(cfg8), seed=5, reseeds=2)
        assert rep.witness == gamma8[0]
    want_json, want_csv = _stdlib_serializations(rep)
    assert_same_text(rep.to_json(), want_json)
    assert_same_text(rep.to_csv(), want_csv)


def test_scan_witness_is_a_dropped_gamma_point(cfg8, gamma8, monkeypatch):
    # a Gamma point the scan does not report still jumps: the set verdict
    # fails there and nowhere else
    _drop_first_gamma_point(monkeypatch)
    rep = jumping_scan(cfg8)
    assert rep.verdicts["jumping_set_is_z_union_gamma"] is False
    assert rep.verdicts["order_on_z_is_n_minus_2"] and rep.verdicts["order_on_gamma_is_1"]
    assert rep.witness == gamma8[0]
    assert rep.counts["gamma_rational"] == len(gamma8) - 1
    assert rep.counts["jumping_points"] == 8 + len(gamma8)


def test_scan_witness_is_the_first_disagreement_with_the_zero_set(monkeypatch):
    # multiplying the determinant by a line adds that line to its zero set;
    # the witness is the first plane point of it where nothing jumps
    cfg = random_config(7, F101, seed=1)
    mono = monoidal_det(cfg)
    line = HForm(1, (1, 2, 3))
    monkeypatch.setattr("jumplines.jumping.monoidal_det", lambda c: hf_mul(F101, mono, line))
    rep = jumping_scan(cfg)
    assert rep.verdicts["jumping_set_is_monoidal_zero_locus"] is False
    assert rep.verdicts["monoidal_degree_is_n_times_n_minus_1"] is True
    jumping = {pt for pt, o in zip(rep.points, rep.order()) if o >= 1}
    want = next(pt for pt in plane_points(101) if hf_eval(F101, line, pt) == 0 and pt not in jumping)
    assert hf_eval(F101, mono, want) != 0
    assert rep.witness == want


def test_length_accounting_values():
    assert length_accounting(4) == (36, 24, 12)
    assert length_accounting(3) == (6, 6, 0)
    assert length_accounting(2) == (0, 0, 0)
    with pytest.raises(ValueError):
        length_accounting(1)


def test_pencil4_bookkeeping(cfg8, gamma8):
    res = pencil4_eliminant(cfg8)
    assert (len(res.r16) - 1, len(res.r4) - 1, len(res.r12) - 1) == (16, 4, 12)
    # division was exact by construction: recheck the product
    assert up_mul(F101, res.r12, res.r4) == res.r16
    sf = up_squarefree_part(F101, res.r12)
    assert len(sf) == len(res.r12)
    prof = distinct_degree_profile(F101, sf)
    assert sum(t for _, t in prof) == 12
    assert lift_eliminant_roots(cfg8, res) == gamma8


def test_lifted_roots_need_the_third_minor():
    # at one root of R12 for this draw both entries of the first gradient row
    # vanish (the R4 factor), so M01 = M02 = 0 there while M12 does not:
    # no pencil member is singular at that point, and it is not in Gamma
    cfg = random_config(8, F101, seed=129475684)
    res = pencil4_eliminant(cfg)
    assert lift_eliminant_roots(cfg, res) == gamma_points(cfg)


def test_pencil4_needs_eight_points():
    with pytest.raises(DegenerateInputError):
        pencil4_eliminant(random_config(6, F101, seed=1))


def test_ninth_point_properties(cfg8, gamma8):
    p9 = ninth_point(cfg8)
    system = curves_through(cfg8, 3)
    for f in system.basis:
        assert hf_eval(F101, f, p9) == 0
    assert p9 not in cfg8
    assert p9 not in set(gamma8)
    sp = steiner_pencil(cfg8)
    assert jumping_order(sp, p9) == 0


@pytest.mark.parametrize("seed", [2, 5, 8, 9, 10])
def test_ninth_point_over_a_small_field(seed):
    rep = resolve_bundle(seed, 17).report
    p9 = ninth_point(rep.config)
    for f in curves_through(rep.config, 3).basis:
        assert hf_eval(rep.config.field, f, p9) == 0
    assert p9 not in rep.config
    assert rep.order_at(plane_index(17, p9)) == 0


def test_ninth_point_rejects_bad_input(cfg8):
    with pytest.raises(DegenerateInputError):
        ninth_point(random_config(7, F101, seed=1))
    rational = PointConfig(tuple(tuple(RATIONALS.of(c) for c in pt) for pt in cfg8.points), RATIONALS)
    with pytest.raises(ValueError, match="needs a prime field"):
        ninth_point(rational)


def test_containment_monoidal(report8, cfg8, report6):
    rng = random.Random("containment")
    for _ in range(3):
        x = _valid_extra_point(cfg8, rng)
        assert containment_monoidal(report8, x)
    x6 = _valid_extra_point(report6.config, rng)
    assert containment_monoidal(report6, x6)


def test_containment_rejects_degenerate_augmentation(report8, cfg8):
    # a point collinear with two configuration points is rejected
    a, b = cfg8.points[0], cfg8.points[1]
    third = normalize_point(F101, tuple((2 * u + 3 * v) % 101 for u, v in zip(a, b)))
    with pytest.raises(DegenerateInputError):
        containment_monoidal(report8, third)


def test_base_locus_equality(report8, cfg8, gamma8, report6):
    equal, alive, curves = base_locus_equality(report8, seed=0)
    assert equal
    assert alive == set(cfg8.points) | set(gamma8)
    # drawing stops once the locus is exact: one curve is strictly bigger for this seed
    assert curves >= 2
    equal6, alive6, _ = base_locus_equality(report6, seed=0)
    assert equal6 and alive6 == set(report6.config.points)


def test_base_locus_equality_over_a_small_field():
    # over F_31 the first four curves of seed 5 share one more rational point
    rep = resolve_bundle(5, 31).report
    equal, alive, curves = base_locus_equality(rep, seed=rep.seed)
    assert equal and alive == set(rep.config.points + rep.gamma)
    assert curves > 4


def test_base_locus_equality_reads_the_reported_gamma(report8, gamma8):
    # the check compares against the Gamma it is handed, not one it derives:
    # with a point left out, every curve carries an extra point up to the cap
    short = dataclasses.replace(report8, gamma=report8.gamma[1:])
    equal, alive, curves = base_locus_equality(short, seed=0)
    assert not equal
    assert alive == set(report8.config.points) | set(gamma8)
    assert curves == _BASE_LOCUS_CURVES


def test_pinceau_factorization(cfg8, gamma8):
    cfg10 = random_config(10, F101, seed=2)
    for cfg, gamma in ((cfg8, gamma8), (cfg10, gamma_points(cfg10))):
        n = len(cfg) // 2
        assert gamma
        for x in gamma:
            res = pinceau_factorization(cfg, x)
            c = res.common_factor
            assert c.degree == n - 1
            for pt in cfg.points:
                assert hf_eval(F101, c, pt) == 0
            # (n-2)-fold singular at x: every partial of order n-3 vanishes there
            for alpha in monomials(n - 3):
                assert hf_eval(F101, hf_partial_multi(F101, c, alpha), x) == 0
            assert len(res.members) == 2
            for line, member in zip(res.lines, res.members):
                assert line.degree == 1
                assert hf_eval(F101, line, x) == 0
                assert hf_mul(F101, c, line) == member


def test_pinceau_rejects_another_configurations_curves(cfg8, gamma8):
    # the factor is predicted from the family's degree-3 curves through Z;
    # planted curves through another configuration have no member singular at x
    other = curves_through(random_config(8, F101, seed=2), 3)
    family = dataclasses.replace(monoidal_family(cfg8), gamma_system=other, gamma_jets=_symbolic_jet_rows(F101, other, 1))
    with pytest.raises(VerificationError, match="singular at"):
        pinceau_factorization(cfg8, gamma8[0], family)


def test_pinceau_rejects_non_gamma_point(cfg8, gamma8):
    rng = random.Random(23)
    pts = plane_points(101)
    special = set(cfg8.points) | set(gamma8)
    while True:
        x = pts[rng.randrange(len(pts))]
        if x not in special:
            break
    with pytest.raises(VerificationError):
        pinceau_factorization(cfg8, x)


def test_lien_equivalence(report8):
    ok, witness = lien_equivalence(report8)
    assert ok, witness


def test_lien_equivalence_six_points(report6):
    ok, witness = lien_equivalence(report6)
    assert ok, witness


def test_lien_equivalence_returns_the_flipped_record(report8):
    zset = set(report8.config.points)
    order = report8.order()
    i = next(i for i, pt in enumerate(report8.points) if order[i] == 0 and pt not in zset)
    # one step down in eps1 (and up in eps2) raises the order there from 0 to 1
    eps1, eps2 = array("i", report8.eps1), array("i", report8.eps2)
    eps1[i] -= 1
    eps2[i] += 1
    flipped = dataclasses.replace(report8, eps1=eps1, eps2=eps2)
    assert flipped.order()[i] == 1
    ok, witness = lien_equivalence(flipped)
    assert not ok
    assert witness == report8.points[i]


def test_monoidal_degree_gate_fails_on_the_zero_form(monkeypatch):
    # the gate must read the determinant, not its nominal degree
    monkeypatch.setattr("jumplines.jumping.monoidal_det", lambda cfg: hf_zero(F101, 6))
    rep = jumping_scan(random_config(7, F101, seed=1))
    assert rep.verdicts["monoidal_degree_is_n_times_n_minus_1"] is False
    assert rep.counts["monoidal_degree"] == 6


@pytest.mark.parametrize("backend", sorted(kernels.backends()))
@pytest.mark.parametrize("m", [7, 9, 11])
def test_rank_drops_is_the_monoidal_zero_set(monkeypatch, backend, m):
    # ranks of the square jet matrix vanish exactly where its determinant does
    monkeypatch.setattr(kernels, "_impl", kernels.backends()[backend])
    field = prime_field(31)
    cfg = random_config(m, field, seed=1)
    pts = plane_points(31)
    mono = monoidal_det(cfg)
    zeros = [hf_eval(field, mono, pt) == 0 for pt in pts]
    want = [i for i, z in enumerate(zeros) if z]
    assert rank_drops(field, monoidal_matrix(cfg), flat_coords(pts)) == want
    assert rank_drops(field, monoidal_matrix(cfg), PlaneCoords.whole(31)) == want
    assert any(zeros) and not all(zeros)


def test_pencil4_large_prime():
    F = prime_field(10007)
    cfg = random_config(8, F, seed=1)
    res = pencil4_eliminant(cfg)
    assert (len(res.r16) - 1, len(res.r4) - 1, len(res.r12) - 1) == (16, 4, 12)
    sf = up_squarefree_part(F, res.r12)
    prof = distinct_degree_profile(F, sf)
    assert sum(t for _, t in prof) == 12


def test_scan_needs_prime_field():
    from jumplines.algebra import RATIONALS

    cfg = random_config(5, RATIONALS, seed=1)
    with pytest.raises(ValueError):
        jumping_scan(cfg)


@pytest.mark.parametrize("backend", sorted(kernels.backends()))
@pytest.mark.parametrize("m", [8, 10])
def test_monoidal_family_rejects_what_validate_config_rejects(monkeypatch, backend, m):
    # over F_31 most points lie on a line through two points of Z
    monkeypatch.setattr(kernels, "_impl", kernels.backends()[backend])
    field = prime_field(31)
    cfg = random_config(m, field, seed=1)
    family = monoidal_family(cfg)
    kept = 0
    for x in plane_points(31):
        try:
            validate_config(PointConfig(cfg.points + (x,), field), (m // 2,))
            valid = True
        except DegenerateInputError:
            valid = False
        assert (family.reject(x) is None) == valid, x
        kept += valid
    assert 0 < kept < 993


def _first_of_each_zero_pattern(family, count=3):
    """The first valid plane point for each pattern of zeros among the first
    `count` basis values: the pivot of the column basis lands on each index."""
    field = family.config.field
    out = {}
    for x in plane_points(field.p):
        if family.reject(x) is None:
            out.setdefault(tuple(field.is_zero(v) for v in family.values(x)[:count]), x)
    return list(out.values())


@pytest.mark.parametrize("backend", sorted(kernels.backends()))
@pytest.mark.parametrize("m", [8, 10])
def test_monoidal_family_matrix_drops_where_monoidal_matrix_does(monkeypatch, backend, m):
    monkeypatch.setattr(kernels, "_impl", kernels.backends()[backend])
    field = prime_field(31)
    cfg = random_config(m, field, seed=1)
    family = monoidal_family(cfg)
    xs = _first_of_each_zero_pattern(family)
    assert len(xs) >= 4  # the pivot is not always the first basis member
    plane = PlaneCoords.whole(31)
    drops = []
    for x in xs:
        want = rank_drops(field, monoidal_matrix(PointConfig(cfg.points + (x,), field)), plane)
        assert rank_drops(field, family.matrix(x), plane) == want, x
        drops.append(want)
    assert len(set(map(tuple, drops))) == len(xs)  # each x gives its own curve


def test_monoidal_family_rejects_a_point_on_every_curve():
    # with Z checked, every such point is also collinear with two points of Z;
    # a family over four collinear points, without its lines, shows the test alone
    field = prime_field(31)
    cfg = PointConfig(((0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)), field)
    system = curves_through(cfg, 2)
    family = MonoidalFamily(cfg, system, _symbolic_jet_rows(field, system, 0), ())
    assert family.values((4, 1, 1)) == [0] * system.dim()
    assert "imposes no condition" in family.reject((4, 1, 1))
    with pytest.raises(DegenerateInputError):
        family.matrix((4, 1, 1))
    assert family.reject((0, 0, 1)) is None


def test_monoidal_family_checks_its_configuration(cfg8):
    points = list(cfg8.points[:7])
    points.append(normalize_point(F101, [a + b for a, b in zip(points[0], points[1])]))
    with pytest.raises(DegenerateInputError, match="collinear"):
        monoidal_family(PointConfig(tuple(points), F101))
    with pytest.raises(DegenerateInputError):
        monoidal_family(random_config(7, F101, seed=1))
    other = monoidal_family(random_config(8, F101, seed=2))
    with pytest.raises(ValueError, match="another configuration"):
        containment_monoidal(jumping_scan(cfg8), (1, 2, 3), other)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pinceau_factorization_with_the_shared_jets(seed):
    cfg = random_config(8, F101, seed=seed)
    family = monoidal_family(cfg)
    system = curves_through(cfg, 4)
    gamma = gamma_points(cfg)
    assert gamma
    for x in gamma:
        assert _jets_at(F101, family.jets, x) == jet_matrix(system, x, 2)
        assert pinceau_factorization(cfg, x, family) == pinceau_factorization(cfg, x)


@pytest.mark.parametrize("m", [8, 10])
def test_monoidal_family_holds_the_gamma_system(m):
    # the family's degree-(n-1) jets are the Gamma scan's matrix, and its
    # degree-n jets evaluate at every Gamma point as jet_matrix does
    n = m // 2
    cfg = random_config(m, F101, seed=1)
    family = monoidal_family(cfg)
    assert family.gamma_system == curves_through(cfg, n - 1)
    assert family.gamma_system.dim() == n * (n - 3) // 2
    assert family.gamma_jets == gamma_minor_matrix(cfg)
    gamma = gamma_points(cfg)
    assert gamma
    for x in gamma:
        assert _jets_at(F101, family.jets, x) == jet_matrix(family.system, x, n - 2)
        assert _jets_at(F101, family.gamma_jets, x) == jet_matrix(family.gamma_system, x, n - 3)


@pytest.mark.parametrize("m", [4, 6])
def test_small_monoidal_families_hold_no_gamma_system(m):
    family = monoidal_family(random_config(m, F101, seed=1))
    assert family.gamma_system is None and family.gamma_jets == ()


@pytest.mark.parametrize("p", [31, 101])
@pytest.mark.parametrize("m", [8, 10])
def test_gamma_scan_does_not_depend_on_threads(p, m):
    field = prime_field(p)
    cfg = random_config(m, field, seed=1)
    rows = gamma_minor_matrix(cfg)
    plane = PlaneCoords.whole(p)
    # 2 and 3 threads cut the plane into ranges that start mid-row
    columns = [scan_form_matrix(field, rows, plane, t) for t in (1, 2, 3)]
    assert columns[1] == columns[0] and columns[2] == columns[0]
    assert rank_drops(field, rows, plane, 3) == kernels.rows_below(columns[0][0], len(rows[0]))
    assert gamma_scan(cfg, 3) == gamma_scan(cfg)
