import functools
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from eigenclass_reference import reference_eigenclass_constraints
from hypothesis import example, given, settings
from hypothesis import strategies as st
from towerfile_reference import dense_row

from threefold import (
    CurveCenterSpec,
    ValidationError,
    blow_up_curve,
    blow_up_point,
    make_base,
    make_custom_base,
    dynamical_degrees,
    eigenclass_constraints,
    rationality_obstruction,
    triple,
    validate_action,
)
from threefold.lattice_dynamics import (
    ALGEBRAIC_ONE,
    algebraic_compare,
    algebraic_square,
    lambda2_at_least_one_certified,
    square_dominance_certified,
)
from threefold.nef_conditions import _p3_points_lines_models
from threefold.polynomials import (
    AlgebraicNumber,
    berkowitz_charpoly,
    certified_radius_from_charpoly,
    poly_mul,
)
from unimodular import matrix_adjugate_unimodular


def companion(poly):
    """Companion matrix of a monic integer polynomial (low-to-high coeffs)."""
    n = len(poly) - 1
    assert poly[-1] == 1
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -poly[i]
    return m


def zero_product_model(rank, c1=None, c2=None, label="synthetic"):
    """A lattice-only model: identity pairing, one cube generator `f` with
    f^3 = 1, everything else multiplying to zero.  Useful for packaging raw
    lattice actions as models."""
    divisors = [f"d{i}" for i in range(1, rank)] + ["f"]
    curves = [f"c{i}" for i in range(1, rank)] + ["g"]
    mul = {("f", "f"): {"g": 1}}
    pairing = {(d, c): 1 for d, c in zip(divisors, curves)}
    return make_custom_base(
        label=label,
        divisor_names=divisors,
        curve_names=curves,
        mul2=mul,
        pairing=pairing,
        c1=c1 or {"f": 2},
        c2=c2 or {"g": 3},
        euler=2 + 2 * rank,
    )


def block_plus_fixed(block):
    """block (+) [1] acting on a zero_product_model of matching rank."""
    k = len(block)
    n = k + 1
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            m[i][j] = block[i][j]
    m[k][k] = 1
    return m


SALEM_QUARTIC = [1, -2, 0, -2, 1]  # reciprocal, lambda ~ 2.2966
PLASTIC = [-1, -1, 0, 1]  # x^3 - x - 1, lambda ~ 1.3247


def test_validate_identity_ok():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    v = validate_action(x2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert v.ok and v.violations == ()


def test_validate_detects_each_violation():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    v = validate_action(x2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not v.ok
    text = " / ".join(v.violations)
    assert "det = 2" in text
    assert "triple product" in text
    assert "c1" in text


def p3lines_point_swap(n=10):
    """p3lines' X2 for n points (rho = 1 + n + n(n-1)/2) and the action of
    the point transposition (1 2): E1 <-> E2 and F(1j) <-> F(2j), the
    exceptional divisors over the lines through p1 and p2 (F12 stays)."""
    x2 = _p3_points_lines_models(n)[1]
    lines = list(itertools.combinations(range(1, n + 1), 2))
    swap = {1: 2, 2: 1}
    image = [0] + [swap.get(i, i) for i in range(1, n + 1)] + [
        n + 1 + lines.index(tuple(sorted((swap.get(i, i), swap.get(j, j)))))
        for i, j in lines
    ]
    return x2, [[int(image[j] == i) for j in range(len(image))] for i in range(len(image))]


def test_validate_exceptional_swap_is_ok():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    v = validate_action(x2, swap)
    assert v.ok
    # curve action is the matching permutation
    assert v.action.curve_matrix == (
        (Q(1), Q(0), Q(0)),
        (Q(0), Q(0), Q(1)),
        (Q(0), Q(1), Q(0)),
    )
    # the point transposition on X2 (rho = 56): the curves l, L_i, M_k are
    # permuted like the divisors h, E_i, F_k
    x2, A = p3lines_point_swap()
    v = validate_action(x2, A)
    assert v.ok and len(A) == 56
    assert v.action.curve_matrix == tuple(tuple(Q(a) for a in row) for row in A)


def test_singular_action_is_reported():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    A = [[1, 0, 0], [0, 1, 1], [0, 1, 1]]
    v = validate_action(x2, A)
    assert not v.ok and v.action is None
    assert "det = 0, not +-1" in v.violations


def test_validate_dimension_mismatch_raises():
    with pytest.raises(ValidationError):
        validate_action(make_base("p3"), [[1, 0], [0, 1]])


def test_pairing_preserved_jointly():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    for model, A in ((x2, swap), p3lines_point_swap()):
        n = len(A)
        B = validate_action(model, A).action.curve_matrix
        P = [dense_row(model, i) for i in range(n)]
        # A^T P B = P, summed over the non-zero entries of A and of A^T P
        cols = [[(k, a) for k, a in enumerate(col) if a] for col in zip(*A)]
        for i in range(n):
            AtP = [(l, v) for l in range(n) if (v := sum(a * P[k][l] for k, a in cols[i]))]
            for j in range(n):
                assert sum(v * B[l][j] for l, v in AtP) == P[i][j]


def test_identity_degrees():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    rep = dynamical_degrees(x2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert float(rep.lambda1) == 1.0 and float(rep.lambda2) == 1.0
    assert rep.entropy == 0.0
    assert rep.primitive_hint is False
    assert square_dominance_certified(rep)
    assert lambda2_at_least_one_certified(rep)


def test_raw_fibonacci_degrees():
    rep = dynamical_degrees(None, [[0, 1], [1, 1]])
    assert rep.lambda1.minpoly == (-1, -1, 1)
    assert abs(float(rep.lambda1) - (1 + 5**0.5) / 2) < 1e-9
    # lambda2 = rho(A^-1) is the same golden ratio, so no primitivity hint
    assert rep.lambda2.minpoly == (-1, -1, 1)
    assert rep.primitive_hint is False
    assert abs(rep.entropy - 0.4812118250596) < 1e-9
    assert square_dominance_certified(rep)


def test_raw_mode_requires_unimodular():
    with pytest.raises(ValidationError):
        dynamical_degrees(None, [[2, 0], [0, 1]])


def test_raw_plastic_number_distinct_degrees():
    # companion of x^3 - x - 1: the inverse has a dominant complex pair of
    # modulus sqrt(plastic), so lambda1 != lambda2 and both are certified
    rep = dynamical_degrees(None, companion(PLASTIC))
    assert rep.lambda1.minpoly == tuple(PLASTIC)
    assert abs(float(rep.lambda1) - 1.3247179572447) < 1e-9
    assert abs(float(rep.lambda2) - 1.3247179572447**0.5) < 1e-8
    assert rep.primitive_hint is True
    assert square_dominance_certified(rep)
    assert lambda2_at_least_one_certified(rep)


def test_model_mode_strict_rejects_invalid():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    with pytest.raises(ValidationError):
        dynamical_degrees(x2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def _monic_unit_poly(draw, degree):
    """A monic integer polynomial of the given degree with constant term +-1."""
    if degree == 0:
        return [1]
    middle = draw(st.lists(st.integers(-2, 2), min_size=degree - 1, max_size=degree - 1))
    return [draw(st.sampled_from([1, -1]))] + middle + [1]


@st.composite
def unimodular_matrices(draw):
    """Unimodular integer matrices of rank 2-8: a row-permuted product of
    elementary row operations, or the companion matrix of f^r g with f and g
    monic, constant term +-1 (defective when r = 2; many of either kind are
    complex-dominant and reach the pairwise-product fallback)."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        A = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        return [A[p] for p in draw(st.permutations(range(n)))]
    r = draw(st.integers(1, 2))
    d = draw(st.integers(1, n // r))
    f = _monic_unit_poly(draw, d)
    g = _monic_unit_poly(draw, n - r * d)
    return companion(poly_mul(f, g) if r == 1 else poly_mul(poly_mul(f, f), g))


@settings(max_examples=40, deadline=None)
@given(unimodular_matrices())
@example([[3, 0, -1], [-2, -1, 1], [3, -1, -1]])  # lambda2 complex-dominant
@example(companion(poly_mul(PLASTIC, PLASTIC)))  # defective, complex-dominant inverse
@example(companion([-1, 0, 0, -1, 1, 1]))  # inverse: a +-1 twin under a complex pair
def test_lambda2_from_reversed_charpoly_matches_inverse(A):
    # lambda2 comes from the reversal of chi_A; the reference certifies the
    # integer inverse's own characteristic polynomial
    got = dynamical_degrees(None, A).lambda2
    ref = certified_radius_from_charpoly(berkowitz_charpoly(matrix_adjugate_unimodular(A)))
    assert (got.minpoly, got.lo, got.hi) == (ref.minpoly, ref.lo, ref.hi)


def test_lambda2_from_reversed_charpoly_matches_curve_matrix():
    # the reference certifies the curve matrix B = P^-1 A^-T P itself
    for model, A in (
        p3lines_point_swap(5),
        (zero_product_model(5), block_plus_fixed(companion(SALEM_QUARTIC))),
        (zero_product_model(4), block_plus_fixed(companion(PLASTIC))),
    ):
        got = dynamical_degrees(model, A).lambda2
        B = validate_action(model, A).action.curve_matrix
        ref = certified_radius_from_charpoly(berkowitz_charpoly(B))
        assert (got.minpoly, got.lo, got.hi) == (ref.minpoly, ref.lo, ref.hi)


def test_rationality_obstruction_cases():
    assert rationality_obstruction([1, -3, 1]).status == "consistent"
    r = rationality_obstruction([-2, 1])
    assert r.status == "not-unimodular" and "P(0) = -2" in r.detail
    # (x-1)^2 (x+1) = x^3 - x^2 - x + 1
    assert rationality_obstruction([1, -1, -1, 1]).status == "consistent"
    with pytest.raises(ValidationError):
        rationality_obstruction([1, 1, 2])


def test_rationality_on_random_unimodular_charpolys():
    rng = random.Random(101)
    from threefold.bareiss import int_matrix_det

    checked = 0
    while checked < 150:
        n = rng.randint(2, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if int_matrix_det(m) not in (1, -1):
            continue
        checked += 1
        assert rationality_obstruction(berkowitz_charpoly(m)).status == "consistent"


def test_algebraic_compare_decides_equality_and_order():
    sqrt2a = AlgebraicNumber((-2, 0, 1), Q(1), Q(3, 2))
    sqrt2b = AlgebraicNumber((-2, 0, 1), Q(7, 5), Q(2))
    assert algebraic_compare(sqrt2a, sqrt2b) == 0
    phi = AlgebraicNumber((-1, -1, 1), Q(1), Q(2))
    assert algebraic_compare(sqrt2a, phi) == -1
    assert algebraic_compare(phi, sqrt2a) == 1
    assert algebraic_compare(phi, ALGEBRAIC_ONE) == 1
    assert algebraic_compare(ALGEBRAIC_ONE, ALGEBRAIC_ONE) == 0


def test_algebraic_square():
    phi = AlgebraicNumber((-1, -1, 1), Q(1), Q(2))
    sq = algebraic_square(phi)
    # phi^2 = phi + 1 is a root of x^2 - 3x + 1
    assert sq.minpoly == (1, -3, 1)
    assert abs(float(sq) - ((1 + 5**0.5) / 2) ** 2) < 1e-9


def test_eigenclass_identity_entropy_zero():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    rep = eigenclass_constraints(x2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rep.status == "entropy-zero"
    assert "entropy zero regime" in rep.detail


def test_eigenclass_salem_block_residuals():
    model = zero_product_model(5)
    A = block_plus_fixed(companion(SALEM_QUARTIC))
    v = validate_action(model, A)
    assert v.ok, v.violations
    rep = eigenclass_constraints(model, A, tolerance=1e-8)
    assert rep.status == "ok"
    assert rep.lambda1 > 2.29
    for key, val in rep.residuals.items():
        assert val < 1e-8, (key, val)
        assert rep.within_tolerance[key]
    # Salem polynomials are reciprocal: lambda2 = lambda1, no part-2 block
    assert rep.includes_lambda_neq_constraints is False


def test_eigenclass_plastic_block_includes_part2():
    model = zero_product_model(4)
    A = block_plus_fixed(companion(PLASTIC))
    rep = eigenclass_constraints(model, A, tolerance=1e-8)
    assert rep.status == "ok"
    assert rep.includes_lambda_neq_constraints is True
    assert "zeta_c1_components_max" in rep.residuals
    assert all(v < 1e-8 for v in rep.residuals.values())


def test_eigenclass_defective_leading_eigenspace():
    # companion of (x^4-2x^3-2x+1)^2 is non-derogatory: algebraic
    # multiplicity 2, geometric multiplicity 1 at the Salem root
    p2 = poly_mul(SALEM_QUARTIC, SALEM_QUARTIC)
    model = zero_product_model(9, c1={"f": 0}, c2={"g": 0})
    A = block_plus_fixed(companion([int(c) for c in p2]))
    rep = eigenclass_constraints(model, A, tolerance=1e-8)
    assert rep.status == "eigenvector-not-certified"
    assert "defective" in rep.detail


def test_eigenclass_rejects_invalid_action():
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    with pytest.raises(ValidationError):
        eigenclass_constraints(x2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_eigenclass_rejects_bad_tolerance():
    x2 = blow_up_point(make_base("p3"))
    for tolerance in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValidationError, match="^tolerance must be finite and positive$"):
            eigenclass_constraints(x2, [[1, 0], [0, 1]], tolerance=tolerance)


def block_sum(blocks):
    n = sum(map(len, blocks))
    m = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            m[at + i][at : at + len(row)] = row
        at += len(block)
    return m


SALEM_QUARTIC_SQUARED = [int(c) for c in poly_mul(SALEM_QUARTIC, SALEM_QUARTIC)]

# monic integer polynomials with constant term +-1: Salem, reciprocal
# quadratic, Pisot, and reversed Pisot (the inverse's roots)
SALEM_AND_PISOT = (
    SALEM_QUARTIC,
    [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],  # Lehmer, lambda ~ 1.1763
    [1, -1, -1, -1, 1],
    [1, 0, -1, -1, -1, 0, 1],
    [1, -3, 1],
    [1, -4, 1],
    [-1, -1, 1],  # golden ratio
    PLASTIC,
    [-1, -1, -1, 1],
    [1, 0, -3, 1],
    [-1, 1, 1, 1],
    [1, -3, 0, 1],
)


@functools.lru_cache(maxsize=None)
def invariant_forms(picks):
    """A basis of the symmetric integer forms Q with C^T Q C = Q, for C the
    block sum of the companion matrices of SALEM_AND_PISOT[i], i in picks."""
    import sympy

    C = sympy.Matrix(block_sum([companion(SALEM_AND_PISOT[i]) for i in picks]))
    r = C.rows
    slots = [(i, j) for i in range(r) for j in range(i, r)]
    unknowns = sympy.symbols(f"q0:{len(slots)}")
    form = sympy.zeros(r, r)
    for q, (i, j) in zip(unknowns, slots):
        form[i, j] = form[j, i] = q
    system = sympy.Matrix([[e.coeff(q) for q in unknowns] for e in C.T * form * C - form])
    forms = []
    for v in system.nullspace():
        scale = sympy.ilcm(*(sympy.fraction(x)[1] for x in v))
        F = [[0] * r for _ in range(r)]
        for x, (i, j) in zip(v, slots):
            F[i][j] = F[j][i] = int(x * scale)
        forms.append(F)
    return forms


def quadratic_model(form, c1, c2):
    """d_1..d_r, f with the cubic form x_f^3 + x_f Q(x_d) for the symmetric
    integer matrix Q = form, identity pairing, c1 = c1 f and c2 = c2 g."""
    r = len(form)
    divisors = [f"d{i}" for i in range(r)] + ["f"]
    curves = [f"c{i}" for i in range(r)] + ["g"]
    mul = {("f", "f"): {"g": 1}}
    for i in range(r):
        mul[("f", divisors[i])] = {curves[j]: form[i][j] for j in range(r)}
        for j in range(i, r):
            mul[(divisors[i], divisors[j])] = {"g": form[i][j]}
    return make_custom_base(
        label="quadratic",
        divisor_names=divisors,
        curve_names=curves,
        mul2=mul,
        pairing={(d, c): 1 for d, c in zip(divisors, curves)},
        c1={"f": c1},
        c2={"g": c2},
        euler=4,
    )


@st.composite
def quadratic_actions(draw):
    """C (+) 1 on a quadratic_model whose form C preserves, C the block sum
    of one or two companion matrices of SALEM_AND_PISOT.  Two blocks stay
    within rank 8: above it, a degree carried by a complex pair is refused
    (Lehmer's block beside a tribonacci block, say)."""
    index = st.integers(0, len(SALEM_AND_PISOT) - 1)
    picks = tuple(draw(st.lists(index, min_size=1, max_size=2, unique=True)))
    r = sum(len(SALEM_AND_PISOT[i]) - 1 for i in picks)
    if r > 8:
        picks = picks[:1]
        r = len(SALEM_AND_PISOT[picks[0]]) - 1
    forms = invariant_forms(picks)
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(forms), max_size=len(forms)))
    form = [[sum(w * F[i][j] for w, F in zip(weights, forms)) for j in range(r)] for i in range(r)]
    model = quadratic_model(form, draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return model, block_plus_fixed(block_sum([companion(SALEM_AND_PISOT[i]) for i in picks]))


def assert_matches_reference(model, A):
    """The exact report against the floating-point reference: the same
    status, detail and verdicts, each residual exactly 0 where the reference
    reads below 1e-25 and the same to four digits elsewhere, and the same
    eigenvector up to sign."""
    got = eigenclass_constraints(model, A)
    if got.detail == "lambda1 is not an eigenvalue of A":
        with pytest.raises(IndexError):
            reference_eigenclass_constraints(model, A)
        return got
    ref = reference_eigenclass_constraints(model, A)
    assert (got.status, got.detail) == (ref.status, ref.detail)
    assert got.includes_lambda_neq_constraints == ref.includes_lambda_neq_constraints
    assert got.within_tolerance == ref.within_tolerance
    assert list(got.residuals) == list(ref.residuals)
    for key, value in ref.residuals.items():
        if value < 1e-25:
            assert got.residuals[key] == 0.0, key
        else:
            assert f"{got.residuals[key]:.3e}" == f"{value:.3e}", key
    if got.eigenvector:
        sign = 1 if max(got.eigenvector, key=abs) == max(ref.eigenvector, key=abs) else -1
        assert max(abs(a - sign * b) for a, b in zip(got.eigenvector, ref.eigenvector)) < 1e-14
    return got


def test_eigenclass_lambda1_not_an_eigenvalue():
    # chi = x^3 + x + 1: a complex pair carries lambda1; x^2 + 3x + 1: only
    # -lambda1 is an eigenvalue.  Neither preserves a nef cone, and the
    # minimal polynomial of lambda1 does not divide chi_A
    for block in ([[0, 0, -1], [1, 0, -1], [0, 1, 0]], [[0, -1], [1, -3]]):
        A = block_plus_fixed(block)
        rep = eigenclass_constraints(zero_product_model(len(A)), A)
        assert rep.status == "eigenvector-not-certified"
        assert rep.detail == "lambda1 is not an eigenvalue of A"
        assert rep.residuals == {} and rep.eigenvector == ()


@pytest.mark.parametrize(
    "polys, detail",
    [
        ([SALEM_QUARTIC_SQUARED], "algebraic multiplicity 2, numeric nullity 1"),
        ([SALEM_QUARTIC_SQUARED, SALEM_QUARTIC], "algebraic multiplicity 3, numeric nullity 2"),
    ],
    ids=["one-block", "blocks-2-and-1"],
)
def test_eigenclass_defect_reports_the_exact_geometric_multiplicity(polys, detail):
    # Jordan blocks at lambda1 of the sizes the ids name
    A = block_plus_fixed(block_sum([companion(p) for p in polys]))
    model = zero_product_model(len(A), c1={"f": 0}, c2={"g": 0})
    assert assert_matches_reference(model, A).detail == "leading eigenspace defective: " + detail


def test_eigenclass_semisimple_repeated_root_is_ok():
    # companion(m) twice: multiplicity 2, not defective
    A = block_plus_fixed(block_sum([companion(SALEM_QUARTIC)] * 2))
    rep = eigenclass_constraints(zero_product_model(9), A)
    assert rep.status == "ok"
    assert set(rep.residuals.values()) == {0.0}
    zeta = rep.eigenvector
    for row, z in zip(A, zeta):
        assert abs(sum(a * y for a, y in zip(row, zeta)) - rep.lambda1 * z) < 1e-9


@pytest.mark.parametrize("poly", [SALEM_QUARTIC, PLASTIC, [-1, -1, 1]], ids=["salem", "plastic", "golden"])
def test_eigenclass_matches_reference_on_zero_product_blocks(poly):
    A = block_plus_fixed(companion(poly))
    assert assert_matches_reference(zero_product_model(len(A)), A).status == "ok"


@settings(max_examples=40, deadline=None)
@given(quadratic_actions())
@example((quadratic_model(invariant_forms((0,))[0], 2, 3), block_plus_fixed(companion(SALEM_QUARTIC))))
def test_eigenclass_matches_reference_on_quadratic_models(action):
    model, A = action
    assert validate_action(model, A).ok
    assert_matches_reference(model, A)


def test_eigenclass_residuals_are_exactly_zero_where_the_reference_read_noise():
    # x_f^3 + x_f Q(x_d) with Q preserved by the Salem block: zeta^2 = Q(zeta) g
    # vanishes exactly; the reference read 2.889e-35 and 5.778e-35
    form = [[sum(F[i][j] for F in invariant_forms((0,))) for j in range(4)] for i in range(4)]
    model = quadratic_model(form, 2, 3)
    A = block_plus_fixed(companion(SALEM_QUARTIC))
    ref = reference_eigenclass_constraints(model, A)
    assert 0 < ref.residuals["zeta2_components_max"] < 1e-25
    rep = eigenclass_constraints(model, A)
    assert set(rep.residuals.values()) == {0.0}


def test_eigenclass_reports_a_non_vanishing_residual():
    # (phi^2 block (+) reversed x^3 - 3x^2 + 1 block) (+) 1: lambda2 > lambda1,
    # and zeta.c1 = 2 zeta.f = 2 sum_j (Q zeta)_j c_j is not 0, since Q pairs
    # the phi^2 eigenvector with the 1/phi^2 one
    picks = (SALEM_AND_PISOT.index([1, -3, 1]), SALEM_AND_PISOT.index([1, -3, 0, 1]))
    (form,) = invariant_forms(picks)
    model = quadratic_model(form, 2, 3)
    A = block_plus_fixed(block_sum([companion(SALEM_AND_PISOT[i]) for i in picks]))
    rep = assert_matches_reference(model, A)
    assert rep.includes_lambda_neq_constraints
    assert f"{rep.residuals['zeta_c1_components_max']:.3e}" == "4.472e+00"
    assert rep.within_tolerance["zeta_c1_components_max"] is False
    assert [v for k, v in rep.residuals.items() if k != "zeta_c1_components_max"] == [0.0] * 5


def test_square_dominance_on_salem_model_action():
    model = zero_product_model(5)
    A = block_plus_fixed(companion(SALEM_QUARTIC))
    rep = dynamical_degrees(model, A)
    # genuine validated action: log-concavity is certified
    assert square_dominance_certified(rep)
    assert lambda2_at_least_one_certified(rep)
    assert rep.primitive_hint is False  # reciprocal spectrum


def _first_broken_triple(model, A):
    """The seed's dense loop: first basis triple i <= j <= k whose product
    changes under A, as the validate_action violation text."""
    n = len(model.divisor_basis)
    basis = [model.divisor([Q(int(t == i)) for t in range(n)]) for i in range(n)]
    images = [model.divisor([Q(A[p][i]) for p in range(n)]) for i in range(n)]
    names = model.divisor_names()
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                lhs = triple(model, images[i], images[j], images[k])
                rhs = triple(model, basis[i], basis[j], basis[k])
                if lhs != rhs:
                    return (
                        f"triple product not preserved on ({names[i]},{names[j]},{names[k]}): "
                        f"{rhs} -> {lhs}"
                    )
    return None


def test_validate_action_triple_check_matches_dense_loop():
    rng = random.Random(23)
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    line = blow_up_curve(x2, CurveCenterSpec(x2.curve({"l": 1, "L1": -1, "L2": -1}), genus=0))
    for model in (x2, make_base("p1cubed"), line, zero_product_model(4)):
        n = len(model.divisor_basis)
        for _ in range(40):
            if rng.random() < 0.5:
                perm = rng.sample(range(n), n)
                A = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            else:
                A = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
            found = [s for s in validate_action(model, A).violations if s.startswith("triple")]
            expected = _first_broken_triple(model, A)
            assert found == ([expected] if expected else [])
