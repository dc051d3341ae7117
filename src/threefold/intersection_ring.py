"""Exact intersection calculus for the rational divisor/curve lattices of a threefold.

A ThreefoldModel stores the numerical shadow of a smooth projective threefold:
a divisor basis, a curve basis, the divisor*divisor multiplication table (with
values in the curve lattice) and the divisor/curve pairing, both sparse (see
ThreefoldModel), the first and second Chern classes, the topological Euler
characteristic and the Picard number.

All scalars are exact rationals.  Floating point never enters this module;
the dynamics code converts on its own side when it needs numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .polynomials import bareiss_solve

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

DIVISOR = "divisor"
CURVE = "curve"

# base_flags understood by the condition checkers
FLAG_PICARD_RANK_1 = "picard-rank-1"
FLAG_C2_MOVABLE_POSITIVE = "c2-movable-positive"
FLAG_CONDITION_A = "condition-A-asserted"
FLAG_CONDITION_B = "condition-B-asserted"


class ValidationError(ValueError):
    """A model or class violates a structural invariant."""


def _to_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValidationError(f"not an exact rational: {x!r}")


_FRACTION_ONLY = frozenset({Fraction})


def _tuple_q(coeffs: Iterable) -> tuple[Fraction, ...]:
    # a tuple of exact Fractions is returned as it is (the type check runs in C)
    if type(coeffs) is tuple and _FRACTION_ONLY.issuperset(map(type, coeffs)):
        return coeffs
    return tuple(_to_q(c) for c in coeffs)


def _scaled_to_integers(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(s, [s*c for c in coeffs]) with s the lcm of the denominators."""
    s = lcm(*(c.denominator for c in coeffs))
    return s, [c.numerator * (s // c.denominator) for c in coeffs]


@dataclass(frozen=True)
class BasisElement:
    """One named generator of the divisor or curve lattice.

    origin is "base" for generators of the base model and
    "exceptional(step=k)" for classes created by the k-th blowup
    (1-indexed).  Generators keep their identity under later blowups;
    an element whose step predates the model's last step is implicitly
    the pullback of the same-named element downstairs.
    """

    name: str
    kind: str  # DIVISOR or CURVE
    origin: str = "base"
    step: int | None = None

    def __post_init__(self):
        if self.kind not in (DIVISOR, CURVE):
            raise ValidationError(f"bad basis kind {self.kind!r}")


@dataclass(frozen=True)
class DivisorClass:
    """A rational divisor class, as coefficients over a model's divisor basis."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _tuple_q(self.coeffs))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_len(self, other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_len(self, other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def scale(self, a) -> "DivisorClass":
        a = _to_q(a)
        return DivisorClass(tuple(a * c for c in self.coeffs))

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class CurveClass:
    """A rational curve class, as coefficients over a model's curve basis."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _tuple_q(self.coeffs))

    def __add__(self, other: "CurveClass") -> "CurveClass":
        _same_len(self, other)
        return CurveClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        _same_len(self, other)
        return CurveClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CurveClass":
        return CurveClass(tuple(-a for a in self.coeffs))

    def scale(self, a) -> "CurveClass":
        a = _to_q(a)
        return CurveClass(tuple(a * c for c in self.coeffs))

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


def _same_len(a, b):
    if len(a.coeffs) != len(b.coeffs):
        raise ValidationError(
            f"dimension mismatch: {len(a.coeffs)} vs {len(b.coeffs)}"
        )


MulTable = dict[tuple[int, int], dict[int, Fraction]]
PairTable = dict[tuple[int, int], Fraction]


@dataclass(frozen=True)
class ThreefoldModel:
    """Immutable intersection-theoretic state of a threefold.

    Both tables are sparse and held in one canonical form:

    - mul2 maps each unordered pair of divisor generator indices, keyed
      (i, j) with i <= j, to the product e_i.e_j as {curve index: non-zero
      coefficient}; a pair whose product is zero has no key;
    - pairing maps (divisor index, curve index) to the intersection number,
      for the non-zero numbers only.

    No explicit zero, no (j, i) key and no out-of-range index is stored
    (validate_model rejects them), so two models have the same tables
    exactly when the dicts compare equal.  A blowup copies the parent's
    dicts shallowly and adds only its new entries; the entry dicts are
    shared along the tower and must never be mutated.  dense_row reads one
    whole row, zeros included, for printing and matrix inversion.  Blowups
    return new models; `parent` records the provenance used by the
    pushforward/pullback maps and is ignored by equality.
    """

    label: str
    divisor_basis: tuple[BasisElement, ...]
    curve_basis: tuple[BasisElement, ...]
    mul2: MulTable
    pairing: PairTable
    c1: DivisorClass
    c2: CurveClass
    euler: int
    picard: int
    base_flags: frozenset[str] = frozenset()
    parent: "ThreefoldModel | None" = field(default=None, compare=False, repr=False)

    def __hash__(self) -> int:
        # the tables are dicts; equal models agree on every field hashed here
        return hash(
            (self.label, self.divisor_basis, self.curve_basis, self.c1, self.c2,
             self.euler, self.picard, self.base_flags)
        )

    def dense_row(self, i: int, j: int | None = None) -> tuple[Fraction, ...]:
        """Pairing row i, or with j the curve coefficients of e_i.e_j, as a
        full tuple over the curve basis with its zeros."""
        m = len(self.curve_basis)
        if j is None:
            return tuple(self.pairing.get((i, a), ZERO) for a in range(m))
        entry = self.mul2.get((i, j) if i <= j else (j, i), {})
        return tuple(entry.get(a, ZERO) for a in range(m))

    # -- lookups ---------------------------------------------------------

    def divisor_index(self, name: str) -> int:
        for i, e in enumerate(self.divisor_basis):
            if e.name == name:
                return i
        raise ValidationError(f"no divisor generator named {name!r} in {self.label}")

    def curve_index(self, name: str) -> int:
        for a, e in enumerate(self.curve_basis):
            if e.name == name:
                return a
        raise ValidationError(f"no curve generator named {name!r} in {self.label}")

    def divisor(self, coeffs: Mapping[str, object] | Sequence) -> DivisorClass:
        """Build a divisor class from a name->coefficient mapping or a full vector."""
        if isinstance(coeffs, Mapping):
            vec = [ZERO] * len(self.divisor_basis)
            for name, c in coeffs.items():
                vec[self.divisor_index(name)] = _to_q(c)
            return DivisorClass(tuple(vec))
        vec = _tuple_q(coeffs)
        if len(vec) != len(self.divisor_basis):
            raise ValidationError("divisor vector has wrong length")
        return DivisorClass(vec)

    def curve(self, coeffs: Mapping[str, object] | Sequence) -> CurveClass:
        """Build a curve class from a name->coefficient mapping or a full vector."""
        if isinstance(coeffs, Mapping):
            vec = [ZERO] * len(self.curve_basis)
            for name, c in coeffs.items():
                vec[self.curve_index(name)] = _to_q(c)
            return CurveClass(tuple(vec))
        vec = _tuple_q(coeffs)
        if len(vec) != len(self.curve_basis):
            raise ValidationError("curve vector has wrong length")
        return CurveClass(vec)

    def zero_curve(self) -> CurveClass:
        return CurveClass((ZERO,) * len(self.curve_basis))

    def divisor_names(self) -> list[str]:
        return [e.name for e in self.divisor_basis]

    def curve_names(self) -> list[str]:
        return [e.name for e in self.curve_basis]


# ---------------------------------------------------------------------------
# products and pairings
# ---------------------------------------------------------------------------


def multiply_divisors(model: ThreefoldModel, d1: DivisorClass, d2: DivisorClass) -> CurveClass:
    """Bilinear extension of the divisor product table; returns a curve class.

    One walk over the stored products: the entry (i, j) with i < j counts
    for both orders, d1_i d2_j + d1_j d2_i.  Fraction-free: both classes
    and the entries they meet are scaled to integers by the lcm of their
    denominators, the sums run in int, and each output coefficient is one
    Fraction.
    """
    n = len(model.divisor_basis)
    if len(d1) != n or len(d2) != n:
        raise ValidationError("divisor class not dimensioned for this model")
    sx, x = _scaled_to_integers(d1.coeffs)
    sy, y = _scaled_to_integers(d2.coeffs)
    met: list[tuple[int, dict[int, Fraction]]] = []
    for (i, j), entry in model.mul2.items():
        f = x[i] * y[j] if i == j else x[i] * y[j] + x[j] * y[i]
        if f:
            met.append((f, entry))
    st = lcm(*(v.denominator for _, entry in met for v in entry.values()))
    acc: dict[int, int] = {}
    for f, entry in met:
        for k, v in entry.items():
            acc[k] = acc.get(k, 0) + f * v.numerator * (st // v.denominator)
    den = sx * sy * st
    return CurveClass(
        tuple(QQ(acc[k], den) if k in acc else ZERO for k in range(len(model.curve_basis)))
    )


def pair(model: ThreefoldModel, d: DivisorClass, c: CurveClass) -> Fraction:
    """Intersection number of a divisor class with a curve class."""
    if len(d) != len(model.divisor_basis) or len(c) != len(model.curve_basis):
        raise ValidationError("class not dimensioned for this model")
    dc, cc = d.coeffs, c.coeffs
    total = ZERO
    for (i, a), v in model.pairing.items():
        if dc[i] and cc[a]:
            total += dc[i] * v * cc[a]
    return total


def triple(model: ThreefoldModel, d1: DivisorClass, d2: DivisorClass, d3: DivisorClass) -> Fraction:
    """Triple product of divisor classes, derived as pair(d1*d2, d3)."""
    return pair(model, d3, multiply_divisors(model, d1, d2))


def triple_products(model: ThreefoldModel) -> dict[tuple[int, int, int], Fraction]:
    """The non-zero basis triple products T(i, j; k) = pair(e_k, e_i.e_j),
    keyed (i, j, k) with i <= j as in mul2."""
    by_curve: dict[int, list[tuple[int, Fraction]]] = {}
    for (k, a), v in model.pairing.items():
        by_curve.setdefault(a, []).append((k, v))
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), entry in model.mul2.items():
        for a, v in entry.items():
            for k, p in by_curve.get(a, ()):
                out[(i, j, k)] = out.get((i, j, k), ZERO) + v * p
    return {key: t for key, t in out.items() if t}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def pairing_determinant(model: ThreefoldModel) -> Fraction:
    """Determinant of the divisor/curve pairing matrix (exact), by
    fraction-free elimination of its sparse rows."""
    n = len(model.divisor_basis)
    if len(model.curve_basis) != n:
        raise ValidationError("pairing matrix is not square")
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for (i, a), v in model.pairing.items():
        rows[i][a] = v
    return QQ(bareiss_solve(rows)[0])


def _index_key(key, n1: int, n2: int) -> bool:
    return (
        isinstance(key, tuple)
        and len(key) == 2
        and all(isinstance(x, int) for x in key)
        and 0 <= key[0] < n1
        and 0 <= key[1] < n2
    )


def validate_model(model: ThreefoldModel) -> None:
    """Raise ValidationError naming the first violated model invariant."""
    nd = len(model.divisor_basis)
    nc = len(model.curve_basis)
    if nd != nc:
        raise ValidationError(f"divisor basis size {nd} != curve basis size {nc}")
    if model.picard != nd:
        raise ValidationError(f"picard={model.picard} but divisor basis has size {nd}")
    names_d = [e.name for e in model.divisor_basis]
    names_c = [e.name for e in model.curve_basis]
    if len(set(names_d)) != nd:
        raise ValidationError("duplicate divisor generator names")
    if len(set(names_c)) != nc:
        raise ValidationError("duplicate curve generator names")
    for key, entry in model.mul2.items():
        if not _index_key(key, nd, nd) or key[0] > key[1]:
            raise ValidationError(f"mul2 key {key!r} is not a divisor index pair (i, j) with i <= j")
        if not entry or not all(isinstance(a, int) and 0 <= a < nc for a in entry):
            raise ValidationError(
                f"mul2[{names_d[key[0]]}, {names_d[key[1]]}] is empty or has a curve index out of range"
            )
        if not all(entry.values()):
            raise ValidationError(
                f"mul2[{names_d[key[0]]}, {names_d[key[1]]}] stores an explicit zero"
            )
    for key, v in model.pairing.items():
        if not _index_key(key, nd, nc):
            raise ValidationError(f"pairing key {key!r} is out of range")
        if not v:
            raise ValidationError(
                f"pairing stores an explicit zero at ({names_d[key[0]]}, {names_c[key[1]]})"
            )
    if len(model.c1) != nd:
        raise ValidationError("c1 has wrong dimension")
    if len(model.c2) != nc:
        raise ValidationError("c2 has wrong dimension")
    # full symmetry of the derived triple product on basis triples: every
    # non-zero T(i, j; k) must equal T(i, k; j) and T(j, k; i)
    t = triple_products(model)

    def t_at(a: int, b: int, c: int) -> Fraction:
        return t.get((a, b, c) if a <= b else (b, a, c), ZERO)

    for (i, j, k), value in sorted(t.items()):
        if t_at(i, k, j) != value or t_at(j, k, i) != value:
            a, b, c = sorted((i, j, k))
            raise ValidationError(
                f"triple product not symmetric on ({names_d[a]}, {names_d[b]}, {names_d[c]})"
            )
    if pairing_determinant(model) == 0:
        raise ValidationError("pairing matrix is singular")


# ---------------------------------------------------------------------------
# base models
# ---------------------------------------------------------------------------


def _series_mul(a: list[Fraction], b: list[Fraction], order: int = 4) -> list[Fraction]:
    out = [ZERO] * order
    for i, ai in enumerate(a):
        if ai == 0 or i >= order:
            continue
        for j, bj in enumerate(b):
            if i + j < order and bj:
                out[i + j] += ai * bj
    return out


def _series_inv(a: list[Fraction], order: int = 4) -> list[Fraction]:
    # invert a power series with unit constant term, truncated
    assert a[0] == 1
    out = [ONE] + [ZERO] * (order - 1)
    for k in range(1, order):
        s = ZERO
        for i in range(1, k + 1):
            if i < len(a):
                s += a[i] * out[k - i]
        out[k] = -s
    return out


def chern_series_ci(n: int, degrees: Sequence[int]) -> list[Fraction]:
    """Truncated total Chern series of a complete intersection threefold in P^n.

    Returns [1, c1, c2, c3] coefficients in powers of the hyperplane class,
    from (1+h)^(n+1) / prod_j (1 + d_j h) mod h^4.
    """
    num = [ONE, ZERO, ZERO, ZERO]
    step = [ONE, ONE, ZERO, ZERO]  # (1 + h)
    for _ in range(n + 1):
        num = _series_mul(num, step)
    den = [ONE, ZERO, ZERO, ZERO]
    for d in degrees:
        den = _series_mul(den, [ONE, Fraction(d), ZERO, ZERO])
    return _series_mul(num, _series_inv(den))


def _model_p3() -> ThreefoldModel:
    h = BasisElement("h", DIVISOR)
    l = BasisElement("l", CURVE)
    return ThreefoldModel(
        label="P3",
        divisor_basis=(h,),
        curve_basis=(l,),
        mul2={(0, 0): {0: ONE}},
        pairing={(0, 0): ONE},
        c1=DivisorClass((QQ(4),)),
        c2=CurveClass((QQ(6),)),
        euler=4,
        picard=1,
        base_flags=frozenset({FLAG_PICARD_RANK_1, FLAG_C2_MOVABLE_POSITIVE}),
    )


def _model_p2xp1() -> ThreefoldModel:
    # A = P2 x {pt}, B = P1 x P1 ; f1 = P1 x {pt}, f2 = {pt} x P1
    A = BasisElement("A", DIVISOR)
    B = BasisElement("B", DIVISOR)
    f1 = BasisElement("f1", CURVE)
    f2 = BasisElement("f2", CURVE)
    return ThreefoldModel(
        label="P2xP1",
        divisor_basis=(A, B),
        curve_basis=(f1, f2),
        mul2={(0, 1): {0: ONE}, (1, 1): {1: ONE}},
        pairing={(0, 1): ONE, (1, 0): ONE},
        c1=DivisorClass((QQ(2), QQ(3))),
        c2=CurveClass((QQ(6), QQ(3))),
        euler=6,
        picard=2,
        base_flags=frozenset({FLAG_C2_MOVABLE_POSITIVE}),
    )


def _model_p1cubed() -> ThreefoldModel:
    # H_i = preimage of a point on the i-th factor, l_i = fiber of the i-th projection
    divisors = tuple(BasisElement(f"H{i}", DIVISOR) for i in (1, 2, 3))
    curves = tuple(BasisElement(f"l{i}", CURVE) for i in (1, 2, 3))
    # H_i.H_i = 0 and H_i.H_j = l_k for the complementary index k
    mul2 = {(i, j): {3 - i - j: ONE} for i in range(3) for j in range(i + 1, 3)}
    return ThreefoldModel(
        label="P1xP1xP1",
        divisor_basis=divisors,
        curve_basis=curves,
        mul2=mul2,
        pairing={(i, i): ONE for i in range(3)},
        c1=DivisorClass((QQ(2), QQ(2), QQ(2))),
        c2=CurveClass((QQ(4), QQ(4), QQ(4))),
        euler=8,
        picard=3,
        base_flags=frozenset({FLAG_C2_MOVABLE_POSITIVE}),
    )


def _model_ci(n: int, degrees: Sequence[int]) -> ThreefoldModel:
    if n < 4:
        raise ValidationError("complete intersection needs ambient dimension n >= 4")
    if len(degrees) != n - 3:
        raise ValidationError(
            f"complete intersection in P^{n} needs exactly {n - 3} degrees, got {len(degrees)}"
        )
    if any((not isinstance(d, int)) or d < 1 for d in degrees):
        raise ValidationError("hypersurface degrees must be positive integers")
    series = chern_series_ci(n, degrees)
    deg_x = 1
    for d in degrees:
        deg_x *= d
    c1 = series[1]
    c2 = series[2]
    chi = series[3] * deg_x
    if chi.denominator != 1:
        raise ValidationError("non-integral Euler characteristic in Chern expansion")
    h = BasisElement("h", DIVISOR)
    h2 = BasisElement("h2", CURVE)
    label = f"CI(P{n};{','.join(str(d) for d in degrees)})"
    return ThreefoldModel(
        label=label,
        divisor_basis=(h,),
        curve_basis=(h2,),
        mul2={(0, 0): {0: ONE}},
        pairing={(0, 0): Fraction(deg_x)},
        c1=DivisorClass((c1,)),
        c2=CurveClass((c2,)),
        euler=int(chi),
        picard=1,
        base_flags=frozenset({FLAG_PICARD_RANK_1, FLAG_C2_MOVABLE_POSITIVE}),
    )


def make_custom_base(
    label: str,
    divisor_names: Sequence[str],
    curve_names: Sequence[str],
    mul2: Mapping[tuple[str, str], Mapping[str, object] | CurveClass],
    pairing: Mapping[tuple[str, str], object],
    c1: Mapping[str, object] | DivisorClass,
    c2: Mapping[str, object] | CurveClass,
    euler: int,
    flags: Iterable[str] = (),
) -> ThreefoldModel:
    """Assemble a user-supplied base model and validate every invariant.

    mul2 is keyed by unordered divisor-name pairs; missing pairs default to
    zero, and a pair given in both orders must agree.  pairing is keyed by
    (divisor name, curve name); missing entries default to zero.  Zero
    coefficients are dropped, so the tables come out in the canonical
    sparse form of ThreefoldModel.  Hypothesis flags are taken on the
    caller's word: the condition checkers refuse theorems whose flags are
    not asserted here.
    """
    nd = len(divisor_names)
    nc = len(curve_names)
    d_index = {n_: i for i, n_ in enumerate(divisor_names)}
    c_index = {n_: a for a, n_ in enumerate(curve_names)}
    if len(d_index) != nd or len(c_index) != nc:
        raise ValidationError("duplicate generator names")

    def curve_of(v) -> dict[int, Fraction]:
        if isinstance(v, CurveClass):
            if len(v) != nc:
                raise ValidationError("curve class has wrong length")
            return {a: c for a, c in enumerate(v.coeffs) if c}
        entry = {}
        for name, coeff in v.items():
            if name not in c_index:
                raise ValidationError(f"unknown curve generator {name!r}")
            q = _to_q(coeff)
            if q:
                entry[c_index[name]] = q
        return entry

    table: MulTable = {}
    for (a, b), v in mul2.items():
        if a not in d_index or b not in d_index:
            raise ValidationError(f"unknown divisor generator in mul2 key ({a}, {b})")
        i, j = sorted((d_index[a], d_index[b]))
        entry = curve_of(v)
        if (i, j) in table and table[(i, j)] != entry:
            raise ValidationError(f"conflicting mul2 entries for ({a}, {b})")
        table[(i, j)] = entry

    ptable: PairTable = {}
    for (a, b), v in pairing.items():
        if a not in d_index or b not in c_index:
            raise ValidationError(f"unknown generator in pairing key ({a}, {b})")
        q = _to_q(v)
        if q:
            ptable[(d_index[a], c_index[b])] = q

    divisor_basis = tuple(BasisElement(n_, DIVISOR) for n_ in divisor_names)
    curve_basis = tuple(BasisElement(n_, CURVE) for n_ in curve_names)

    c1_vec = c1 if isinstance(c1, DivisorClass) else None
    c2_vec = c2 if isinstance(c2, CurveClass) else None

    model = ThreefoldModel(
        label=label,
        divisor_basis=divisor_basis,
        curve_basis=curve_basis,
        mul2={key: entry for key, entry in table.items() if entry},
        pairing=ptable,
        c1=c1_vec if c1_vec is not None else DivisorClass(tuple(ZERO for _ in range(nd))),
        c2=c2_vec if c2_vec is not None else CurveClass(tuple(ZERO for _ in range(nc))),
        euler=euler,
        picard=nd,
        base_flags=frozenset(flags),
    )
    if c1_vec is None:
        model = _replace_chern(model, model.divisor(c1), None)
    if c2_vec is None:
        model = _replace_chern(model, None, model.curve(c2))
    validate_model(model)
    return model


def _replace_chern(model: ThreefoldModel, c1: DivisorClass | None, c2: CurveClass | None) -> ThreefoldModel:
    from dataclasses import replace

    kwargs = {}
    if c1 is not None:
        kwargs["c1"] = c1
    if c2 is not None:
        kwargs["c2"] = c2
    return replace(model, **kwargs)


def make_base(spec: str, *, n: int | None = None, degrees: Sequence[int] | None = None, **custom) -> ThreefoldModel:
    """Construct one of the stock base models.

    spec is one of "p3", "p2xp1", "p1cubed", "complete_intersection" (with n
    and degrees), or "custom" (with the make_custom_base keyword arguments).
    """
    key = spec.lower()
    if key == "p3":
        return _model_p3()
    if key in ("p2xp1", "p2p1"):
        return _model_p2xp1()
    if key in ("p1cubed", "p1xp1xp1"):
        return _model_p1cubed()
    if key in ("complete_intersection", "ci"):
        if n is None or degrees is None:
            raise ValidationError("complete_intersection needs n and degrees")
        return _model_ci(n, list(degrees))
    if key == "custom":
        return make_custom_base(**custom)
    raise ValidationError(f"unknown base spec {spec!r}")
