"""Exact intersection calculus for the rational divisor/curve lattices of a threefold.

A ThreefoldModel stores the numerical shadow of a smooth projective threefold:
a divisor basis, a curve basis, the divisor*divisor multiplication table (with
values in the curve lattice) and the divisor/curve pairing, both sparse (see
ThreefoldModel), the first and second Chern classes, the topological Euler
characteristic and the Picard number.

This module is the one reader of the sparse tables: meets gives every
e_i.c from the pairing columns of c's support, and pair, the blowups and
the nef conditions build on it; triple_products reads the same columns;
pairing_rows serves both pairing-matrix solves and `ring show`'s records.
The tables of a line of blowups live in one append-only store (_Tables),
which every model of the line reads through prefix views.

All scalars are exact rationals.  Floating point never enters this module;
the dynamics code converts on its own side when it needs numerics.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from math import lcm
from operator import is_not
from typing import Iterable, Sequence

from .bareiss import bareiss_solve

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)

DIVISOR = "divisor"
CURVE = "curve"

# base_flags understood by the condition checkers
FLAG_PICARD_RANK_1 = "picard-rank-1"
FLAG_C2_MOVABLE_POSITIVE = "c2-movable-positive"
FLAG_CONDITION_A = "condition-A-asserted"
FLAG_CONDITION_B = "condition-B-asserted"

# a generator name: the name token of the tower-file format
NAME_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME = re.compile(NAME_TOKEN)


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


def _require_int(value, what: str) -> None:
    # a float or Fraction here would leak into the exact tables; bool is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


def _require_line_text(text: str, what: str) -> None:
    # the tower format writes a label or flag after its keyword on one line,
    # which the parser cuts at '#' and strips
    if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ValidationError(
            f"{what} {text!r} cannot be written to a tower file: no '#', line break, "
            "or leading or trailing whitespace"
        )


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
class _LatticeClass:
    """Rational coefficients over one of a model's two bases; the arithmetic
    keeps the subclass, and classes of different subclasses are never equal."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _tuple_q(self.coeffs))

    def __add__(self, other):
        _same_len(self, other)
        return type(self)(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _same_len(self, other)
        return type(self)(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coeffs))

    def scale(self, a):
        a = _to_q(a)
        return type(self)(tuple(a * c for c in self.coeffs))

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


class DivisorClass(_LatticeClass):
    """A rational divisor class, as coefficients over a model's divisor basis."""


class CurveClass(_LatticeClass):
    """A rational curve class, as coefficients over a model's curve basis."""


def _same_len(a, b):
    if len(a.coeffs) != len(b.coeffs):
        raise ValidationError(
            f"dimension mismatch: {len(a.coeffs)} vs {len(b.coeffs)}"
        )


MulTable = Mapping[tuple[int, int], dict[int, Fraction]]
PairTable = Mapping[tuple[int, int], Fraction]


def _support(coeffs: Sequence[Fraction]) -> list[int]:
    """Indices of the non-zero coefficients, ascending.  The scan runs in C,
    comparing each coefficient's identity with the shared ZERO; each hit is
    then confirmed, since a zero that is another Fraction object is a hit."""
    return [a for a in compress(range(len(coeffs)), map(is_not, coeffs, repeat(ZERO))) if coeffs[a]]


class _TableView(Mapping):
    """Read-only view of a model's table inside a _Tables store: the first
    size entries of the store's dict, which are those whose key indices are
    all below rho."""

    __slots__ = ("_table", "_size", "_rho")

    def __init__(self, table: dict, rho: int):
        self._table = table
        self._size = len(table)
        self._rho = rho

    def __getitem__(self, key):
        value = self._table[key]
        if max(key) >= self._rho:
            raise KeyError(key)
        return value

    def __iter__(self):
        return islice(self._table, self._size)

    def __len__(self) -> int:
        return self._size

    def items(self):
        return _ViewItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ViewItems(ItemsView):
    """The items of a _TableView, read from the store's dict in C."""

    __slots__ = ()

    def __iter__(self):
        view = self._mapping
        return islice(view._table.items(), view._size)


def _first_index(basis: Sequence[BasisElement]) -> dict[str, int]:
    # the first index of each name, as a scan of the basis would find it
    return {e.name: i for i, e in reversed(tuple(enumerate(basis)))}


class _Tables:
    """The append-only tables that one line of blowups shares.

    A blowup of a model with rho generators adds only entries that carry
    the new index rho: mul2 keys (i, rho), the pairing key (rho, rho) and
    the names of the two new generators.  So the model after k blowups has
    the first entries of the store, and each model of the line reads
    _TableView prefixes of the same dicts, which later blowups never change.
    Only the newest model of the line (its rho equal to the store's) appends
    in place; blowing up an older model again copies that model's prefix
    into a new store first.

    columns indexes the pairing by curve: columns[a] lists (position, i,
    pair(e_i, f_a)) in the pairing's order, so that meets walks only the
    columns of a class's support and still meets the divisors in the order
    of one walk of the whole pairing.  A blowup adds only the pairing entry
    (rho, rho), so a column is complete once it exists, and an older model
    finds no later divisor in its columns.  names maps each kind's generator
    names to their indices, and counters holds each name stem's next
    candidate number: every smaller number is taken, so a fresh name is the
    first free one, as a scan from 1 would find it.
    """

    __slots__ = ("mul2", "pairing", "columns", "names", "counters", "rho")

    def __init__(self, model: "ThreefoldModel"):
        self.mul2 = dict(model.mul2.items())
        self.pairing = dict(model.pairing.items())
        self.columns: dict[int, list[tuple[int, int, Fraction]]] = {}
        for pos, ((i, a), v) in enumerate(self.pairing.items()):
            self.columns.setdefault(a, []).append((pos, i, v))
        self.names = {DIVISOR: _first_index(model.divisor_basis), CURVE: _first_index(model.curve_basis)}
        self.counters: dict[str, int] = {}
        self.rho = len(model.divisor_basis)

    def _new_name(self, kind: str, stem: str) -> str:
        taken = self.names[kind]
        k = self.counters.get(stem, 1)
        while f"{stem}{k}" in taken:
            k += 1
        self.counters[stem] = k + 1
        name = f"{stem}{k}"
        taken[name] = self.rho
        return name

    def append(self, products: MulTable, stems: tuple[str, str]) -> tuple[str, str]:
        """Add the blowup of the newest model: its new products, pair = -1
        between the exceptional divisor and curve, and their fresh names on
        the two stems (divisor, curve), which are returned."""
        n = self.rho
        self.mul2.update(products)
        self.pairing[(n, n)] = MINUS_ONE
        self.columns[n] = [(len(self.pairing) - 1, n, MINUS_ONE)]
        names = self._new_name(DIVISOR, stems[0]), self._new_name(CURVE, stems[1])
        self.rho = n + 1
        return names

    def views(self) -> tuple[_TableView, _TableView]:
        """mul2 and pairing of the newest model."""
        return _TableView(self.mul2, self.rho), _TableView(self.pairing, self.rho)


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
    exactly when the mappings compare equal.  A base model holds plain
    dicts.  A blown-up model holds read-only prefix views of the store its
    line of blowups appends to (see _Tables), so a blowup copies nothing
    and adds only its new entries; the entry dicts are shared along the
    tower and must never be mutated.  Blowups return new models and keep
    no link to the one below.

    Name lookups and meets read the model's store, which is built from the
    model's own tables on first use unless a blowup made the model.
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

    def __hash__(self) -> int:
        # the tables are dicts; equal models agree on every field hashed here
        return hash(
            (self.label, self.divisor_basis, self.curve_basis, self.c1, self.c2,
             self.euler, self.picard, self.base_flags)
        )

    @cached_property
    def _tables(self) -> _Tables:
        return _Tables(self)

    # -- lookups ---------------------------------------------------------

    def divisor_index(self, name: str) -> int:
        return _index_of(self._tables.names[DIVISOR], len(self.divisor_basis), DIVISOR, name, self.label)

    def curve_index(self, name: str) -> int:
        return _index_of(self._tables.names[CURVE], len(self.curve_basis), CURVE, name, self.label)

    def divisor(self, coeffs: Mapping[str, object] | Sequence) -> DivisorClass:
        """Build a divisor class from a name->coefficient mapping or a full vector."""
        return _class_over(self._tables.names[DIVISOR], len(self.divisor_basis), DIVISOR, coeffs, self.label)

    def curve(self, coeffs: Mapping[str, object] | Sequence) -> CurveClass:
        """Build a curve class from a name->coefficient mapping or a full vector."""
        return _class_over(self._tables.names[CURVE], len(self.curve_basis), CURVE, coeffs, self.label)

    def zero_curve(self) -> CurveClass:
        return CurveClass((ZERO,) * len(self.curve_basis))

    def divisor_names(self) -> list[str]:
        return [e.name for e in self.divisor_basis]

    def curve_names(self) -> list[str]:
        return [e.name for e in self.curve_basis]


def _index_of(names: Mapping[str, int], size: int, kind: str, name: str, label: str) -> int:
    # names may hold later generators of the model's line: those are >= size
    i = names.get(name)
    if i is None or i >= size:
        raise ValidationError(f"no {kind} generator named {name!r} in {label}")
    return i


def _class_over(names: Mapping[str, int], size: int, kind: str, coeffs, label: str):
    """The DivisorClass or CurveClass (by kind) over a basis of the given
    size, from a name->coefficient mapping (names gives each generator's
    index) or a full vector; label names the model in errors."""
    cls = DivisorClass if kind == DIVISOR else CurveClass
    if isinstance(coeffs, Mapping):
        vec = [ZERO] * size
        for name, c in coeffs.items():
            vec[_index_of(names, size, kind, name, label)] = _to_q(c)
        return cls(tuple(vec))
    vec = _tuple_q(coeffs)
    if len(vec) != size:
        raise ValidationError(f"{kind} vector has wrong length")
    return cls(vec)


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


def meets(model: ThreefoldModel, c: CurveClass) -> dict[int, Fraction]:
    """{i: e_i.c} for the divisor generators e_i that c meets (a sum that
    cancels is kept as a zero).

    Only the pairing columns of c's support are read, and their entries are
    summed in the pairing's order, so the keys come in the order that one
    walk of the whole pairing would give them (blow_up_curve adds its
    products in this order, and the eigenclass residuals sum over them).
    """
    cc = c.coeffs
    if len(cc) != len(model.curve_basis):
        raise ValidationError("curve class not dimensioned for this model")
    return _meets_on(model, {a: cc[a] for a in _support(cc)})


def _meets_on(model: ThreefoldModel, on_c: dict[int, Fraction]) -> dict[int, Fraction]:
    """meets for the class whose non-zero coordinates are on_c.  A pairing
    of +-1 (every exceptional pair(E, L) is the shared MINUS_ONE) scales by
    the coordinate itself, without a Fraction product."""
    columns = model._tables.columns
    terms = []
    for a, ca in on_c.items():
        for pos, i, v in columns.get(a, ()):
            terms.append((pos, i, ca if v is ONE else -ca if v is MINUS_ONE else v * ca))
    terms.sort()
    out: dict[int, Fraction] = {}
    for _, i, t in terms:
        out[i] = out[i] + t if i in out else t
    return out


def pair(model: ThreefoldModel, d: DivisorClass, c: CurveClass) -> Fraction:
    """Intersection number of a divisor class with a curve class."""
    if len(d) != len(model.divisor_basis) or len(c) != len(model.curve_basis):
        raise ValidationError("class not dimensioned for this model")
    dc = d.coeffs
    return sum((dc[i] * m for i, m in meets(model, c).items()), ZERO)


def triple(model: ThreefoldModel, d1: DivisorClass, d2: DivisorClass, d3: DivisorClass) -> Fraction:
    """Triple product of divisor classes, derived as pair(d1*d2, d3)."""
    return pair(model, d3, multiply_divisors(model, d1, d2))


def triple_products(model: ThreefoldModel) -> dict[tuple[int, int, int], Fraction]:
    """The non-zero basis triple products T(i, j; k) = pair(e_k, e_i.e_j),
    keyed (i, j, k) with i <= j as in mul2."""
    columns = model._tables.columns
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), entry in model.mul2.items():
        for a, v in entry.items():
            for _, k, p in columns.get(a, ()):
                out[(i, j, k)] = out.get((i, j, k), ZERO) + v * p
    return {key: t for key, t in out.items() if t}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def pairing_rows(model: ThreefoldModel) -> list[dict[int, Fraction]]:
    """The pairing matrix as sparse rows: row i is {a: pair(e_i, f_a)}."""
    rows: list[dict[int, Fraction]] = [{} for _ in model.divisor_basis]
    for (i, a), v in model.pairing.items():
        rows[i][a] = v
    return rows


def pairing_determinant(model: ThreefoldModel) -> Fraction:
    """Determinant of the divisor/curve pairing matrix (exact), by
    fraction-free elimination of its sparse rows."""
    if len(model.curve_basis) != len(model.divisor_basis):
        raise ValidationError("pairing matrix is not square")
    return QQ(bareiss_solve(pairing_rows(model))[0])


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
    _require_int(model.euler, "euler")
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
    not asserted here.  Every generator name must be a NAME_TOKEN, and the
    label and each flag (not empty) must fit on a tower-file line, so that
    the tower-file writer's output reads back.
    """
    _require_line_text(label, "label")
    flags = frozenset(flags)
    for flag in flags:
        if not flag:
            raise ValidationError("a flag must not be empty")
        _require_line_text(flag, "flag")
    for name in (*divisor_names, *curve_names):
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise ValidationError(f"generator name {name!r} is not a token {NAME_TOKEN}")
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

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
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
    if not isinstance(c1, DivisorClass):
        c1 = _class_over(d_index, nd, DIVISOR, c1, label)
    if not isinstance(c2, CurveClass):
        c2 = _class_over(c_index, nc, CURVE, c2, label)

    model = ThreefoldModel(
        label=label,
        divisor_basis=divisor_basis,
        curve_basis=curve_basis,
        mul2={key: entry for key, entry in table.items() if entry},
        pairing=ptable,
        c1=c1,
        c2=c2,
        euler=euler,
        picard=nd,
        base_flags=flags,
    )
    validate_model(model)
    return model


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
