"""Exact intersection calculus for the rational divisor/curve lattices of a threefold.

A ThreefoldModel stores the numerical shadow of a smooth projective threefold:
a divisor basis, a curve basis, the divisor*divisor multiplication table (with
values in the curve lattice) and the divisor/curve pairing, both sparse (see
ThreefoldModel), the first and second Chern classes, the topological Euler
characteristic and the Picard number.

This module is the one reader of the sparse tables: _meets_on gives every
e_i.c from the pairing columns of c's support, and pair, the blowups, the
nef conditions and the dynamics build on it; triple_products reads the same
columns; pairing_rows serves both pairing-matrix solves and `ring show`'s
records.  The tables of a line of blowups live in one append-only store
(_Tables), which every model of the line reads through prefix views.

All scalars are exact rationals, and the engine sums them fraction free: a
class is its non-zero int numerators over one denominator (_LatticeClass),
and each stored product and the pairing columns are ints over one
denominator (mul2 reads a product as Fractions).  Floating point never
enters this module.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm

from ._record import record
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
    if isinstance(x, (int, str)):
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


@record
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


class _LatticeClass:
    """A rational class over one of a model's two bases, fraction free: the
    basis size, one positive denominator den and num = {index: non-zero int
    numerator} with ascending keys, in lowest terms, so two classes are
    equal exactly when their fields are.  coeffs is the dense tuple of
    Fractions, built on each read, for printers.  The arithmetic keeps the
    subclass, and classes of different subclasses are never equal."""

    __slots__ = ("size", "den", "num")

    def __new__(cls, coeffs: Iterable):
        items = list(enumerate(coeffs))
        return _over_lcm(cls, len(items), items)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # pickle and copy through the public constructor
        return type(self), (self.coeffs,)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(QQ(self.num[a], self.den) if a in self.num else ZERO for a in range(self.size))

    def __eq__(self, other):
        return type(other) is type(self) and (self.size, self.den, self.num) == (other.size, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.size, self.den, tuple(self.num.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    def __add__(self, other):
        if self.size != other.size:
            raise ValidationError(f"dimension mismatch: {self.size} vs {other.size}")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        acc = dict(self.num) if s == 1 else {a: s * v for a, v in self.num.items()}
        for a, v in other.num.items():
            acc[a] = acc.get(a, 0) + t * v
        return _reduced(type(self), self.size, den, acc)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _of(type(self), self.size, self.den, {a: -v for a, v in self.num.items()})

    def scale(self, a):
        k, d = _to_q(a).as_integer_ratio()
        return _reduced(type(self), self.size, self.den * d, {i: k * v for i, v in self.num.items()})

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.num

    def __len__(self) -> int:
        return self.size


class DivisorClass(_LatticeClass):
    """A rational divisor class over a model's divisor basis."""

    __slots__ = ()


class CurveClass(_LatticeClass):
    """A rational curve class over a model's curve basis."""

    __slots__ = ()


def _of(cls, size: int, den: int, num: dict[int, int]):
    """The class of cls with these fields, which must be in the canonical
    form already; num is kept, not copied, and must never be mutated."""
    c = object.__new__(cls)
    object.__setattr__(c, "size", size)
    object.__setattr__(c, "den", den)
    object.__setattr__(c, "num", num)
    return c


def _reduced(cls, size: int, den: int, acc: dict[int, int]):
    """The class of cls with coordinates acc[a] / den (den > 0, acc may be
    kept): zeros dropped, keys ascending, lowest terms.  Each check is a pass
    in C; Python passes run only to drop a zero or divide by a gcd above 1."""
    if 0 in acc.values():
        acc = {a: v for a, v in acc.items() if v}
    if list(acc) != sorted(acc):
        acc = dict(sorted(acc.items()))
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {a: v // g for a, v in acc.items()}
    return _of(cls, size, den, acc)


def _over_lcm(cls, size: int, items: list):
    """The class with coordinate q at a for the (a, q) in items, an int q read as a
    Fraction; over the lcm of lowest terms denominators, no factor is left."""
    items = [(a, q if type(q) is int else _to_q(q)) for a, q in items]
    den = lcm(*(q.denominator for _, q in items))
    return _reduced(cls, size, den, {a: q.numerator * (den // q.denominator) for a, q in items})


def _prefix(c, size: int):
    """c's first size coordinates, as a class of the same kind."""
    return _reduced(type(c), size, c.den, {a: v for a, v in c.num.items() if a < size})


MulTable = Mapping[tuple[int, int], dict[int, Fraction]]
PairTable = Mapping[tuple[int, int], Fraction]
IntEntry = tuple[int, dict[int, int]]  # a stored product: (den, {curve index: den * coefficient})


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


class _MulView(_TableView):
    """A mul2 view: a read gives the stored IntEntry as {curve index: Fraction}."""

    __slots__ = ()

    def __getitem__(self, key):
        den, num = super().__getitem__(key)
        return {a: QQ(v, den) for a, v in num.items()}

    def items(self):
        return ItemsView(self)


def _first_index(basis: Sequence[BasisElement]) -> dict[str, int]:
    # the first index of each name, as a scan of the basis would find it
    return {e.name: i for i, e in reversed(tuple(enumerate(basis)))}


class _Tables:
    """The append-only tables that one line of blowups shares.

    mul2 stores each product as an IntEntry (ints over one denominator).  A
    blowup of a model with rho generators adds only entries that carry the
    new index rho: mul2 keys (i, rho), the pairing key (rho, rho) = -1 and
    the names of the two new generators.  So each model of the line reads
    prefix views of the same dicts, which later blowups never change.  Only
    the newest model of the line (its rho equal to the store's) appends in
    place; blowing up an older model again copies that model's prefix into
    a new store first.

    columns indexes the pairing by curve: columns[a] lists (position, i,
    den * pair(e_i, f_a)) in the pairing's order, with den the lcm of the
    pairing's denominators (fixed at the base, as blowups add only -1), so
    that _meets_on walks only the columns of a class's support, in the
    order of one walk of the whole pairing.  A column is complete once it exists.
    names maps each kind's generator names to their indices, and counters
    holds each name stem's next candidate number: every smaller number is
    taken, so a fresh name is the first free one.
    """

    __slots__ = ("mul2", "pairing", "den", "columns", "names", "counters", "rho")

    def __init__(self, model: "ThreefoldModel"):
        mul2 = model.mul2
        if isinstance(mul2, _MulView):  # a prefix of another store: copy its ints
            self.mul2: dict[tuple[int, int], IntEntry] = dict(islice(mul2._table.items(), len(mul2)))
        else:
            self.mul2 = {}
            for key, entry in mul2.items():
                den = lcm(*(v.denominator for v in entry.values()))
                self.mul2[key] = den, {a: v.numerator * (den // v.denominator) for a, v in entry.items()}
        self.pairing = dict(model.pairing.items())
        self.den = den = lcm(*(v.denominator for v in self.pairing.values()))
        self.columns: dict[int, list[tuple[int, int, int]]] = {}
        for pos, ((i, a), v) in enumerate(self.pairing.items()):
            self.columns.setdefault(a, []).append((pos, i, v.numerator * (den // v.denominator)))
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

    def append(self, products: dict[tuple[int, int], IntEntry], stems: tuple[str, str]) -> tuple[str, str]:
        """Add the blowup of the newest model: its new products, pair = -1
        between the exceptional divisor and curve, and their fresh names on
        the two stems (divisor, curve), which are returned."""
        n = self.rho
        self.mul2.update(products)
        self.pairing[(n, n)] = MINUS_ONE
        self.columns[n] = [(len(self.pairing) - 1, n, -self.den)]
        names = self._new_name(DIVISOR, stems[0]), self._new_name(CURVE, stems[1])
        self.rho = n + 1
        return names

    def views(self) -> tuple[_TableView, _TableView]:
        """mul2 and pairing of the newest model."""
        return _MulView(self.mul2, self.rho), _TableView(self.pairing, self.rho)


@record
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
    and adds only its new entries; the store keeps each product as ints
    over one denominator, which mul2 reads as a new dict of Fractions.
    Blowups return new models and keep no link to the one below.

    Name lookups and pairings read the model's store, which is built from the
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
        return _of(CurveClass, len(self.curve_basis), 1, {})

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
    if not isinstance(coeffs, Mapping):
        found = cls(coeffs)
        if found.size != size:
            raise ValidationError(f"{kind} vector has wrong length")
        return found
    return _over_lcm(cls, size, [(_index_of(names, size, kind, name, label), c) for name, c in coeffs.items()])


# ---------------------------------------------------------------------------
# products and pairings
# ---------------------------------------------------------------------------


def multiply_divisors(model: ThreefoldModel, d1: DivisorClass, d2: DivisorClass) -> CurveClass:
    """Bilinear extension of the divisor product table; returns a curve class.

    One walk over the stored products: the entry (i, j) with i < j counts
    for both orders, d1_i d2_j + d1_j d2_i.  The sums run in int over the
    classes' numerators and the stored ints scaled to their lcm denominator.
    """
    n = len(model.divisor_basis)
    if d1.size != n or d2.size != n:
        raise ValidationError("divisor class not dimensioned for this model")
    x, y = d1.num, d2.num
    met: list[tuple[int, int, dict[int, int]]] = []
    for (i, j), (den, entry) in islice(model._tables.mul2.items(), len(model.mul2)):
        f = x.get(i, 0) * y.get(j, 0) if i == j else x.get(i, 0) * y.get(j, 0) + x.get(j, 0) * y.get(i, 0)
        if f:
            met.append((f, den, entry))
    st = lcm(*(den for _, den, _ in met))
    acc: dict[int, int] = {}
    for f, den, entry in met:
        f *= st // den
        for k, v in entry.items():
            acc[k] = acc.get(k, 0) + f * v
    return _reduced(CurveClass, len(model.curve_basis), d1.den * d2.den * st, acc)


def _meets_on(model: ThreefoldModel, c: CurveClass) -> tuple[int, dict[int, int]]:
    """(den, {i: den * e_i.c}) for the divisor generators e_i that a curve
    class c no longer than the model meets (a sum that cancels is kept as
    a zero), without Fractions: c's numerators times the int pairing columns
    of its support, over den = c.den times the pairing's denominator.  The
    keys come in the order of one walk of the whole pairing (blow_up_curve
    adds its products in this order)."""
    tables = model._tables
    terms = []
    for a, ca in c.num.items():
        for pos, i, v in tables.columns.get(a, ()):
            terms.append((pos, i, v * ca))
    terms.sort()
    out: dict[int, int] = {}
    for _, i, t in terms:
        out[i] = out.get(i, 0) + t
    return c.den * tables.den, out


def _dot_num(d: DivisorClass, met: dict[int, int]) -> int:
    """d.c times d.den * den, from _meets_on's (den, met) for c."""
    x = d.num
    return sum([x[i] * v for i, v in met.items() if i in x])


def pair(model: ThreefoldModel, d: DivisorClass, c: CurveClass) -> Fraction:
    """Intersection number of a divisor class with a curve class."""
    if d.size != len(model.divisor_basis) or c.size != len(model.curve_basis):
        raise ValidationError("class not dimensioned for this model")
    den, met = _meets_on(model, c)
    return QQ(_dot_num(d, met), d.den * den)


def triple(model: ThreefoldModel, d1: DivisorClass, d2: DivisorClass, d3: DivisorClass) -> Fraction:
    """Triple product of divisor classes, derived as pair(d1*d2, d3)."""
    return pair(model, d3, multiply_divisors(model, d1, d2))


def triple_products(model: ThreefoldModel) -> dict[tuple[int, int, int], Fraction]:
    """The non-zero basis triple products T(i, j; k) = pair(e_k, e_i.e_j),
    keyed (i, j, k) with i <= j as in mul2."""
    tables = model._tables
    columns, den = tables.columns, tables.den
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), (eden, entry) in islice(tables.mul2.items(), len(model.mul2)):
        acc: dict[int, int] = {}
        for a, v in entry.items():
            for _, k, p in columns.get(a, ()):
                acc[k] = acc.get(k, 0) + v * p
        # the columns hold den * pair(e_k, f_a), the entry eden * e_i.e_j
        out.update({(i, j, k): QQ(t, eden * den) for k, t in acc.items() if t})
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def pairing_rows(model: ThreefoldModel) -> tuple[int, list[dict[int, int]]]:
    """The pairing matrix as int sparse rows over one denominator: (den,
    rows) with rows[i] = {a: den * pair(e_i, f_a)}, read from the store's
    columns.  A blowup pairs its new generators only with each other, so
    the columns a < rho hold only indices i < rho."""
    tables = model._tables
    rows: list[dict[int, int]] = [{} for _ in model.divisor_basis]
    for a in range(len(model.curve_basis)):
        for _, i, v in tables.columns.get(a, ()):
            rows[i][a] = v
    return tables.den, rows


def pairing_determinant(model: ThreefoldModel) -> Fraction:
    """Determinant of the divisor/curve pairing matrix (exact), by
    fraction-free elimination of its int rows: det(den * P) / den**rho."""
    if len(model.curve_basis) != len(model.divisor_basis):
        raise ValidationError("pairing matrix is not square")
    den, rows = pairing_rows(model)
    return QQ(bareiss_solve(rows)[0], den ** len(rows))


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


def chern_series_ci(n: int, degrees: Sequence[int]) -> list[Fraction]:
    """Truncated total Chern series of a complete intersection threefold in P^n.

    Returns [1, c1, c2, c3] coefficients in powers of the hyperplane class,
    from (1+h)^(n+1) / prod_j (1 + d_j h) mod h^4.
    """
    series = [ONE, ZERO, ZERO, ZERO]
    for _ in range(n + 1):  # times 1 + h
        series = [ONE] + [series[k] + series[k - 1] for k in (1, 2, 3)]
    for d in degrees:  # over 1 + d h: q_k = p_k - d q_(k-1)
        d = Fraction(d)
        for k in (1, 2, 3):
            series[k] -= d * series[k - 1]
    return series


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
