"""Exact second-order forward-mode jets for fields of one and two variables.

A :class:`Jet2` bundles the value of a field w with its first and second
partial derivatives at a single point: (w, w_1, w_2, w_11, w_12, w_22),
where the subscripts refer to the two input coordinates.  Arithmetic and
the elementary functions propagate all six components through the exact
second-order Leibniz and chain rules, so curvature formulas evaluated on
jets carry no truncation error; the only noise left is float64 rounding.

The mixed partial is stored once: symmetry of second partials is
structural, not checked.  Jets are immutable by convention: no code
assigns a component once the operation that built it has returned, so
threads can share jets while evaluating a field at many points.  Each
operation builds its result in place, with ``object.__new__`` and one
store per slot: an ``__init__`` frame per jet was the unit of cost of
jet arithmetic.  ``Jet2(...)`` and ``Jet1(...)`` give equal jets.

A plain ``float`` or ``int`` c mixes in as the constant jet
``Jet2(float(c))``.  Only addition and multiplication, which every
workload applies to numbers and jets thousands of times a pass, take a
fast path that builds no constant jet.  It is exact: it keeps each term
that the jet-jet rule computes from the zero derivatives of c
(``x + 0.0``, ``x * 0.0``) in the same operand order, so signed zeros,
infinities and NaN come out unchanged.  Subtraction and division apply
the jet-jet rule to the constant jet; ``c - t`` and ``c / t`` use t's
own rule.  The reflected forms of addition and multiplication stay aliases
(``__radd__ = __add__``, ``__rmul__ = __mul__``): ``c * t`` means
``t * Jet2(c)``, and ``Jet2(c) * t`` groups its terms differently, so
it can differ in the last bit or in a NaN.  ``bool`` is not a number
here and raises ``TypeError``.

A division ``a / b`` builds one jet.  It keeps the components of the
reciprocal jet of b, ``compose(r, -r*r, 2*r*r*r, b)`` with r = 1/b.v,
in locals and applies the product rule to them, so the quotient has the
bits of ``a * R`` with R that reciprocal jet, whichever of a and b is a
jet and of which kind.  A number divisor c divides as ``Jet2(float(c))``
does.  |b.v| below :data:`MIN_DIVISOR` raises ZeroDivisionError.

A :class:`Jet1` is the univariate 2-jet (f, f', f'') of a profile:
the x slots (v, dx, dxx) of a Jet2 and nothing else.  Each of its
operations is Jet2's formula restricted to those slots, scalar fast paths
and operand order included, and the x slots of a Jet2 result depend on
the operands' x slots alone, so a Jet1 result carries bit for bit the
(v, dx, dxx) that the Jet2 operation would give.  A Jet2 mixed with a
Jet1 gives a Jet1 with those same bits, operand order kept.  The
elementary functions take either kind and return the argument's kind.

Fields are ordinary callables built from jet arithmetic: a two-variable
field maps two jets to a jet (plain numbers are accepted and treated as
constants), a one-variable profile maps one jet to a jet.  Seed the
inputs with :func:`coord1` / :func:`coord2` and the output jet holds the
derivatives with respect to those coordinates.  :func:`eval_profile`
seeds a Jet1 and returns one: a curvature formula of an affine
factorable surface reads only f, f' and f'' of each profile, so the
y slots would be computed and dropped.  :func:`eval_field`, and with it
every chart, keeps Jet2.  Repr, equality and hashing of jets, and of
every value class above this layer, come from the fields via :class:`Value`.

A :class:`Col1` is a column of Jet1s: the lists (f, f', f'') of one
profile at many arguments, which :func:`eval_column` seeds.  Each
operation and elementary function runs as one list comprehension per
slot, with Jet1's float expression for each element, scalar fast paths
and operand order included, so element i carries the bits of the Jet1
at argument i.  A number, Jet1 or Jet2 on either side of a column
operation is that constant at every element.  A column evaluation is
all or nothing: where the per-point function would raise at any
element, the column function raises, and no element gets a value.
Only ``+ - *``, ``exp sin cos`` and :func:`compose` take a column, the
operations of the random generator's profiles, which cross-validation
evaluates over many points at once; ``/``, negation, ``**``, ``log``,
``tan``, ``sqrt`` and ``power`` raise TypeError on one.  A Col1 has no
``v`` either, so a profile that reads its argument's value raises.
Where a column raises, its caller evaluates the profile point by point
instead.

A :class:`Col2` is a Col1 with the y slots: the Jet2s of one field at
many points, which :func:`eval_field_column` seeds for a chart's
height.  It takes the same operations with Jet2's float expressions, a
number or a Jet2 as a constant, and no Jet1 or Col1.  The y slots take
the x slots' rules, and only w_12 has a rule of its own.  A chart's
kernel evaluates its height on a Col2 first and point by point where
that raises, so a height, like a profile, must be pure.
"""

from __future__ import annotations

import math

__all__ = [
    "Value",
    "Jet1",
    "Jet2",
    "Col1",
    "Col2",
    "BranchDomainError",
    "MIN_DIVISOR",
    "TAN_COS_FLOOR",
    "coord1",
    "coord2",
    "const",
    "compose",
    "eval_field",
    "eval_profile",
    "eval_column",
    "eval_field_column",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "sqrt",
    "power",
]

#: Divisors with |value| below this raise ZeroDivisionError instead of
#: silently producing inf components.
MIN_DIVISOR = 1e-300

#: |cos| at or below this counts as a tangent pole.
TAN_COS_FLOOR = 1e-8

#: Allocates a value without entering its ``__init__``: the caller sets every slot.
_new = object.__new__


class BranchDomainError(ArithmeticError):
    """An elementary function was evaluated outside its real branch."""

    def __init__(self, fn: str, value: float, requirement: str) -> None:
        super().__init__(f"{fn} evaluated at {value!r}: requires {requirement}")
        self.fn = fn
        self.value = value


class Value:
    """Base of the package's value classes, whose fields are their ``__slots__``.

    A value equals a value of the same class whose fields compare equal,
    hashes as the tuple of its fields and prints as ``Name(field=value!r,
    ...)`` without the fields named in ``_hidden``.  Each subclass keeps
    its own ``__init__``.
    """

    __slots__ = ()
    #: Fields that the repr leaves out.
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


def _as_jet(x):
    """Coerce a plain number to a constant jet; pass jets through.

    ``bool`` is an ``int`` subclass but not a real number here: a flag
    reaching jet arithmetic is a caller's mistake, not the constant 1.
    """
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return Jet2(float(x))
    return None


def _req(x, fn: str) -> "Jet2":
    j = _as_jet(x)
    if j is None:
        raise TypeError(f"{fn} expects a jet or a real number, got {type(x).__name__}")
    return j


class _Jet(Value):
    """What both kinds of jet share besides their slots and arithmetic."""

    __slots__ = ()

    def components(self) -> tuple[float, ...]:
        return self._values()

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self._values()))

    # c - t and c / t apply t's own rule to Jet2(float(c)) and t.
    def __rsub__(self, other):
        o = _as_jet(other)
        if o is None:
            return NotImplemented
        return self.__class__.__sub__(o, self)

    def __rtruediv__(self, other):
        o = _as_jet(other)
        if o is None:
            return NotImplemented
        return self.__class__.__truediv__(o, self)

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)) and not isinstance(exponent, bool):
            return power(self, exponent)
        return NotImplemented


class Jet2(_Jet):
    """Value and partial derivatives (through second order) at one point.

    A plain ``__slots__`` class rather than a frozen dataclass, whose
    ``__init__`` routes every field through ``object.__setattr__``.  The
    package builds jets in place; ``__init__``, for callers, gives equal jets.
    """

    __slots__ = ("v", "dx", "dy", "dxx", "dxy", "dyy")
    __match_args__ = __slots__

    def __init__(
        self,
        v: float,
        dx: float = 0.0,
        dy: float = 0.0,
        dxx: float = 0.0,
        dxy: float = 0.0,
        dyy: float = 0.0,
    ) -> None:
        self.v = v
        self.dx = dx
        self.dy = dy
        self.dxx = dxx
        self.dxy = dxy
        self.dyy = dyy

    # arithmetic ---------------------------------------------------------
    #
    # The float/int branches of + and * are the exact scalar fast paths
    # described in the module docstring: each keeps every zero term of the
    # jet-jet rule.  - and / coerce a number with _as_jet instead.  Only +
    # and * forward a Jet1 operand to Jet1's rule themselves: Jet1's
    # reflected + and * are aliases that would swap the operands, which
    # changes which NaN payload survives and the order of the product's
    # sums.  - and / leave a Jet1 to Jet1's __rsub__ and __rtruediv__,
    # which keep the operands in order.

    def __add__(self, other):
        k = other.__class__
        if k is not Jet2:
            if k is float or k is int:
                r = _new(Jet2)
                r.v = self.v + float(other)
                r.dx = self.dx + 0.0
                r.dy = self.dy + 0.0
                r.dxx = self.dxx + 0.0
                r.dxy = self.dxy + 0.0
                r.dyy = self.dyy + 0.0
                return r
            if k is Jet1:
                return Jet1.__add__(self, other)
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        r = _new(Jet2)
        r.v = self.v + other.v
        r.dx = self.dx + other.dx
        r.dy = self.dy + other.dy
        r.dxx = self.dxx + other.dxx
        r.dxy = self.dxy + other.dxy
        r.dyy = self.dyy + other.dyy
        return r

    # c + t means t + Jet2(c); the alias keeps that operand
    # order (it picks which NaN payload survives when both are NaN).
    __radd__ = __add__

    def __neg__(self):
        r = _new(Jet2)
        r.v = -self.v
        r.dx = -self.dx
        r.dy = -self.dy
        r.dxx = -self.dxx
        r.dxy = -self.dxy
        r.dyy = -self.dyy
        return r

    def __sub__(self, other):
        k = other.__class__
        if k is not Jet2:
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        r = _new(Jet2)
        r.v = self.v - other.v
        r.dx = self.dx - other.dx
        r.dy = self.dy - other.dy
        r.dxx = self.dxx - other.dxx
        r.dxy = self.dxy - other.dxy
        r.dyy = self.dyy - other.dyy
        return r

    def __mul__(self, other):
        k = other.__class__
        if k is not Jet2:
            if k is float or k is int:
                c = float(other)
                a = self
                z = a.v * 0.0
                r = _new(Jet2)
                r.v = a.v * c
                r.dx = a.dx * c + z
                r.dy = a.dy * c + z
                r.dxx = a.dxx * c + 2.0 * a.dx * 0.0 + z
                r.dxy = a.dxy * c + a.dx * 0.0 + a.dy * 0.0 + z
                r.dyy = a.dyy * c + 2.0 * a.dy * 0.0 + z
                return r
            if k is Jet1:
                return Jet1.__mul__(self, other)
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        a, b = self, other
        r = _new(Jet2)
        r.v = a.v * b.v
        r.dx = a.dx * b.v + a.v * b.dx
        r.dy = a.dy * b.v + a.v * b.dy
        r.dxx = a.dxx * b.v + 2.0 * a.dx * b.dx + a.v * b.dxx
        r.dxy = a.dxy * b.v + a.dx * b.dy + a.dy * b.dx + a.v * b.dxy
        r.dyy = a.dyy * b.v + 2.0 * a.dy * b.dy + a.v * b.dyy
        return r

    # c * t means t * Jet2(c), not Jet2(c) * t.  Swapping the
    # operands regroups the terms: 2.0 * a.dx * b.dx doubles the left
    # factor first, so 2.0 * t.dx can overflow to inf (and inf * 0.0 is
    # NaN) where 2.0 * 0.0 * t.dx is 0.0, and the three-term sums add in
    # another order.  Keep the alias.
    __rmul__ = __mul__

    # Division as the module docstring states it: the reciprocal jet's
    # components stay in locals, and the jet-jet product rule reads them
    # in its own order.  A Jet1 divisor reaches Jet1's rule through
    # Jet1.__rtruediv__, with the operands in order.

    def __truediv__(self, other):
        k = other.__class__
        if k is not Jet2:
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        a, b = self, other
        r, d1, d2 = _reciprocal_derivatives(b.v)
        bx, by = b.dx, b.dy
        rx = d1 * bx
        ry = d1 * by
        av, ax, ay = a.v, a.dx, a.dy
        q = _new(Jet2)
        q.v = av * r
        q.dx = ax * r + av * rx
        q.dy = ay * r + av * ry
        q.dxx = a.dxx * r + 2.0 * ax * rx + av * (d2 * bx * bx + d1 * b.dxx)
        q.dxy = a.dxy * r + ax * ry + ay * rx + av * (d2 * bx * by + d1 * b.dxy)
        q.dyy = a.dyy * r + 2.0 * ay * ry + av * (d2 * by * by + d1 * b.dyy)
        return q


class Jet1(_Jet):
    """Value, first and second derivative of a profile at one point.

    The x slots of a :class:`Jet2` and only those: every operation is
    Jet2's formula restricted to (v, dx, dxx), with the same scalar fast
    path zero terms and the same operand order.  A Jet2 operand is read
    through its x slots, so a Jet2 constant such as ``const(c)`` mixes in.
    """

    __slots__ = ("v", "dx", "dxx")
    __match_args__ = __slots__

    def __init__(self, v: float, dx: float = 0.0, dxx: float = 0.0) -> None:
        self.v = v
        self.dx = dx
        self.dxx = dxx

    def __add__(self, other):
        k = other.__class__
        if k is not Jet1 and k is not Jet2:
            if k is float or k is int:
                r = _new(Jet1)
                r.v = self.v + float(other)
                r.dx = self.dx + 0.0
                r.dxx = self.dxx + 0.0
                return r
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        r = _new(Jet1)
        r.v = self.v + other.v
        r.dx = self.dx + other.dx
        r.dxx = self.dxx + other.dxx
        return r

    __radd__ = __add__

    def __neg__(self):
        r = _new(Jet1)
        r.v = -self.v
        r.dx = -self.dx
        r.dxx = -self.dxx
        return r

    def __sub__(self, other):
        k = other.__class__
        if k is not Jet1 and k is not Jet2:
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        r = _new(Jet1)
        r.v = self.v - other.v
        r.dx = self.dx - other.dx
        r.dxx = self.dxx - other.dxx
        return r

    def __mul__(self, other):
        k = other.__class__
        if k is not Jet1 and k is not Jet2:
            if k is float or k is int:
                c = float(other)
                a = self
                z = a.v * 0.0
                r = _new(Jet1)
                r.v = a.v * c
                r.dx = a.dx * c + z
                r.dxx = a.dxx * c + 2.0 * a.dx * 0.0 + z
                return r
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        a, b = self, other
        r = _new(Jet1)
        r.v = a.v * b.v
        r.dx = a.dx * b.v + a.v * b.dx
        r.dxx = a.dxx * b.v + 2.0 * a.dx * b.dx + a.v * b.dxx
        return r

    # As in Jet2, c * t means t * c.
    __rmul__ = __mul__

    # As in Jet2, on the x slots of both operands.
    def __truediv__(self, other):
        k = other.__class__
        if k is not Jet1 and k is not Jet2:
            other = _as_jet(other)
            if other is None:
                return NotImplemented
        a, b = self, other
        r, d1, d2 = _reciprocal_derivatives(b.v)
        bx = b.dx
        rx = d1 * bx
        av, ax = a.v, a.dx
        q = _new(Jet1)
        q.v = av * r
        q.dx = ax * r + av * rx
        q.dxx = a.dxx * r + 2.0 * ax * rx + av * (d2 * bx * bx + d1 * b.dxx)
        return q


# columns ---------------------------------------------------------------
#
# A column's lists are (v, x, xx) for a Col1 and (v, x, xx, y, yy, xy)
# for a Col2.  Each rule below is a jet formula for one slot, written
# once as a list comprehension over the operands' lists: the loop over
# _axes runs the x and xx rules on the y lists too, and only xy has a
# rule of its own.


def _jet1(v: float, dx: float, dxx: float) -> Jet1:
    j = _new(Jet1)
    j.v = v
    j.dx = dx
    j.dxx = dxx
    return j


def _column(slots: list) -> Col1 | Col2:
    """A column of the slots' kind: three lists make a Col1, six a Col2."""
    if len(slots) == 3:
        r = _new(Col1)
        r.vs, r.dxs, r.dxxs = slots
    else:
        r = _new(Col2)
        r.vs, r.dxs, r.dxxs, r.dys, r.dyys, r.dxys = slots
    return r


def _axes(slots) -> range:
    """Where each coordinate's two lists start: x at 1, and y at 3 in a Col2."""
    return range(1, len(slots) - 1, 2)


def _operand(x, col):
    """The other operand of an operation on ``col`` as lists in ``col``'s layout, or None.

    A column of ``col``'s kind gives its lists, and a jet or a number its
    slots, once per element.  A number is the constant jet
    ``Jet2(float(c))``, as in the jets' rules.  A Col1 reads a Jet2
    through its x slots, as a Jet1 does.  A Col2 takes no Jet1, because
    a Jet2 mixed with a Jet1 gives a Jet1, and no column of the other kind.
    """
    k, kind = x.__class__, col.__class__
    if k is kind:
        return x._lists()
    if k is not Jet1 or kind is Col2:
        x = _as_jet(x)
        if x is None:
            return None
    slots = (x.v, x.dx, x.dxx) if kind is Col1 else (x.v, x.dx, x.dxx, x.dy, x.dyy, x.dxy)
    n = len(col.vs)
    return [[s] * n for s in slots]


def _sum(a: tuple, b: tuple) -> Col1 | Col2:
    return _column([[u + w for u, w in zip(p, q)] for p, q in zip(a, b)])


def _difference(a: tuple, b: tuple) -> Col1 | Col2:
    return _column([[u - w for u, w in zip(p, q)] for p, q in zip(a, b)])


def _product(a: tuple, b: tuple) -> Col1 | Col2:
    av, bv = a[0], b[0]
    slots = [[u * w for u, w in zip(av, bv)]]
    for i in _axes(a):
        ad, add, bd, bdd = a[i], a[i + 1], b[i], b[i + 1]
        slots.append([d * w + u * e for d, w, u, e in zip(ad, bv, av, bd)])
        slots.append(
            [dd * w + 2.0 * d * e + u * ee for dd, w, d, e, u, ee in zip(add, bv, ad, bd, av, bdd)]
        )
    if len(a) == 6:
        slots.append([
            xy * w + x * t + y * s + u * q
            for xy, w, x, t, y, s, u, q in zip(a[5], bv, a[1], b[3], a[3], b[1], av, b[5])
        ])
    return _column(slots)


def _plus(t: Col1 | Col2, c: float) -> Col1 | Col2:
    """t + c by the jets' scalar fast path."""
    vs, *ds = t._lists()
    return _column([[v + c for v in vs], *([d + 0.0 for d in s] for s in ds)])


def _scaled(t: Col1 | Col2, c: float) -> Col1 | Col2:
    """t * c by the jets' scalar fast path."""
    a = t._lists()
    zs = [v * 0.0 for v in a[0]]
    slots = [[v * c for v in a[0]]]
    for i in _axes(a):
        ds, dds = a[i], a[i + 1]
        slots.append([d * c + z for d, z in zip(ds, zs)])
        slots.append([dd * c + 2.0 * d * 0.0 + z for dd, d, z in zip(dds, ds, zs)])
    if len(a) == 6:
        slots.append([xy * c + x * 0.0 + y * 0.0 + z for xy, x, y, z in zip(a[5], a[1], a[3], zs)])
    return _column(slots)


def _binary(rule, scalar=None, reflected: bool = False):
    """A column operator method: ``rule`` on the column and the other operand, in that order.

    ``reflected`` swaps the order, so a jet or a number on the left of a
    column keeps its place, as Jet2 keeps a Jet1's.  ``scalar``, for + and
    *, takes a float or int on either side as ``t + c`` and ``t * c``, as
    the jets' aliases do.
    """

    def method(self, other):
        k = other.__class__
        if scalar is not None and (k is float or k is int):
            return scalar(self, float(other))
        o = _operand(other, self)
        if o is None:
            return NotImplemented
        return rule(o, self._lists()) if reflected else rule(self._lists(), o)

    return method


class Col1:
    """The Jet1s of one profile evaluation at many arguments, one list per slot.

    ``vs``, ``dxs`` and ``dxxs`` hold (f, f', f'') at each argument.  Each
    operation computes, element by element, Jet1's float expression for
    the operands' kinds, so element i carries the bits of the per-point
    Jet1.  Only the operations that the module docstring lists take a
    column; any other, tan, sqrt and power included, raises TypeError,
    and a profile that reads ``v`` raises AttributeError.
    """

    __slots__ = ("vs", "dxs", "dxxs")

    def _lists(self) -> tuple[list[float], ...]:
        return self.vs, self.dxs, self.dxxs

    def jet1s(self) -> list[Jet1]:
        """Each element's x slots as a Jet1, built in place."""
        return list(map(_jet1, self.vs, self.dxs, self.dxxs))

    __add__ = _binary(_sum, _plus)
    __radd__ = _binary(_sum, _plus, reflected=True)
    __sub__ = _binary(_difference)
    __rsub__ = _binary(_difference, reflected=True)
    __mul__ = _binary(_product, _scaled)
    __rmul__ = _binary(_product, _scaled, reflected=True)


class Col2(Col1):
    """The Jet2s of one field evaluation at many points: a Col1 with the y slots.

    ``dys``, ``dyys`` and ``dxys`` follow the x slots' lists.  Element i
    carries the bits of the per-point Jet2, under the operations of a
    Col1, each with Jet2's float expression.
    """

    __slots__ = ("dys", "dyys", "dxys")

    def _lists(self) -> tuple[list[float], ...]:
        return self.vs, self.dxs, self.dxxs, self.dys, self.dyys, self.dxys


def _reciprocal_derivatives(v: float) -> tuple[float, float, float]:
    """g, g' and g'' of g(f) = 1/f at f = v, for every division form.

    |v| below :data:`MIN_DIVISOR` raises ZeroDivisionError instead.
    """
    if abs(v) < MIN_DIVISOR:
        raise ZeroDivisionError(f"jet division by {v!r}: |denominator| < {MIN_DIVISOR:g}")
    r = 1.0 / v
    return r, -r * r, 2.0 * r * r * r


# seeding --------------------------------------------------------------


def coord1(value: float) -> Jet2:
    """The first coordinate as a field: ``Jet2(float(value), dx=1.0)`` by position."""
    return Jet2(float(value), 1.0)


def coord2(value: float) -> Jet2:
    """The second coordinate as a field: ``Jet2(float(value), dy=1.0)`` by position."""
    return Jet2(float(value), 0.0, 1.0)


def const(value: float) -> Jet2:
    """A constant field: all derivative components zero."""
    return Jet2(float(value))


def eval_field(field, p1: float, p2: float) -> Jet2:
    """Evaluate a two-variable field at (p1, p2) with coordinate seeds.

    The seeds are ``coord1(p1)`` and ``coord2(p2)``, built in place:
    every chart point comes through here.
    """
    s1 = _new(Jet2)
    s1.v = float(p1)
    s1.dx = 1.0
    s1.dy = 0.0
    s1.dxx = 0.0
    s1.dxy = 0.0
    s1.dyy = 0.0
    s2 = _new(Jet2)
    s2.v = float(p2)
    s2.dx = 0.0
    s2.dy = 1.0
    s2.dxx = 0.0
    s2.dxy = 0.0
    s2.dyy = 0.0
    out = field(s1, s2)
    if out.__class__ is not Jet2:
        out = _as_jet(out)
        if out is None:
            raise TypeError("field must return a Jet2 or a real number")
    return out


def eval_column(profile, ts) -> Col1:
    """Evaluate a one-variable profile at every t in ts at once: a :class:`Col1`.

    The profile gets the column of the seeds ``Jet1(float(t), 1.0)``, so
    element i carries the bits of ``eval_profile(profile, ts[i])``.  A
    profile that returns a jet or a plain number gives that value's x
    slots at every argument.  The evaluation is all or nothing: where
    ``eval_profile`` would raise at any argument, this raises, though
    not always the same error, and a profile that the column cannot
    carry, one that takes tan, sqrt or power, say, raises TypeError.
    Evaluate point by point then.
    """
    vs = list(map(float, ts))
    n = len(vs)
    return _returned(profile, (_column([vs, [1.0] * n, [0.0] * n]),), "profile")


def eval_field_column(field, p1s, p2s) -> Col2:
    """Evaluate a two-variable field at every point (p1s[i], p2s[i]) at once: a :class:`Col2`.

    The column analogue of :func:`eval_field`: the field gets the columns
    of the seeds ``coord1(p1s[i])`` and ``coord2(p2s[i])``, so element i
    carries the bits of ``eval_field(field, p1s[i], p2s[i])``, and a
    field that returns a Jet2 or a plain number gives that value at every
    point.  All or nothing, as :func:`eval_column` is: a field that
    divides, reads a value or takes tan, say, or that raises at any
    point, raises here, and its caller then evaluates it point by point.
    """
    xs, ys = list(map(float, p1s)), list(map(float, p2s))
    n = len(xs)
    ones, zeros = [1.0] * n, [0.0] * n
    x = _column([xs, ones, zeros, zeros, zeros, zeros])
    y = _column([ys, zeros, zeros, ones, zeros, zeros])
    return _returned(field, (x, y), "field")


def _returned(fn, seeds: tuple, what: str):
    """``fn`` on the seed columns, its result as a column of the seeds' kind."""
    out = fn(*seeds)
    if out.__class__ is seeds[0].__class__:
        return out
    lists = _operand(out, seeds[0])
    if lists is None:
        raise TypeError(f"{what} must return a jet or a real number")
    return _column(lists)


def eval_profile(profile, t: float) -> Jet1:
    """Evaluate a one-variable profile at t: its :class:`Jet1` (f, f', f'').

    The profile gets ``Jet1(float(t), 1.0)``, built in place.  A profile that returns a
    Jet2 (a constant such as ``const(c)``, say) or a plain number gives
    the x slots of that jet, which are the same bits as a Jet1 result.
    """
    s = _new(Jet1)
    s.v = float(t)
    s.dx = 1.0
    s.dxx = 0.0
    out = profile(s)
    if out.__class__ is not Jet1:
        j = _as_jet(out)
        if j is None:
            raise TypeError("profile must return a jet or a real number")
        out = Jet1(j.v, j.dx, j.dxx)
    return out


# univariate composition ----------------------------------------------


def compose(
    value: float, d1: float, d2: float, inner: Jet1 | Jet2 | Col1 | Col2
) -> Jet1 | Jet2 | Col1 | Col2:
    """Chain a univariate function through ``inner``, a Jet2, a Jet1 or a column.

    ``value``, ``d1``, ``d2`` are g(f), g'(f), g''(f) at f = inner.v; the
    result is the jet of g(f), of the same kind as ``inner``.  For a
    column they are lists, one float per element.
    """
    f = inner
    if f.__class__ is Jet2:
        r = _new(Jet2)
        r.v = value
        r.dx = d1 * f.dx
        r.dy = d1 * f.dy
        r.dxx = d2 * f.dx * f.dx + d1 * f.dxx
        r.dxy = d2 * f.dx * f.dy + d1 * f.dxy
        r.dyy = d2 * f.dy * f.dy + d1 * f.dyy
        return r
    if f.__class__ is Col1 or f.__class__ is Col2:
        a = f._lists()
        slots = [value]
        for i in _axes(a):
            ds, dds = a[i], a[i + 1]
            slots.append([g1 * d for g1, d in zip(d1, ds)])
            slots.append([g2 * d * d + g1 * dd for g2, d, g1, dd in zip(d2, ds, d1, dds)])
        if len(a) == 6:
            slots.append([g2 * x * y + g1 * xy for g2, x, y, g1, xy in zip(d2, a[1], a[3], d1, a[5])])
        return _column(slots)
    r = _new(Jet1)
    r.v = value
    r.dx = d1 * f.dx
    r.dxx = d2 * f.dx * f.dx + d1 * f.dxx
    return r


# elementary functions -------------------------------------------------


def exp(a) -> Jet1 | Jet2 | Col1 | Col2:
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        if k is Col1 or k is Col2:
            return _exp_column(a)
        a = _req(a, "exp")
    e = math.exp(a.v)
    return compose(e, e, e, a)


def log(a) -> Jet1 | Jet2:
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        a = _req(a, "log")
    if a.v <= 0.0:
        raise BranchDomainError("log", a.v, "a positive argument")
    r = 1.0 / a.v
    return compose(math.log(a.v), r, -r * r, a)


def sin(a) -> Jet1 | Jet2 | Col1 | Col2:
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        if k is Col1 or k is Col2:
            return _sin_column(a)
        a = _req(a, "sin")
    try:
        s, c = math.sin(a.v), math.cos(a.v)
    except ValueError:
        raise BranchDomainError("sin", a.v, "a finite argument") from None
    return compose(s, c, -s, a)


def cos(a) -> Jet1 | Jet2 | Col1 | Col2:
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        if k is Col1 or k is Col2:
            return _cos_column(a)
        a = _req(a, "cos")
    try:
        s, c = math.sin(a.v), math.cos(a.v)
    except ValueError:
        raise BranchDomainError("cos", a.v, "a finite argument") from None
    return compose(c, -s, -c, a)


def tan(a) -> Jet1 | Jet2:
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        a = _req(a, "tan")
    try:
        c = math.cos(a.v)
    except ValueError:
        raise BranchDomainError("tan", a.v, "a finite argument") from None
    if abs(c) <= TAN_COS_FLOOR:
        raise BranchDomainError(
            "tan", a.v, f"|cos| > {TAN_COS_FLOOR:g} (pole guard)"
        )
    t = math.tan(a.v)
    sec2 = 1.0 + t * t
    return compose(t, sec2, 2.0 * t * sec2, a)


def sqrt(a) -> Jet1 | Jet2:
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        a = _req(a, "sqrt")
    if a.v <= 0.0:
        raise BranchDomainError("sqrt", a.v, "a positive argument")
    s = math.sqrt(a.v)
    d1 = 0.5 / s
    return compose(s, d1, -0.5 * d1 / a.v, a)


def power(a, exponent: float) -> Jet1 | Jet2:
    """a**p for a real exponent p.

    Integer exponents work for any base (except a zero base with a negative
    exponent); non-integer exponents require a positive base.
    """
    k = a.__class__
    if k is not Jet1 and k is not Jet2:
        a = _req(a, "power")
    p = float(exponent)
    v = a.v
    if p == 0.0:
        return a.__class__(1.0)
    if p == 1.0:
        return a
    if not p.is_integer():
        if v <= 0.0:
            raise BranchDomainError(
                "power", v, f"a positive base for non-integer exponent {p!r}"
            )
    elif v == 0.0 and p < 0.0:
        raise BranchDomainError("power", v, "a nonzero base for negative exponent")
    g = math.pow(v, p)
    g1 = p * math.pow(v, p - 1.0)
    g2 = p * (p - 1.0) * math.pow(v, p - 2.0)
    return compose(g, g1, g2, a)


# elementary functions on columns ----------------------------------------
#
# exp, sin and cos, which the random generator's profiles use, have no
# domain test; an error of the math module, such as exp's overflow or
# sin of an infinity, propagates as it is.  tan, sqrt and power take no
# column: their profiles are evaluated point by point.


def _exp_column(a: Col1 | Col2) -> Col1 | Col2:
    es = [math.exp(v) for v in a.vs]
    return compose(es, es, es, a)


def _sin_column(a: Col1 | Col2) -> Col1 | Col2:
    ss = [math.sin(v) for v in a.vs]
    return compose(ss, [math.cos(v) for v in a.vs], [-s for s in ss], a)


def _cos_column(a: Col1 | Col2) -> Col1 | Col2:
    ss = [math.sin(v) for v in a.vs]
    cs = [math.cos(v) for v in a.vs]
    return compose(cs, [-s for s in ss], [-c for c in cs], a)
