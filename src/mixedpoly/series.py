"""Truncated formal power series over polynomials with exact rational coefficients.

Two nested commutative rings:

* ``XPoly`` -- dense univariate polynomial in ``x``, stored as a tuple of
  integer numerators over one positive denominator, with the content
  normalized (no trailing zeros; the gcd of the numerators and the
  denominator is 1), so equality is structural.
* ``TSeries`` -- power series in ``t``, truncated at a fixed order ``T``, whose
  coefficients are ``XPoly`` values.

``fractions.Fraction`` appears only at the boundary: ``XPoly.coeffs``,
``coeff``, evaluation and hashing of constants.  The printers reduce each
coefficient with one gcd (``_rat_text``).  An ``XPoly`` builds its plain,
its LaTeX and its comma-joined coefficient text (the csv and json form) on
its first print in that form and keeps it, so a memoized row or series
coefficient printed again costs one attribute read; a text printed under a
raised ``sys.set_int_max_str_digits`` limit is reused after the limit is
lowered, and a print that fails on the limit keeps nothing.  Inside, every
sum of products -- a coefficient of a series product or quotient, and the
convolutions of the families and the identity catalog -- is one integer sum
over a common denominator, normalized once (``_sum_of_products``).

A stream (``_Stream``) is a list of a sequence's terms, filled explicitly,
lowest first: ``fill(n)`` computes each term i up to n not yet held as
``rule(stream, i)``.  A rule reads the terms below i of its own stream as
a slice, calls ``fill`` on any other stream up to the last index it reads,
then reads the window of terms it sums as two slices (``_window``), so a
term read is the interpreter's own list subscript.  A rule is handed its
stream and never holds it, so no stream refers to itself: a dropped stream
is freed by reference counting, and no request leaves a cycle for the
collector.  A stream built from terms known in advance has no rule and is
read only within them.  A stream carries its facts: its lane ``total``,
the term sum that sums its terms -- ``_sum_of_products`` for ``XPoly``
terms, or ``_pair_sum`` for x-free terms held as reduced integer pairs --
and bounds ``v`` and ``d`` on its t-valuation from below and its
t-degree from above.  The rules (product, quotient, power) read their
operands' facts and set their result's: a result sums pairs only when
both operands do (``_lane``), and sums only the terms its operands' degree
bounds leave nonzero.  So the expression language runs the same rules on
x-free terms and on ``XPoly`` terms.

Every generating function handled by this package lives in ``TSeries``; all
arithmetic is exact, and a series never pretends to know coefficients beyond
its truncation order.  Mixing two series with different truncations is a
hard error rather than a silent re-truncation, so that an equality asserted
at order ``T`` is provably exact at that order.  The package's own series
come from the stream rules; the operators and ``compose`` are the ring the
tests' reference series are written in.

Both classes are immutable value types; every operation returns a new object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from math import factorial, gcd, lcm
from operator import add, attrgetter
from typing import Iterable, Union

Scalar = Union[Fraction, int]

# A record that validates sets its fields through this, past its ``__setattr__``.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__``, in order.  The base's
    constructor sets them in that order: positional values first, then the
    remaining fields by name; a missing, extra, repeated or unknown field
    raises ``TypeError``.  Only a record that validates writes its own
    ``__init__``, setting its fields through ``_set``.  Records are equal
    when they are of one class with equal compared fields, and hash as the
    tuple of those fields; the class keyword ``compared=`` names them, for
    the class and its subclasses, and by default every field is compared.
    Fields cannot be assigned or deleted; ``pickle`` and ``copy`` rebuild a
    record through its constructor, and its repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, compared=None):
        slots = (vars(base).get("__slots__", ()) for base in reversed(cls.__mro__))
        cls._fields = tuple(name for names in slots for name in names)
        # A slot's own descriptor sets it past ``__setattr__``, cheaper than ``_set``.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        if compared is not None:
            cls._compared = compared
        names = getattr(cls, "_compared", cls._fields)
        if len(names) > 1:
            cls._key = staticmethod(attrgetter(*names))
        else:  # attrgetter of one name returns the bare value, not a 1-tuple
            cls._key = staticmethod(lambda record: tuple(getattr(record, n) for n in names))

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):
            rest = self._fields[len(values) :]
            if len(values) > len(setters) or named.keys() != set(rest):
                fields = ", ".join(self._fields)
                raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}, each once")
            values += tuple(named[name] for name in rest)
        for i in range(len(setters)):  # by index: quicker than unpacking a zip's pairs
            setters[i](self, values[i])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SeriesError(Exception):
    """Base class for series-ring errors."""


class TruncationError(SeriesError):
    """Operands carry different truncation orders."""


class DivisionError(SeriesError):
    """Divisor is not invertible in the truncated ring."""


class CompositionError(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class XPoly:
    """Dense polynomial in x: integer numerators over one positive denominator.

    ``_num`` holds the numerators in ascending degree and ``_den`` the common
    denominator.  The content is always normalized -- no trailing zero
    numerators, gcd of all numerators and the denominator equal to 1, zero
    stored as ``((), 1)`` -- so equality is structural.  ``_str``,
    ``_latex`` and ``_coeff_text`` hold the plain, the LaTeX and the
    coefficient text once printed; they take no part in equality, hashing
    or pickling.
    """

    __slots__ = ("_num", "_den", "_str", "_latex", "_coeff_text")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # Over the lcm of reduced denominators the content is already 1.
        den = lcm(*(c.denominator for c in cs))
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @classmethod
    def _normalized(cls, num: list[int], den: int) -> "XPoly":
        """The value num/den for integers num and den > 0, content removed."""
        while num and not num[-1]:
            num.pop()
        if not num:
            return _ZERO_POLY
        g = gcd(den, *num)
        p = object.__new__(cls)
        p._num = tuple(num) if g == 1 else tuple(c // g for c in num)
        p._den = den // g
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction`` values, ascending in degree."""
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_scalar(self) -> bool:
        """True when the value is a constant (degree <= 0)."""
        return len(self._num) <= 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the degree)."""
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def __add__(self, other) -> "XPoly":
        if not isinstance(other, (XPoly, Fraction, int)):
            return NotImplemented
        return _sum_of_products(((self,), (other,)))

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly._normalized([-c for c in self._num], self._den)

    def __sub__(self, other) -> "XPoly":
        if not isinstance(other, (XPoly, Fraction, int)):
            return NotImplemented
        return _sum_of_products(((self,), (other, -1)))

    def __rsub__(self, other) -> "XPoly":
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        return _sum_of_products(((other,), (self, -1)))

    def __mul__(self, other) -> "XPoly":
        if not isinstance(other, (XPoly, Fraction, int)):
            return NotImplemented
        return _sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _as_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # Degree-0 values compare equal to bare rationals, so they must
        # hash like them.
        if len(self._num) <= 1:
            return hash(self.coeff(0))
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate at a rational point by Horner's rule, exactly."""
        v = _rat(value)
        acc = Fraction(0)
        for c in reversed(self._num):
            acc = acc * v + c
        return acc / self._den

    def _render(self, frac: str, power: str, times: str) -> str:
        """Signed terms, highest degree first; one walk for every notation.

        ``frac`` and ``power`` are format strings for a reduced fraction p/q
        with q > 1 and for x^k with k >= 2; ``times`` joins a coefficient
        other than 1 to its power of x.
        """
        num, den = self._num, self._den
        if not num:
            return "0"
        parts: list[str] = []
        for k in range(len(num) - 1, -1, -1):
            c = num[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                term = _rat_text(mag, den, frac)
            else:
                xs = "x" if k == 1 else power.format(k)
                term = xs if mag == den else f"{_rat_text(mag, den, frac)}{times}{xs}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            self._str = text = self._render("{}/{}", "x^{}", "*")
            return text

    def latex(self) -> str:
        """LaTeX form: braced exponents x^{k} and \\frac{p}{q} coefficients."""
        try:
            return self._latex
        except AttributeError:
            self._latex = text = self._render(r"\frac{{{}}}{{{}}}", "x^{{{}}}", " ")
            return text

    def coeff_text(self) -> str:
        """The coefficients as exact "p/q" texts, ascending, comma-joined; "0" for zero.

        Split at the commas, it is ``[str(c) for c in self.coeffs] or ["0"]``.
        """
        try:
            return self._coeff_text
        except AttributeError:
            den = self._den
            self._coeff_text = text = ",".join([_rat_text(c, den) for c in self._num]) or "0"
            return text

    def __getstate__(self):
        return None, {"_num": self._num, "_den": self._den}

    def __repr__(self) -> str:
        return f"XPoly({self})"


def _sum_of_products(terms, scale: int = 1) -> XPoly:
    """The sum over ``terms`` of the product of each term's factors, over ``scale``, exactly.

    A factor is an ``XPoly``, a rational or a reduced pair (p, q) for p/q.
    Each term is reduced to a scalar numerator, the product of its factors'
    denominators and the product of the numerator tuples of its nonconstant
    factors; all terms are then scaled to the lcm of those denominators,
    summed as integers and normalized once, so no intermediate ``Fraction``
    or ``XPoly`` is built.
    """
    rows = []
    for term in terms:
        scalar, den, poly = 1, 1, _UNIT
        for f in term:
            if type(f) is int:
                if not f:
                    break
                scalar *= f
            elif type(f) is XPoly:
                num = f._num
                if len(num) > 1:
                    poly = _convolve(poly, num) if len(poly) > 1 else num
                elif num:
                    scalar *= num[0]
                else:
                    break
                den *= f._den
            elif type(f) is tuple:
                if not f[0]:
                    break
                scalar *= f[0]
                den *= f[1]
            elif f:
                scalar *= f.numerator
                den *= f.denominator
            else:
                break
        else:
            rows.append((scalar, den, poly))
    if not rows:
        return _ZERO_POLY
    common = lcm(*[den for _, den, _ in rows])
    out = [0]
    for scalar, den, poly in rows:
        scalar *= common // den
        if poly is _UNIT:
            out[0] += scalar
        else:
            out += [0] * (len(poly) - len(out))
            out[: len(poly)] = map(add, out, map(scalar.__mul__, poly))
    return XPoly._normalized(out, common * scale)


def _convolve(a, b) -> list[int]:
    """The product of two integer coefficient sequences."""
    if len(a) > len(b):
        a, b = b, a
    lb, out = len(b), [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + lb] = map(add, out[i : i + lb], map(ai.__mul__, b))
    return out


def _pair_sum(terms, scale: int = 1) -> tuple[int, int]:
    """``_sum_of_products`` for x-free terms (w, a, b): an integer weight and two pairs.

    A pair (p, q) is the reduced rational p/q with q > 0; the products are
    summed over the lcm of their denominators and reduced once, to a pair.
    """
    rows = [(w * p * r, q * s) for w, (p, q), (r, s) in terms if p and r]
    # Denominators repeat across terms; the set drops repeats before the lcm.
    den = lcm(*{q for _, q in rows})
    num = sum([p * (den // q) for p, q in rows])
    den *= scale
    g = gcd(num, den)
    return num // g, den // g


def _lift(c) -> XPoly:
    """A term of either lane as an ``XPoly``: the pair (p, q) is p/q."""
    return XPoly._normalized([c[0]], c[1]) if type(c) is tuple else c


def _times_x(p: XPoly) -> XPoly:
    """x p, by a shift of one degree."""
    return XPoly._normalized([0, *p._num], p._den)


# The degree bound of a sequence that need not be a polynomial.
_NO_DEGREE = float("inf")


class _Stream(list):
    """The terms of a sequence, its rule and its facts: see the module docstring."""

    __slots__ = ("rule", "total", "v", "d")

    def __init__(self, rule, terms=(), total=_sum_of_products, v=0, d=_NO_DEGREE):
        self.extend(terms)  # quicker than list.__init__ through super()
        self.rule = rule
        self.total = total
        self.v = v
        self.d = d

    def fill(self, n: int):
        """Compute the terms up to index n not yet held, lowest first; return the stream."""
        if len(self) <= n:  # a filled stream returns at once: most calls ask for no term
            rule = self.rule
            for i in range(len(self), n + 1):
                self.append(rule(self, i))
        return self


def _window(a, b, n: int, lo: int, hi: int, weight: int = 1, step: int = 0):
    """The terms (w_k, a_k, b_(n-k)) for k = lo..hi, w_k = weight + step (k - lo), as two slices.

    ``a`` must hold its terms to hi and ``b`` to n - lo: a stream is filled
    first.  An empty window (hi < lo) has no terms.
    """
    weights = repeat(weight) if not step else count(weight, step)
    return zip(weights, a[lo : hi + 1], reversed(b[n - hi : n - lo + 1]))


def _lane(a, b):
    """The term sum of a result read from streams a and b: pairs only when both hold pairs."""
    return a.total if a.total is b.total else _sum_of_products


def _product(a, b) -> _Stream:
    """The product of two streams.

    Term n sums a_k b_(n-k) over k in [max(0, n - d_b), min(n, d_a)] only.  A
    square sums each cross term a_k a_(n-k), k < n - k, once, with weight 2.
    """
    total, da, db = _lane(a, b), a.d, b.d
    if a is b:

        def rule(_, n):
            lo, mid = n - da if n > da else 0, n // 2  # k < n - k for k < n - mid
            a.fill(n - lo)
            if n % 2 or mid < lo:
                return total(_window(a, a, n, lo, n - mid - 1, 2))
            return total([*_window(a, a, n, lo, mid - 1, 2), (1, a[mid], a[mid])])

    else:

        def rule(_, n):
            lo, hi = n - db if n > db else 0, n if n < da else da
            return total(_window(a.fill(hi), b.fill(n - lo), n, lo, hi))

    return _Stream(rule, (), total, a.v + b.v, da + db)


def _quotient(f, g, v: int) -> _Stream:
    """f / g for g of valuation v, scalar g_v, f_0 .. f_(v-1) zero.

    Forward substitution: with g_v = a/b and d the degree bound of g, term n
    is (b f_(n+v) - b sum_(k=1..min(n, d-v)) g_(v+k) q_(n-k)) / a, so every
    weight is an integer.
    """
    total, d = _lane(f, g), g.d
    lead = _lift(g.fill(v)[v])
    w, scale = lead._den, lead._num[0]
    if scale < 0:
        w, scale = -w, -scale

    def rule(q, n):
        hi = v + min(n, d - v)
        terms = list(_window(g.fill(hi), q, n + v, v + 1, hi, -w))
        terms.append((w, f.fill(n + v)[n + v], _ONE_PAIR))
        return total(terms, scale)

    return _Stream(rule, (), total, max(f.v - v, 0))


def _power(base, k: int) -> _Stream:
    """base^k for k >= 1 by binary powering; k = 1 is the base itself."""
    result = base
    for bit in bin(k)[3:]:
        result = _product(result, result)
        if bit == "1":
            result = _product(result, base)
    return result


def _rat_text(c: int, den: int, frac: str = "{}/{}") -> str:
    """The rational c/den (den > 0) in lowest terms as text: p, or ``frac`` filled with p, q.

    One gcd reduces it, so the printers build no ``Fraction``; the text is
    that of ``str(Fraction(c, den))`` for the default ``frac``.
    """
    g = gcd(c, den)
    return str(c // g) if g == den else frac.format(c // g, den // g)


def _as_xpoly(value) -> "XPoly":
    if isinstance(value, XPoly):
        return value
    if isinstance(value, (Fraction, int)):
        return XPoly((value,))
    return NotImplemented


_ZERO_POLY = XPoly()
_ONE_POLY = XPoly((1,))
_ONE_PAIR = (1, 1)
_UNIT = (1,)


class TSeries:
    """Power series in t truncated at order T, with XPoly coefficients.

    Exactly ``T + 1`` coefficients are stored; coefficients beyond ``T`` are
    undefined and never consulted.  Binary operations require both operands
    to carry the same truncation and raise :class:`TruncationError` otherwise.
    """

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: int, coeffs: Iterable = ()):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [c if isinstance(c, XPoly) else _require_xpoly(c) for c in coeffs]
        if len(cs) > trunc + 1:
            raise ValueError(f"got {len(cs)} coefficients for truncation {trunc}")
        cs.extend([_ZERO_POLY] * (trunc + 1 - len(cs)))
        self.trunc = trunc
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: Union[Scalar, XPoly], trunc: int) -> "TSeries":
        return cls(trunc, (value,))

    def coeff(self, n: int) -> XPoly:
        """Raw coefficient of t**n."""
        if not 0 <= n <= self.trunc:
            raise ValueError(f"coefficient index {n} out of range 0..{self.trunc}")
        return self.coeffs[n]

    def poly(self, n: int) -> XPoly:
        """n-th extracted polynomial: n! times the coefficient of t**n.

        This is the extraction convention matching generating functions of
        the form sum_n P_n(x) t**n / n!.
        """
        return self.coeff(n) * factorial(n)

    def _check(self, other: "TSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}"
            )

    def __add__(self, other) -> "TSeries":
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries(
                self.trunc, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
        p = _as_xpoly(other)
        if p is NotImplemented:
            return NotImplemented
        out = list(self.coeffs)
        out[0] = out[0] + p
        return TSeries(self.trunc, out)

    __radd__ = __add__

    def __neg__(self) -> "TSeries":
        return TSeries(self.trunc, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "TSeries":
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries(
                self.trunc, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
            )
        p = _as_xpoly(other)
        if p is NotImplemented:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other) -> "TSeries":
        return (-self) + other

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, TSeries):
            self._check(other)
            product = _product(_Stream(None, self.coeffs), _Stream(None, other.coeffs))
            return TSeries(self.trunc, product.fill(self.trunc))
        if isinstance(other, (XPoly, Fraction, int)):
            return TSeries(self.trunc, tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TSeries":
        """Division by forward substitution.

        The divisor's constant term must be a nonzero scalar; x-dependent
        units are rejected because structural equality of the quotient would
        then require rational-function coefficients.
        """
        if isinstance(other, (Fraction, int)):
            if other == 0:
                raise DivisionError("division by zero scalar")
            return self * (Fraction(1) / other)
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check(other)
        g0 = other.coeffs[0]
        if g0.is_zero:
            raise DivisionError("divisor has zero constant term")
        if not g0.is_scalar:
            raise DivisionError("divisor has x-dependent constant term")
        quotient = _quotient(_Stream(None, self.coeffs), _Stream(None, other.coeffs), 0)
        return TSeries(self.trunc, quotient.fill(self.trunc))

    def __rtruediv__(self, other) -> "TSeries":
        p = _as_xpoly(other)
        if p is NotImplemented:
            return NotImplemented
        return TSeries.constant(p, self.trunc) / self

    def __pow__(self, exponent: int) -> "TSeries":
        """Integer power by repeated squaring; f**0 is the constant 1.

        Negative exponents require an invertible series (nonzero scalar
        constant term).
        """
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return TSeries.constant(1, self.trunc)
        base = self if exponent > 0 else TSeries.constant(1, self.trunc) / self
        power = _power(_Stream(None, base.coeffs), abs(exponent))
        return TSeries(self.trunc, power.fill(self.trunc))

    def compose(self, inner: "TSeries") -> "TSeries":
        """Substitute ``inner`` for t, truncated at the shared order.

        Evaluated by Horner in the series ring: with outer coefficients
        a_0..a_T, the result is (..(a_T * g + a_{T-1}) * g + ..) + a_0.
        Requires equal truncations and a vanishing inner constant term so
        that the substituted series is well defined order by order.
        """
        self._check(inner)
        if not inner.coeffs[0].is_zero:
            raise CompositionError("inner series has nonzero constant term")
        T = self.trunc
        acc = TSeries.constant(self.coeffs[T], T)
        for k in range(T - 1, -1, -1):
            acc = acc * inner + self.coeffs[k]
        return acc

    def shift_down(self, k: int = 1) -> "TSeries":
        """Exact division by t**k via index shift; truncation drops by k.

        Only legal when the k low-order coefficients vanish.  This is the
        one sanctioned way to divide by t, which is not a unit of the ring.
        """
        if k < 0:
            raise ValueError("shift must be non-negative")
        if k == 0:
            return self
        if k > self.trunc:
            raise DivisionError("shift exceeds truncation order")
        for i in range(k):
            if not self.coeffs[i].is_zero:
                raise DivisionError(
                    f"cannot divide by t^{k}: coefficient of t^{i} is nonzero"
                )
        return TSeries(self.trunc - k, self.coeffs[k:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.trunc, self.coeffs))

    def __str__(self) -> str:
        terms: list[str] = []
        for n, p in enumerate(self.coeffs):
            if p.is_zero:
                continue
            tpart = "" if n == 0 else ("t" if n == 1 else f"t^{n}")
            if not tpart:
                terms.append(str(p))
            elif p == _ONE_POLY:
                terms.append(tpart)
            else:
                body = str(p)
                needs_parens = sum(1 for c in p._num if c) > 1 or body.startswith("-")
                terms.append(f"({body})*{tpart}" if needs_parens else f"{body}*{tpart}")
        return " + ".join(terms) if terms else "0"

    def latex(self) -> str:
        """LaTeX form: each nonconstant term is \\left(p\\right) t^{n}."""
        terms: list[str] = []
        for n, p in enumerate(self.coeffs):
            if p.is_zero:
                continue
            tpart = "" if n == 0 else (" t" if n == 1 else f" t^{{{n}}}")
            terms.append(f"\\left({p.latex()}\\right){tpart}" if tpart else p.latex())
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"TSeries(T={self.trunc}: {self})"


def _require_xpoly(c) -> XPoly:
    p = _as_xpoly(c)
    if p is NotImplemented:
        raise TypeError(f"series coefficients must be XPoly or rational, got {type(c).__name__}")
    return p


# Memoized Stirling rows, by kind and then by n; only rows asked for are kept.
_STIRLING_ROWS = {True: {0: (1,)}, False: {0: (1,)}}


def _stirling_row(first_kind: bool, n: int) -> tuple[int, ...]:
    """Row S(n, 0..n) of a Stirling triangle, stepped up from the nearest memoized row."""
    rows = _STIRLING_ROWS[first_kind]
    row = rows.get(n) or rows[max(i for i in rows if i <= n)]
    for i in range(len(row) - 1, n):  # row i has i + 1 entries
        # S1(i+1, m) = S1(i, m-1) - i S1(i, m) and S2(i+1, m) = S2(i, m-1) + m S2(i, m)
        weights = repeat(-i) if first_kind else count()
        row = tuple(a + w * b for a, w, b in zip((0,) + row, weights, row + (0,)))
    rows[n] = row
    return row


@lru_cache(maxsize=None)
def falling_factorial(n: int) -> XPoly:
    """(x)_n = x (x-1) ... (x-n+1) = sum_m S1(n, m) x^m, with (x)_0 = 1."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    return XPoly._normalized(list(_stirling_row(True, n)), 1)

