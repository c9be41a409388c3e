"""Exact truncated power series in the variables x, z and y.

Every generating function in this package lives in the ring of polynomials
in x, z, y with integer coefficients, truncated by the exponent of x:
a series of order N keeps the terms with x-exponent <= N.  For
compositions x tracks the sum n, z the number of parts m and y the
occurrences r.  Word series use the same ring: every letter weighs x z,
so x and z both mark the length and the x-truncation is the truncation
by word length.

Coefficients are Python ints, so all arithmetic is exact.  Series are
stored sparsely as a map from exponent triples ``(n, m, r)`` to nonzero
coefficients; zero is never stored, which makes equality structural, and
callers read the tuple-keyed ``coeffs`` map directly.

A product with a one-term factor c x^a z^b y^e shifts the other
operand's keys by (a, b, e) and scales them by c.  Any other ``*``, and
every ``/``, packs each (n, m) row's y-polynomial into one int, its
value at y = 2**W, so a row product is one big-int multiply (Kronecker
substitution in y only, whose rows are dense; Harvey, JSC 2009).  Rows
are read back as balanced digits, in [-2**(W-1), 2**(W-1)): W comes from
the operands' absolute sums for ``*``, and for ``/``, which solves
q = num + t q (den = 1 - t) degree by degree in x with q packed
throughout, from the exact majorant |num|(x,1,1) / (1 - |t|(x,1,1)).
Every product of two series and every quotient lists its keys in
ascending (n, m, r) order.  The builders' quotients go through
:func:`graded.graded_quotient`, which solves sums of z-graded terms with
the same packed rows, width bound and decoding.

Values are immutable once constructed: every operation returns a fresh
series, so they can be shared freely.
"""

from __future__ import annotations

from collections.abc import Mapping

Triple = tuple[int, int, int]
# n -> m -> y-polynomial packed in one int; a row is a {m: P} dict, or
# in a graded quotient (lo, [P at m = lo, lo + 1, ...])
Rows = dict[int, dict[int, int] | tuple[int, list[int]]]


def _mul_rows_into(acc: dict[int, int], a: dict[int, int],
                   b: dict[int, int]) -> None:
    """Add the product of two x-slices {m: packed y-polynomial} into acc.

    Zero sums stay in acc; the caller drops them once, not per product.
    """
    get = acc.get
    b_items = b.items()
    for m1, p1 in a.items():
        for m2, p2 in b_items:
            m = m1 + m2
            acc[m] = get(m, 0) + p1 * p2


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class GradingMismatchError(SeriesError):
    """Operands disagree on the truncation order (an order mismatch)."""


class NonInvertibleError(SeriesError):
    """Division by a series whose constant term is not +1 or -1."""


class NormalizationError(SeriesError):
    """Division by a series with a non-constant x-degree-0 term.

    Such denominators (e.g. a stray y-term with no x attached) must be
    normalized by the caller before inversion; inverting them would leave
    the fraction-free integer ring.
    """


class OrderRangeError(SeriesError):
    """Coefficient query beyond the truncation order (never silently 0)."""


class TruncatedSeries:
    """An immutable, exactly-truncated integer power series.

    Supports ``+``, ``-``, ``*`` and ``/`` (series or int operands; the
    divisor needs a unit constant term).  Construction checks that
    exponents and coefficients are ints and canonicalizes: zero
    coefficients and terms beyond the truncation order are dropped.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int,
                 coeffs: Mapping[Triple, int] | None = None):
        if not isinstance(order, int) or order < 0:
            raise ValueError("truncation order must be an int >= 0")
        clean: dict[Triple, int] = {}
        if coeffs:
            for key, c in coeffs.items():
                n, m, r = key
                if not all(isinstance(v, int) for v in (n, m, r, c)):
                    raise ValueError(
                        f"exponents and coefficient must be ints: "
                        f"{key}: {c!r}")
                if n < 0 or m < 0 or r < 0:
                    raise ValueError(f"negative exponent in {key}")
                if c and n <= order:
                    clean[key] = c
        self.order = order
        self.coeffs = clean

    # -- basic queries -------------------------------------------------

    def constant_term(self) -> int:
        return self.coeffs.get((0, 0, 0), 0)

    def coefficient(self, n: int, m: int, r: int) -> int:
        """Exact coefficient of x^n z^m y^r.

        Raises OrderRangeError when n exceeds the truncation order: such a
        coefficient was discarded, not computed.
        """
        key = (n, m, r)
        if n > self.order:
            raise OrderRangeError(
                f"coefficient {key} lies beyond truncation order {self.order}")
        return self.coeffs.get(key, 0)

    # -- ring operations -----------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise GradingMismatchError(
                f"cannot combine series of orders {self.order} and "
                f"{other.order}")

    def _coerce(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return other
        if isinstance(other, int):
            return TruncatedSeries(self.order, {(0, 0, 0): other})
        return None

    def __add__(self, other) -> "TruncatedSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.coeffs)
        for key, c in rhs.coeffs.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return self._wrap({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "TruncatedSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, int):
            if other == 0:
                return self._wrap({})
            return self._wrap({k: other * c for k, c in self.coeffs.items()})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        for mono, rest in ((self, other), (other, self)):
            if len(mono.coeffs) == 1:
                # c x^a z^b y^e shifts the other's keys by (a, b, e)
                ((a, b, e), c), = mono.coeffs.items()
                top = self.order - a
                return self._wrap({(n + a, m + b, r + e): c * v
                                   for (n, m, r), v in sorted(
                                       rest.coeffs.items()) if n <= top})
        # No coefficient exceeds the product of the operands' absolute sums.
        width = (sum(self._abs_sums())
                 * sum(other._abs_sums())).bit_length() + 1
        a_rows, b_rows = self._rows(width), other._rows(width)
        order = self.order
        out: Rows = {}
        for da, a in a_rows.items():
            for db, b in b_rows.items():
                if da + db <= order:
                    _mul_rows_into(out.setdefault(da + db, {}), a, b)
        return self._unrows(out, width)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        """The quotient q with other * q == self in the truncated ring.

        Requires the divisor's constant term to be +1 or -1 and every other
        term to carry a positive x-exponent; under these conditions the
        quotient is again integer-coefficient.  With the signs of both
        operands flipped if need be, so that the divisor is 1 - t with t
        free of x-degree 0, q = self + t * q is solved degree by degree:
        q_deg needs only t times the lower degrees of q, each row a
        {m: P} dict.
        """
        den = self._coerce(other)
        if den is None:
            return NotImplemented
        c0 = den.constant_term()
        if c0 not in (1, -1):
            raise NonInvertibleError(
                f"constant term {c0} is not a unit (need +1 or -1)")
        order = self.order
        for key in den.coeffs:
            if key[0] == 0 and key != (0, 0, 0):
                raise NormalizationError(
                    f"term {key} has x-degree 0; "
                    "normalize the denominator before inverting")
        num, den = (self, den) if c0 == 1 else (-self, -den)
        t = 1 - den
        width = _quotient_width(num._abs_sums(), t._abs_sums())
        num_rows = num._rows(width)
        t_rows = t._rows(width).items()
        q_rows: Rows = {}
        for deg in range(order + 1):
            acc = num_rows.pop(deg, {})
            for d, t_row in t_rows:
                if q := q_rows.get(deg - d):
                    _mul_rows_into(acc, t_row, q)
            if row := {m: p for m, p in acc.items() if p}:
                q_rows[deg] = row
        return self._unrows(q_rows, width)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse within the truncated ring: ``1 / self``."""
        return one(self.order) / self

    # -- plumbing --------------------------------------------------------

    def _wrap(self, coeffs: dict[Triple, int]) -> "TruncatedSeries":
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.order = self.order
        s.coeffs = coeffs
        return s

    def _abs_sums(self) -> list[int]:
        """The sums of |coefficient| per x-degree 0..order."""
        sums = [0] * (self.order + 1)
        for (n, _m, _r), c in self.coeffs.items():
            sums[n] += abs(c)
        return sums

    def _rows(self, width: int) -> Rows:
        """The terms as {n: {m: P}}, where P is the (n, m) row's
        y-polynomial evaluated at y = 2**width."""
        rows: Rows = {}
        for (n, m, r), c in self.coeffs.items():
            row = rows.setdefault(n, {})
            row[m] = row.get(m, 0) + (c << width * r)
        return rows

    def _unrows(self, rows: Rows, width: int) -> "TruncatedSeries":
        """The series of packed rows, read as balanced base-2**width digits
        (a field of 2**(width-1) or more is negative and borrows one), with
        its keys in ascending (n, m, r) order; each x-degree is released
        once read."""
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        out: dict[Triple, int] = {}
        for n in sorted(rows):
            row = rows.pop(n)
            for m, p in (sorted(row.items()) if isinstance(row, dict)
                         else enumerate(row[1], row[0])):
                # for width >= 2, a top digit r has |p| > 2**(width*r - 2)
                for r in range(abs(p).bit_length() // width + 2):
                    c = p & mask
                    p >>= width
                    if c >= half:
                        c -= mask + 1
                        p += 1
                    if c:
                        out[(n, m, r)] = c
        return self._wrap(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None  # mutable dict inside; structural equality only

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        shown = ""
        for (n, m, r), c in sorted(self.coeffs.items())[:8]:
            body = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", n), ("z", m), ("y", r)) if e)
            if shown:
                shown += " - " if c < 0 else " + "
            elif c < 0:
                shown = "-"
            shown += (f"{abs(c)}*{body}" if abs(c) != 1 else body) if body \
                else str(abs(c))
        if len(self.coeffs) > 8:
            shown += f" + ... ({len(self.coeffs)} terms)"
        return f"TruncatedSeries(order={self.order}, {shown or '0'})"


def _quotient_width(num_sums: list[int], t_sums: list[int]) -> int:
    """The packing width that holds every coefficient of num / (1 - t),
    given the sums of |coefficient| per x-degree of num and of t (t free
    of x-degree 0): the bit length of a bound, plus one sign bit.

    The quotient's absolute sum at x-degree g is at most Q_g, where
    Q = |num| / (1 - |t|) at x = z = y = 1 (the exact majorant):
    Q_g = N_g + sum over d >= 1 of T_d Q_{g-d}.
    """
    t_terms = [(d, s) for d, s in enumerate(t_sums) if s]
    q_sums: list[int] = []
    for g, n_sum in enumerate(num_sums):
        q_sums.append(n_sum + sum(s * q_sums[g - d]
                                  for d, s in t_terms if d <= g))
    return max(q_sums).bit_length() + 1


def make_monomial(order: int, n: int, m: int, r: int,
                  c: int = 1) -> TruncatedSeries:
    """The series c * x^n z^m y^r, or zero if it exceeds the order."""
    return TruncatedSeries(order, {(n, m, r): c})


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order)


def one(order: int) -> TruncatedSeries:
    return make_monomial(order, 0, 0, 0, 1)
