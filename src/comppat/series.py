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

The ring's ``+``, ``-``, ``*`` and ``/`` are the plain, unpacked
reference arithmetic that the cross-checks (:mod:`identities` and the
tests) are written in; no production path uses them.  ``*`` adds the
product of every pair of terms up to the order, and ``/`` solves
q = num + t q (den = 1 - t) degree by degree in x, term by term on
each (n, m) cell's y-coefficients; both list their keys in ascending
(n, m, r) order.  The builders' quotients go through
:func:`graded.graded_quotient`, which packs each (n, m) row's
y-polynomial into one int, its value at y = 2**W (Kronecker
substitution in y only; Harvey, JSC 2009), with W from the exact
majorant |num|(x,1,1) / (1 - |t|(x,1,1)) that :func:`_quotient_width`
bounds; :meth:`TruncatedSeries._unrows` reads its rows back as
balanced digits, in [-2**(W-1), 2**(W-1)).

Values are immutable once constructed: every operation returns a fresh
series, so they can be shared freely.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import mul

Triple = tuple[int, int, int]
# n -> the row (lo, [P at m = lo, lo + 1, ...]) of y-polynomials P, each
# packed in one int
Rows = dict[int, tuple[int, list[int]]]


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
        order = self.order
        rhs = sorted(other.coeffs.items())
        out: dict[Triple, int] = {}
        for (n1, m1, r1), c1 in self.coeffs.items():
            for (n2, m2, r2), c2 in rhs:
                if n1 + n2 > order:
                    break
                key = n1 + n2, m1 + m2, r1 + r2
                out[key] = out.get(key, 0) + c1 * c2
        return self._wrap({k: c for k, c in sorted(out.items()) if c})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        """The quotient q with other * q == self in the truncated ring.

        Requires the divisor's constant term to be +1 or -1 and every other
        term to carry a positive x-exponent; under these conditions the
        quotient is again integer-coefficient.  With both operands scaled
        by that unit, so that the divisor is 1 - t with t free of x-degree
        0, q = self + t * q is solved degree by degree: q's row at x^deg
        needs only t times its rows below, each (n, m) cell of a row the
        list of its y-polynomial's nonzero (r, c).
        """
        den = self._coerce(other)
        if den is None:
            return NotImplemented
        c0 = den.constant_term()
        if c0 not in (1, -1):
            raise NonInvertibleError(
                f"constant term {c0} is not a unit (need +1 or -1)")
        for key in den.coeffs:
            if key[0] == 0 and key != (0, 0, 0):
                raise NormalizationError(
                    f"term {key} has x-degree 0; "
                    "normalize the denominator before inverting")
        # x-degree -> m -> the nonzero (r, c) of that y-polynomial, r
        # ascending: the rows of num (then of q) and of t
        rows: dict[int, dict[int, list[tuple[int, int]]]] = {}
        t: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for (n, m, r), c in sorted(self.coeffs.items()):
            rows.setdefault(n, {}).setdefault(m, []).append((r, c0 * c))
        for (n, m, r), c in sorted(den.coeffs.items()):
            if n:
                t.setdefault(n, {}).setdefault(m, []).append((r, -c0 * c))
        out: dict[Triple, int] = {}
        for deg in range(self.order + 1):
            # num's row times 1, then each row of t times q's row below;
            # acc maps m to its y-polynomial's coefficients from r = 0
            pairs = [({0: [(0, 1)]}, rows.get(deg, {}))]
            pairs += [(t_row, rows.get(deg - d, {})) for d, t_row in t.items()]
            acc: dict[int, list[int]] = {}
            for t_row, q_row in pairs:
                for m2, cell in q_row.items():
                    for m1, terms in t_row.items():
                        sums = acc.setdefault(m1 + m2, [])
                        if len(sums) <= (top := terms[-1][0] + cell[-1][0]):
                            sums += [0] * (top + 1 - len(sums))
                        for r1, c1 in terms:
                            for r2, c2 in cell:
                                sums[r1 + r2] += c1 * c2
            rows[deg] = row = {}
            for m in sorted(acc):
                if cell := [(r, c) for r, c in enumerate(acc[m]) if c]:
                    row[m] = cell
                    out.update(((deg, m, r), c) for r, c in cell)
        return self._wrap(out)

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
            for m, p in enumerate(row[1], row[0]):
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
    given the sums of |coefficient| per x-degree 0..order of num and of t
    (t free of x-degree 0): the bit length of a bound, plus one sign bit.

    The quotient's absolute sum at x-degree g is at most Q_g, where
    Q = |num| / (1 - |t|) at x = z = y = 1 (the exact majorant):
    Q_g = N_g + sum over d >= 1 of T_d Q_{g-d}.
    """
    q_sums: list[int] = []
    for g, n_sum in enumerate(num_sums):
        # T_g, ..., T_1 against Q_0, ..., Q_{g-1}
        q_sums.append(n_sum + sum(map(mul, t_sums[g:0:-1], q_sums)))
    return max(q_sums).bit_length() + 1


def make_monomial(order: int, n: int, m: int, r: int,
                  c: int = 1) -> TruncatedSeries:
    """The series c * x^n z^m y^r, or zero if it exceeds the order."""
    return TruncatedSeries(order, {(n, m, r): c})


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order)


def one(order: int) -> TruncatedSeries:
    return make_monomial(order, 0, 0, 0, 1)
