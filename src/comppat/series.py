"""Exact truncated power series in the variables x, z and y.

Every generating function in this package lives in the ring of polynomials
in x, z, y with integer coefficients, truncated by the exponent of a single
designated *grading* variable:

* grading ``X`` keeps terms with x-exponent <= order (composition series,
  where x tracks the sum n, z the number of parts m, y the occurrences r);
* grading ``Z`` keeps terms with z-exponent <= order (word series, where z
  tracks the word length).

Coefficients are Python ints, so all arithmetic is exact.  Series are
stored sparsely as a map from exponent triples ``(n, m, r)`` to nonzero
coefficients; zero is never stored, which makes equality structural.

Values are immutable once constructed: every operation returns a fresh
series, so they can be shared freely.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

Triple = tuple[int, int, int]


def _convolve_into(acc: dict[Triple, int],
                   items_a: Iterable[tuple[Triple, int]],
                   items_b: Iterable[tuple[Triple, int]]) -> None:
    """Add the product of two term lists into acc, dropping zero sums."""
    for (n1, m1, r1), c1 in items_a:
        for (n2, m2, r2), c2 in items_b:
            key = (n1 + n2, m1 + m2, r1 + r2)
            s = acc.get(key, 0) + c1 * c2
            if s:
                acc[key] = s
            else:
                del acc[key]


class Grading(Enum):
    """Which variable's exponent bounds the truncation."""

    X = "x"
    Z = "z"

    @property
    def index(self) -> int:
        """Position of the grading exponent inside an ``(n, m, r)`` key."""
        return 0 if self is Grading.X else 1


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class GradingMismatchError(SeriesError):
    """Operands disagree on grading variable or truncation order."""


class NonInvertibleError(SeriesError):
    """Reciprocal of a series whose constant term is not +1 or -1."""


class NormalizationError(SeriesError):
    """Reciprocal of a series with a non-constant grading-degree-0 term.

    Such denominators (e.g. a stray y-term with no x or z attached) must be
    normalized by the caller before inversion; inverting them would leave
    the fraction-free integer ring.
    """


class OrderRangeError(SeriesError):
    """Coefficient query beyond the truncation order (never silently 0)."""


class TruncatedSeries:
    """An immutable, exactly-truncated integer power series.

    Supports ``+``, ``-``, ``*`` (series or int operands) and ``**`` with a
    non-negative integer exponent.  Construction canonicalizes: zero
    coefficients and terms beyond the truncation order are dropped.
    """

    __slots__ = ("grading", "order", "coeffs")

    def __init__(self, grading: Grading, order: int,
                 coeffs: Mapping[Triple, int] | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        gi = grading.index
        clean: dict[Triple, int] = {}
        if coeffs:
            for key, c in coeffs.items():
                if c == 0 or key[gi] > order:
                    continue
                n, m, r = key
                if n < 0 or m < 0 or r < 0:
                    raise ValueError(f"negative exponent in {key}")
                clean[key] = c
        self.grading = grading
        self.order = order
        self.coeffs = clean

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs.get((0, 0, 0), 0)

    def coefficient(self, n: int, m: int, r: int) -> int:
        """Exact coefficient of x^n z^m y^r.

        Raises OrderRangeError when the grading exponent exceeds the
        truncation order: such a coefficient was discarded, not computed.
        """
        key = (n, m, r)
        if key[self.grading.index] > self.order:
            raise OrderRangeError(
                f"coefficient {key} lies beyond truncation order {self.order}")
        return self.coeffs.get(key, 0)

    # -- ring operations -----------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.grading is not other.grading or self.order != other.order:
            raise GradingMismatchError(
                f"cannot combine series with grading/order "
                f"({self.grading.value},{self.order}) and "
                f"({other.grading.value},{other.order})")

    def _coerce(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return other
        if isinstance(other, int):
            return TruncatedSeries(self.grading, self.order,
                                   {(0, 0, 0): other})
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
        a_by_deg = self._by_degree()
        b_by_deg = other._by_degree()
        out: dict[Triple, int] = {}
        for da, items_a in a_by_deg.items():
            for db, items_b in b_by_deg.items():
                if da + db <= order:
                    _convolve_into(out, items_a, items_b)
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative int")
        result = one(self.grading, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse within the truncated ring.

        Requires constant term +1 or -1 and every other term to carry a
        positive grading exponent; under these conditions the inverse is
        again integer-coefficient.  Solved degree by degree from the
        convolution identity self * result = 1.
        """
        a0 = self.constant_term()
        if a0 not in (1, -1):
            raise NonInvertibleError(
                f"constant term {a0} is not a unit (need +1 or -1)")
        gi = self.grading.index
        a_slices: dict[int, dict[Triple, int]] = {}
        for key, c in self.coeffs.items():
            d = key[gi]
            if d == 0:
                if key != (0, 0, 0):
                    raise NormalizationError(
                        f"term {key} has grading degree 0; "
                        "normalize the denominator before inverting")
                continue
            a_slices.setdefault(d, {})[key] = c
        b_by_deg: dict[int, dict[Triple, int]] = {0: {(0, 0, 0): a0}}
        for deg in range(1, self.order + 1):
            acc: dict[Triple, int] = {}
            for d, a_slice in a_slices.items():
                if d > deg:
                    continue
                b_slice = b_by_deg.get(deg - d)
                if b_slice:
                    _convolve_into(acc, a_slice.items(), b_slice.items())
            if acc:
                # a0 * b_deg + acc = 0 and 1/a0 == a0 for a0 = +-1
                b_by_deg[deg] = {k: -a0 * v for k, v in acc.items()}
        out: dict[Triple, int] = {}
        for b_slice in b_by_deg.values():
            out.update(b_slice)
        return self._wrap(out)

    # -- substitutions -------------------------------------------------

    def substitute_y0(self) -> "TruncatedSeries":
        """Set y := 0, i.e. keep only the occurrence-free (r = 0) terms."""
        return self._wrap({k: c for k, c in self.coeffs.items() if k[2] == 0})

    def substitute_y1(self) -> "TruncatedSeries":
        """Set y := 1, i.e. forget the statistic by summing over r."""
        return self._sum_out(lambda n, m, _r: (n, m, 0))

    def substitute_z1(self) -> "TruncatedSeries":
        """Set z := 1, i.e. forget the number of parts by summing over m.

        Only defined for X-graded series; z is the truncation variable of
        word series, and collapsing it there would sum discarded terms.
        """
        if self.grading is not Grading.X:
            raise GradingMismatchError(
                "substitute_z1 requires an x-graded series")
        return self._sum_out(lambda n, _m, r: (n, 0, r))

    def _sum_out(self, project) -> "TruncatedSeries":
        """Sum the coefficients whose exponents share project(n, m, r)."""
        out: dict[Triple, int] = {}
        for key, c in self.coeffs.items():
            key = project(*key)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return self._wrap(out)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Re-truncate to a smaller (or equal) order."""
        if order > self.order:
            raise OrderRangeError(
                f"cannot extend truncation order {self.order} to {order}")
        return TruncatedSeries(self.grading, order, self.coeffs)

    # -- plumbing --------------------------------------------------------

    def _wrap(self, coeffs: dict[Triple, int]) -> "TruncatedSeries":
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.grading = self.grading
        s.order = self.order
        s.coeffs = coeffs
        return s

    def _by_degree(self) -> dict[int, list[tuple[Triple, int]]]:
        gi = self.grading.index
        buckets: dict[int, list[tuple[Triple, int]]] = {}
        for key, c in self.coeffs.items():
            buckets.setdefault(key[gi], []).append((key, c))
        return buckets

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.grading is other.grading and self.order == other.order
                and self.coeffs == other.coeffs)

    __hash__ = None  # mutable dict inside; structural equality only

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        parts = []
        for (n, m, r), c in sorted(self.coeffs.items())[:8]:
            body = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", n), ("z", m), ("y", r)) if e)
            if body:
                parts.append(f"{c}*{body}" if abs(c) != 1 else
                             (body if c == 1 else f"-{body}"))
            else:
                parts.append(str(c))
        shown = " + ".join(parts) if parts else "0"
        if len(self.coeffs) > 8:
            shown += f" + ... ({len(self.coeffs)} terms)"
        return (f"TruncatedSeries({self.grading.value}, order={self.order}, "
                f"{shown})")


def make_monomial(grading: Grading, order: int, n: int, m: int, r: int,
                  c: int = 1) -> TruncatedSeries:
    """The series c * x^n z^m y^r, or zero if it exceeds the order."""
    return TruncatedSeries(grading, order, {(n, m, r): c})


def zero(grading: Grading, order: int) -> TruncatedSeries:
    return TruncatedSeries(grading, order)


def one(grading: Grading, order: int) -> TruncatedSeries:
    return make_monomial(grading, order, 0, 0, 0, 1)
