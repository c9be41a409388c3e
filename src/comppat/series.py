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

Only inside ``*`` and ``/`` are keys packed into one int,
``n << 2S | m << S | r``, so that multiplying two monomials is one integer
add and a key hashes as a small int (Monagan & Pearce, CASC 2007).  The
field width S is chosen per operation from the operands' exponent bounds,
so no field can carry into the next; results are unpacked on exit.
Division solves ``den * q = num`` degree by degree in x, so a quotient
never needs the full reciprocal of ``den``.

Values are immutable once constructed: every operation returns a fresh
series, so they can be shared freely.
"""

from __future__ import annotations

from typing import Mapping

Triple = tuple[int, int, int]


Packed = dict[int, int]  # packed exponent key -> coefficient


def _convolve_into(acc: Packed, a: Packed, b: Packed) -> None:
    """Add the product of two packed-key term maps into acc.

    Zero sums stay in acc; the caller drops them once, not per product.
    """
    get = acc.get
    b_items = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


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

    Supports ``+``, ``-``, ``*``, ``/`` (series or int operands; the
    divisor needs a unit constant term) and ``**`` with a non-negative
    integer exponent.  Construction checks that exponents and coefficients
    are ints and canonicalizes: zero coefficients and terms beyond the
    truncation order are dropped.
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
        # Every field of a product key is at most the sum of the operands'
        # maxima, and the x field at most the order.
        bound = [ta + tb for ta, tb in zip(self._field_max(),
                                           other._field_max())]
        bound[0] = self.order
        shift = max(bound).bit_length()
        a_slices, b_slices = self._packed(shift), other._packed(shift)
        order = self.order
        acc: Packed = {}
        for da, a in a_slices.items():
            for db, b in b_slices.items():
                if da + db <= order:
                    _convolve_into(acc, a, b)
        return self._unpack({0: acc}, shift)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative int")
        result = one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other) -> "TruncatedSeries":
        """The quotient q with other * q == self in the truncated ring.

        Requires the divisor's constant term to be +1 or -1 and every other
        term to carry a positive x-exponent; under these conditions the
        quotient is again integer-coefficient.  With the signs of both
        operands flipped if need be, so that the divisor is 1 - t with t
        free of x-degree 0, q = self + t * q is solved degree by degree:
        q_deg needs only t times the lower degrees of q.
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
        # By induction on the degree, a quotient term of x-degree g has
        # every other field at most (numerator max) + g * ceil(max of
        # field / x-degree over the divisor's terms), so no key can carry.
        bound = self._field_max()
        bound[0] = order
        for f in (1, 2):
            slope = max((-(-key[f] // key[0]) for key in den.coeffs
                         if key[0]), default=0)
            bound[f] += order * slope
        shift = max(bound).bit_length()
        num, den = (self, den) if c0 == 1 else (-self, -den)
        num_slices, t_slices = num._packed(shift), (1 - den)._packed(shift)
        q_slices: dict[int, Packed] = {}
        for deg in range(order + 1):
            acc = num_slices.pop(deg, {})
            for d, t in t_slices.items():
                q_lower = q_slices.get(deg - d)
                if q_lower:
                    _convolve_into(acc, t, q_lower)
            q = {k: c for k, c in acc.items() if c}
            if q:
                q_slices[deg] = q
        return self._unpack(q_slices, shift)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse within the truncated ring: ``1 / self``."""
        return one(self.order) / self

    # -- substitutions -------------------------------------------------

    def substitute_y0(self) -> "TruncatedSeries":
        """Set y := 0, i.e. keep only the occurrence-free (r = 0) terms."""
        return self._wrap({k: c for k, c in self.coeffs.items() if k[2] == 0})

    def substitute_z1(self) -> "TruncatedSeries":
        """Set z := 1, i.e. forget the number of parts by summing over m."""
        out: dict[Triple, int] = {}
        for (n, _m, r), c in self.coeffs.items():
            key = (n, 0, r)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return self._wrap(out)

    # -- plumbing --------------------------------------------------------

    def _wrap(self, coeffs: dict[Triple, int]) -> "TruncatedSeries":
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.order = self.order
        s.coeffs = coeffs
        return s

    def _field_max(self) -> list[int]:
        """The largest n, m and r exponents over the terms (0 for zero)."""
        if not self.coeffs:
            return [0, 0, 0]
        return [max(field) for field in zip(*self.coeffs)]

    def _packed(self, shift: int) -> dict[int, Packed]:
        """Terms per x-degree, each key packed into one int as
        n << 2*shift | m << shift | r."""
        slices: dict[int, Packed] = {}
        for (n, m, r), c in self.coeffs.items():
            slices.setdefault(n, {})[(n << shift | m) << shift | r] = c
        return slices

    def _unpack(self, slices: dict[int, Packed],
                shift: int) -> "TruncatedSeries":
        """The series of packed term maps, dropping zero coefficients.

        Each map is released as soon as it is read, so the packed and
        the tuple-keyed copies of a large result barely coexist.
        """
        mask = (1 << shift) - 1
        out: dict[Triple, int] = {}
        while slices:
            for k, c in slices.popitem()[1].items():
                if c:
                    out[(k >> shift >> shift, k >> shift & mask,
                         k & mask)] = c
        return self._wrap(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

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
        return f"TruncatedSeries(order={self.order}, {shown})"


def make_monomial(order: int, n: int, m: int, r: int,
                  c: int = 1) -> TruncatedSeries:
    """The series c * x^n z^m y^r, or zero if it exceeds the order."""
    return TruncatedSeries(order, {(n, m, r): c})


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order)


def one(order: int) -> TruncatedSeries:
    return make_monomial(order, 0, 0, 0, 1)
