"""Exact scalar fields: arbitrary-precision rationals and prime fields.

Scalars are raw values in one canonical form: a rational is an ``int`` when
it is integral and a reduced ``Fraction`` otherwise, a prime-field element an
``int`` residue in ``range(p)``. ``of`` puts an ``int`` (over Q also a
``Fraction``) in that form and refuses any other type, and every field
operation returns it. All arithmetic is routed through a field object
so matrix code stays field-agnostic. A stored zero is falsy in both fields,
so the matrix kernels skip zeros by truthiness, and a stored one is equal to
the field's ``one``, so they can copy a block scaled by it.

Each field has its own kernel, ``combine(n, terms)``, the n-vector sum of
c * v over the (c, v) terms. Every matrix product, structure-constant
contraction and Gauss-Jordan row operation is one call of it. It sums in
plain integers and normalizes once per output entry: over Q each entry is an
integer numerator over one common denominator until the end, over GF(p) an
unreduced integer until its one ``% p``. So it is the one place where a
canonical rational becomes an integer over a denominator and back: a row is
cleared by D as ``combine(n, [(D, row)])`` and divided back as
``combine(n, [(Fraction(1, D), row)])``. The callers choose D from their
entries' denominators (``algebras._tables``, ``hqft.eval_piece``).
"""

from __future__ import annotations

import math
from fractions import Fraction

# a prime modulus lies below this, so testing it by trial division up to its
# square root takes at most 46,339 divisions
MAX_MODULUS = 2 ** 31


class ScalarParseError(ValueError):
    pass


def _integral_as_int(q):
    """An integral rational (an ``int`` or ``Fraction``) as its ``int``; any
    other rational as it is."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The rationals: an integral value is an ``int``, any other a reduced
    ``fractions.Fraction``."""

    name = "Q"
    zero = 0
    one = 1

    def of(self, x):
        """x, an ``int`` or a ``Fraction``, as a canonical rational: an
        ``int`` when integral, else a reduced ``Fraction``. A value of any
        other type, such as a ``float``, raises TypeError."""
        if type(x) is int:
            return x
        if isinstance(x, (int, Fraction)):     # a bool, or a Fraction
            return _integral_as_int(Fraction(x))
        raise TypeError(f"a rational is an int or a Fraction, not {type(x).__name__}")

    # a sum, difference or product with a Fraction operand may be an
    # integral Fraction; it is returned as its int

    def add(self, a, b):
        return _integral_as_int(a + b)

    def sub(self, a, b):
        return _integral_as_int(a - b)

    def mul(self, a, b):
        return _integral_as_int(a * b)

    def neg(self, a):
        return _integral_as_int(-a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return _integral_as_int(Fraction(a, b))

    def is_zero(self, a) -> bool:
        return a == 0

    def combine(self, n, terms):
        """The n-vector sum of c * v over the (c, v) terms, skipping zero
        coefficients and zero entries. Each entry is an integer numerator
        over one common denominator `den`, which is multiplied up only when
        a term would not be an integer over it; each entry is reduced once
        at the end. With integer input `den` stays 1."""
        out = [0] * n
        den = 1
        for c, v in terms:
            if type(c) is int:
                if not c:
                    continue
                scale = c * den
            else:
                cn, cd = c.as_integer_ratio()
                if not cn:
                    continue
                if den % cd:
                    s = cd // math.gcd(den, cd)
                    out = [y * s for y in out]
                    den *= s
                scale = cn * (den // cd)
            # scale is c * den, an integer
            for k, x in enumerate(v):
                if type(x) is int:
                    if x:
                        out[k] += scale * x
                else:
                    xn, xd = x.as_integer_ratio()
                    if xn:
                        if scale % xd:
                            s = xd // math.gcd(scale, xd)
                            out = [y * s for y in out]
                            den *= s
                            scale *= s
                        out[k] += scale // xd * xn
        if den == 1:
            return tuple(out)
        return tuple([Fraction(y, den) if y % den else y // den for y in out])

    def format(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, s):
        if type(s) is int:
            return s
        if isinstance(s, str):
            try:
                return _integral_as_int(Fraction(s.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarParseError(f"bad rational {s!r}") from exc
        raise ScalarParseError(f"bad rational {s!r}")

    def to_json(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime. Values are ints in ``range(p)``."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} is not below 2**31")
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def of(self, x: int) -> int:
        """x, an ``int``, reduced to its residue in range(p). A value of any
        other type, such as a ``Fraction`` or ``float``, raises TypeError."""
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"an element of F{self.p} is an int, not {type(x).__name__}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F{self.p}")
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def combine(self, n, terms):
        """The n-vector sum of c * v over the (c, v) terms, skipping zero
        coefficients and zero entries, summed in int and reduced mod p once
        per entry."""
        out = [0] * n
        for c, v in terms:
            if c:
                for k, x in enumerate(v):
                    if x:
                        out[k] += c * x
        p = self.p
        return tuple([y % p for y in out])

    def format(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    def parse(self, s) -> int:
        if type(s) is int:
            return s % self.p
        if isinstance(s, str):
            body = s.strip()
            if "mod" in body:
                value, _, modulus = body.partition("mod")
                if modulus.strip() != str(self.p):
                    raise ScalarParseError(f"{s!r} is not in F{self.p}")
                body = value
            try:
                return int(body.strip()) % self.p
            except ValueError as exc:
                raise ScalarParseError(f"bad residue {s!r}") from exc
        raise ScalarParseError(f"bad residue {s!r}")

    def to_json(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_from_json(spec) -> "RationalField | PrimeField":
    """Parse ``"Q"`` or ``{"Fp": p}`` with p a JSON integer (also accepts
    ``"Fp:<p>"`` from the CLI, with p in ASCII digits)."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        modulus = spec["Fp"]
        if type(modulus) is not int:
            raise ScalarParseError(f"bad field spec {spec!r}: modulus is not an integer")
    elif isinstance(spec, str) and spec.startswith("Fp:"):
        modulus = spec[3:]
        if not (modulus.isascii() and modulus.isdigit()):
            raise ScalarParseError(f"bad field spec {spec!r}: modulus is not a decimal integer")
    else:
        raise ScalarParseError(f"unknown field spec {spec!r}")
    try:
        return GF(int(modulus))
    except ValueError as exc:
        raise ScalarParseError(f"bad field spec {spec!r}: {exc}") from exc
