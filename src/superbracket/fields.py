"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Every coefficient in the library is either a ``fractions.Fraction`` (over Q)
or a plain ``int`` residue in ``[0, p)`` (over F_p); :class:`Scalar` is the
typed wrapper used at API boundaries and in serialized form.  The hot loops
do not run on ``Fraction``: elimination, ``validate`` and ``check_morphism``
clear denominators once and work on Python ints, in the same code that runs
on the residues of F_p, converting back to ``Fraction`` only for their
results.  Parsed scalars are bounded (:data:`MAX_SCALAR_DIGITS`), and only
moduli whose primality is proven are accepted (:data:`PRIME_BOUND`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Field",
    "Scalar",
    "FieldError",
    "QQ",
    "GF",
    "int_image",
    "PRIME_BOUND",
    "MAX_SCALAR_DIGITS",
]


class FieldError(ValueError):
    """Invalid field specification or cross-field operation."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all of _MR_BASES, the first thirteen primes
# (OEIS A014233): below it the test in _is_prime is a proof of primality, at
# or above it only a probable-prime test, so Field.prime refuses such moduli.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981

# The most digits an integer in a parsed scalar (numerator, denominator or
# residue) may have.  It keeps parsing linear and bounds the size of each
# factor that clearing denominators multiplies together.
MAX_SCALAR_DIGITS = 1000


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the first thirteen primes as bases: deterministic for
    # n < PRIME_BOUND, the only inputs Field.prime passes in.
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field: the rationals, or F_p for a prime p."""

    kind: str  # "rationals" | "prime"
    p: int | None = None

    @staticmethod
    def rationals() -> "Field":
        return Field("rationals")

    @staticmethod
    def prime(p: int) -> "Field":
        if isinstance(p, int) and p >= PRIME_BOUND:
            raise FieldError(
                f"modulus must be below {PRIME_BOUND}, where primality is proven"
            )
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus must be prime, got {p!r}")
        return Field("prime", p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "rationals" else self.p  # type: ignore[return-value]

    # --- raw-value arithmetic -------------------------------------------
    # Raw values are Fraction over Q and int residues over F_p.

    def zero(self):
        return Fraction(0) if self.kind == "rationals" else 0

    def one(self):
        return Fraction(1) if self.kind == "rationals" else 1 % self.p  # type: ignore[operator]

    def from_int(self, n: int):
        """Image of the integer n under the natural map Z -> k."""
        if self.kind == "rationals":
            return Fraction(n)
        return n % self.p  # type: ignore[operator]

    def coerce(self, value):
        """Normalize ints / Fractions / Scalars into a raw field element."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldError(f"scalar of {value.field} used in {self}")
            return value.value
        if isinstance(value, bool):
            raise FieldError("bool is not a field element")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            if self.kind == "rationals":
                return value
            num = value.numerator % self.p  # type: ignore[operator]
            den = value.denominator % self.p  # type: ignore[operator]
            if den == 0:
                raise FieldError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        raise FieldError(f"cannot coerce {value!r} into {self}")

    def add(self, a, b):
        return a + b if self.kind == "rationals" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "rationals" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "rationals" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "rationals" else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.kind == "rationals" else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # --- text form -------------------------------------------------------

    def format(self, raw) -> str:
        """Canonical string: "a/b" in lowest terms with b>0 over Q, decimal
        residue over F_p."""
        if self.kind == "rationals":
            return f"{raw.numerator}/{raw.denominator}"
        return str(raw % self.p)

    def parse(self, text: str):
        if not isinstance(text, str):
            raise FieldError(f"scalar must be a string, got {text!r}")
        parts = text.split("/", 1)
        for part in parts:
            digits = len(part.strip().lstrip("+-"))
            if digits > MAX_SCALAR_DIGITS:
                raise FieldError(
                    f"scalar integer of {digits} digits exceeds the bound of "
                    f"{MAX_SCALAR_DIGITS} digits"
                )
        try:
            if self.kind == "rationals":
                if len(parts) == 2:
                    return Fraction(int(parts[0]), int(parts[1]))
                return Fraction(int(text))
            if len(parts) == 2:
                raise FieldError(f"fraction syntax invalid over F_{self.p}")
            return int(text) % self.p  # type: ignore[operator]
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad scalar {text!r}: {exc}") from None

    def scalar(self, value) -> "Scalar":
        return Scalar(self, self.coerce(value))

    def __str__(self) -> str:
        return "Q" if self.kind == "rationals" else f"F_{self.p}"


QQ = Field.rationals()


def GF(p: int) -> Field:
    return Field.prime(p)


@dataclass(frozen=True)
class Scalar:
    """One exact field element tagged with its field."""

    field: Field
    value: object  # Fraction | int, reduced

    def _other(self, o):
        if isinstance(o, Scalar):
            if o.field != self.field:
                raise FieldError("mixed-field arithmetic")
            return o.value
        return self.field.coerce(o)

    def __add__(self, o):
        return Scalar(self.field, self.field.add(self.value, self._other(o)))

    __radd__ = __add__

    def __sub__(self, o):
        return Scalar(self.field, self.field.sub(self.value, self._other(o)))

    def __rsub__(self, o):
        return Scalar(self.field, self.field.sub(self._other(o), self.value))

    def __mul__(self, o):
        return Scalar(self.field, self.field.mul(self.value, self._other(o)))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return Scalar(self.field, self.field.div(self.value, self._other(o)))

    def __rtruediv__(self, o):
        return Scalar(self.field, self.field.div(self._other(o), self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __eq__(self, o) -> bool:
        if isinstance(o, Scalar):
            return self.field == o.field and self.value == o.value
        if isinstance(o, (int, Fraction)) and not isinstance(o, bool):
            return self.value == self.field.coerce(o)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self) -> bool:
        return bool(self.value)

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __str__(self) -> str:
        return self.field.format(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field}, {self})"


def int_image(n: int, field: Field) -> Scalar:
    """The image [n] of an integer in the field k."""
    return Scalar(field, field.from_int(n))
