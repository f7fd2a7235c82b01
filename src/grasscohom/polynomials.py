"""Exact sparse polynomial arithmetic in the Chern generators c1..ck.

A polynomial is a finite map from exponent tuples to nonzero exact
coefficients (Python ints or Fractions; never floats).  There is one
grading, fixed: the generator ci has *complex* degree i, so a monomial's
degree is sum (i+1) * e_i.  Topological degrees (doubled) appear only at
reporting boundaries, never here.

Monomials are plain tuples of non-negative ints, one entry per generator.
The canonical term order is graded reverse lexicographic on exponent
vectors; `grevlex_key` turns it into a Python sort key (larger key means
larger monomial), which fixes the canonical text rendering used by the
golden-file tests and the table serialization.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

Exponents = tuple  # exponent vector; entry i is the power of c_{i+1}

Coeff = int | Fraction


def grevlex_key(exps: Exponents):
    """Sort key realizing graded reverse lexicographic order.

    ``grevlex_key(a) > grevlex_key(b)`` iff monomial a > monomial b: first
    compare total exponent sums, then the *rightmost* differing exponent
    decides, with the smaller exponent winning.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_quotient(a: Exponents, b: Exponents) -> Exponents:
    """Exponents of a/b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(exps: Exponents) -> int:
    """Degree of a monomial, deg ci = i."""
    return sum((i + 1) * e for i, e in enumerate(exps))


@functools.cache
def monomials_of_degree(nvars: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent tuples of degree `degree`, grevlex-descending.

    These correspond to partitions of `degree` with parts at most `nvars`
    (entry i counts the parts equal to i+1).  Memoized: every ring slice
    asks for the same few (nvars, degree) pairs, and the tuple is shared,
    so no caller can change it for the next.
    """
    out: list[Exponents] = []

    def rec(remaining: int, part: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if part == 0:
            return
        for mult in range(remaining // part, -1, -1):
            acc[part - 1] = mult
            rec(remaining - mult * part, part - 1, acc)
        acc[part - 1] = 0

    if degree < 0:
        return ()
    rec(degree, nvars, [0] * nvars)
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)


class Polynomial:
    """Sparse exact polynomial over int/Fraction coefficients.

    Instances are immutable by convention: `terms` is built once and never
    mutated afterwards, so values may be shared freely across threads.
    Structural equality: two polynomials are equal iff they store the same
    terms (zero coefficients are never stored).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coeff] | None = None):
        self.nvars = nvars
        clean: dict[Exponents, Coeff] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError(
                            f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                        )
                    clean[exps] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, value: Coeff) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def generator(cls, nvars: int, index: int, power: int = 1) -> "Polynomial":
        """The monomial c_{index+1}^power."""
        if not 0 <= index < nvars:
            raise ValueError(f"generator index {index} out of range for {nvars} generators")
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exps: Exponents, coeff: Coeff = 1) -> "Polynomial":
        return cls(len(exps), {tuple(exps): coeff})

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def coefficient(self, exps: Exponents) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def degrees(self) -> set[int]:
        return {mono_degree(e) for e in self.terms}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True iff all terms share one degree (the zero polynomial is
        homogeneous of every degree)."""
        degs = self.degrees()
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == {degree}

    def max_degree(self) -> int:
        """Largest degree of a term; -1 for the zero polynomial."""
        return max(self.degrees(), default=-1)

    # -- arithmetic -----------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"generator count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return Polynomial(self.nvars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) - coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_ring(other)
        terms: dict[Exponents, Coeff] = {}
        # iterate over the shorter operand on the outside
        a, b = (self.terms, other.terms)
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(e, 0) + ca * cb
                if acc:
                    terms[e] = acc
                else:
                    del terms[e]
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, factor: Coeff) -> "Polynomial":
        if not factor:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def mul_monomial(self, exps: Exponents, coeff: Coeff = 1) -> "Polynomial":
        if not coeff:
            return Polynomial.zero(self.nvars)
        return Polynomial(
            self.nvars,
            {mono_mul(e, exps): c * coeff for e, c in self.terms.items()},
        )

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative powers are not defined")
        result = Polynomial.one(self.nvars)
        base = self
        while power:
            if power & 1:
                result = result * base
            base_needed = power >> 1
            if base_needed:
                base = base * base
            power = base_needed
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- grading and substitution --------------------------------------

    def graded_component(self, degree: int) -> "Polynomial":
        """Sum of the terms of degree `degree` (zero if none)."""
        return Polynomial(
            self.nvars,
            {e: c for e, c in self.terms.items() if mono_degree(e) == degree},
        )

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace ci by images[i-1] and expand exactly (see `substitution`)."""
        return substitution(self.nvars, images)(self)

    def evaluate(self, values: Sequence[Coeff]) -> Coeff:
        """Evaluate at exact scalars, one per generator."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total: Coeff = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    # -- rendering and parsing -----------------------------------------

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form: terms in descending grevlex order, e.g.
        ``c1^4 - 3*c1^2*c2 + c2^2``.  Round-trips through `parse_polynomial`.
        """
        if not self.terms:
            return "0"
        if names is None:
            names = [f"c{i + 1}" for i in range(self.nvars)]
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            c = Fraction(coeff)
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.to_text()!r})"


_TERM_RE = re.compile(
    r"""^
    (?P<coeff>\d+(?:/\d+)?)?          # optional magnitude, possibly p/q
    (?:(?<=\d)\*)?                    # '*' only after an explicit coefficient
    (?P<monos>[A-Za-z]\w*(?:\^\d+)?(?:\*[A-Za-z]\w*(?:\^\d+)?)*)?
    $""",
    re.VERBOSE,
)


def parse_polynomial(text: str, nvars: int,
                     names: Sequence[str] | None = None) -> Polynomial:
    """Parse the canonical text form produced by `Polynomial.to_text`."""
    if names is None:
        names = [f"c{i + 1}" for i in range(nvars)]
    index = {name: i for i, name in enumerate(names)}
    src = text.strip()
    if src == "0":
        return Polynomial.zero(nvars)
    # split into signed chunks
    src = src.replace("- ", "-").replace("+ ", "+")
    chunks = src.replace(" ", "").replace("-", "+-").split("+")
    terms: dict[Exponents, Coeff] = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("monos") is None):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coeff: Coeff = 1
        if m.group("coeff"):
            raw = m.group("coeff")
            coeff = Fraction(raw) if "/" in raw else int(raw)
            if isinstance(coeff, Fraction) and coeff.denominator == 1:
                coeff = int(coeff)
        exps = [0] * nvars
        if m.group("monos"):
            for factor in m.group("monos").split("*"):
                if "^" in factor:
                    name, power = factor.split("^")
                    e = int(power)
                else:
                    name, e = factor, 1
                if name not in index:
                    raise ValueError(f"unknown generator {name!r} in {text!r}")
                exps[index[name]] += e
        key = tuple(exps)
        acc = terms.get(key, 0) + sign * coeff
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return Polynomial(nvars, terms)


def substitution(nvars: int, images: Sequence[Polynomial]):
    """The map ci -> images[i-1] on polynomials in `nvars` generators.

    All images must share one generator count (the target ring), and
    images[i-1] must be homogeneous of degree i, so that substitution
    preserves degrees; both are checked once, here.  The returned function
    expands a polynomial exactly and keeps the powers of the images it has
    built, so substituting many polynomials builds each power once.
    """
    if len(images) != nvars:
        raise ValueError(f"expected {nvars} generator images, got {len(images)}")
    if not images:
        # constants in a ring with no generators
        return lambda poly: Polynomial(0, dict(poly.terms))
    target_nvars = images[0].nvars
    for i, img in enumerate(images):
        if img.nvars != target_nvars:
            raise ValueError("generator images live in different rings")
        if not img.is_homogeneous(i + 1):
            raise ValueError(
                f"image of c{i + 1} is not homogeneous of degree {i + 1}: "
                f"{img.to_text()}"
            )
    power_cache: dict[tuple[int, int], Polynomial] = {}

    def power_of(i: int, e: int) -> Polynomial:
        key = (i, e)
        cached = power_cache.get(key)
        if cached is None:
            cached = images[i] ** e
            power_cache[key] = cached
        return cached

    def apply(poly: Polynomial) -> Polynomial:
        if poly.nvars != nvars:
            raise ValueError(f"polynomial has {poly.nvars} generators, "
                             f"the substitution expects {nvars}")
        result = Polynomial.zero(target_nvars)
        for exps, coeff in poly.terms.items():
            term = Polynomial.constant(target_nvars, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power_of(i, e)
            result = result + term
        return result

    return apply


def inverse_series(nvars: int, max_degree: int) -> list[Polynomial]:
    """Graded terms of the formal inverse of 1 + c1 + ... + ck.

    Returns [t0, t1, ..., t_max] with t0 = 1 and, for r >= 1,
    tr = -(c1*t_{r-1} + c2*t_{r-2} + ... + ck*t_{r-k}); each tr is
    homogeneous of degree r.  The linear recursion is equivalent to
    expanding the geometric series and collecting degrees, which the tests
    use as an independent oracle.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    out = [Polynomial.one(nvars)]
    for r in range(1, max_degree + 1):
        acc = Polynomial.zero(nvars)
        for i in range(1, min(nvars, r) + 1):
            exps = [0] * nvars
            exps[i - 1] = 1
            acc = acc + out[r - i].mul_monomial(tuple(exps), -1)
        out.append(acc)
    return out
