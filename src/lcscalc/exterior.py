"""Graded exterior algebra over an ordered basis of degree-1 generators.

Forms are keyed by strictly ascending index tuples with nonzero
coefficients.  A rational form holds integer numerators over one
denominator: `nums` maps each monomial to a nonzero int and `den` is an
int > 0 with gcd(den, content(nums)) = 1.  That pair is unique for a
value: if nums / den = nums' / den' in lowest terms, then
den' * nums = den * nums' forces den | den' and den' | den, so den = den'
and nums = nums'.  Equality is therefore a comparison of the pairs, and
`d`, `wedge`, `+`, `interior` and `form_str` run on ints, reducing each
result by one gcd (`Form.over`).  The map `terms` of Fractions is built
from the pair only when code reads it.  A form with a symbolic
(`ParamScalar`) coefficient has den None, and nums is its `terms` map of
scalars.

Only raw input is sorted and signed, by the `Form` constructor.  An
exterior product of two ascending tuples is signed by merging them
(`merge_sign`), and the sums of `wedge`, `+` and `interior` go straight
into canonical keys.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable

from .errors import BasisMismatch, DegreeMismatch
from .scalar import Scalar, _int_str, needs_parens, scalar_str

MAX_GENERATORS = 16


@dataclass(frozen=True)
class Basis:
    """Ordered generator names; the orientation is their ascending wedge."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not 1 <= len(names) <= MAX_GENERATORS:
            raise ValueError(f"need 1..{MAX_GENERATORS} generators, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for n in names:
            if not n.isidentifier():
                raise ValueError(f"invalid generator name {n!r}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def monomials(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All ascending index tuples of the given degree, in lex order."""
        return _lex(self.dim, degree)

    def monomial_form(self, indices: tuple[int, ...], coeff: Scalar = Fraction(1)) -> "Form":
        return Form(self, len(indices), {tuple(indices): coeff})

    def gen(self, i: int) -> "Form":
        return self.monomial_form((i,))

    def zero(self, degree: int = 0) -> "Form":
        return Form(self, degree, {})

    def one(self, coeff: Scalar = Fraction(1)) -> "Form":
        return Form(self, 0, {(): coeff})

    def volume(self) -> "Form":
        return self.monomial_form(tuple(range(self.dim)))


@cache
def _lex(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(n), degree))


@cache
def mask_index(n: int, degree: int) -> dict[int, int]:
    """Position of each degree-l monomial on n generators in lex order, keyed by its bitmask.

    Bit i of the mask stands for generator i; the keys iterate in lex order.
    """
    return {sum(1 << i for i in idx): j for j, idx in enumerate(_lex(n, degree))}


def _sort_sign(indices: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Ascending reordering and its permutation sign; repeated index gives 0."""
    idx = tuple(indices)
    key = tuple(sorted(idx))
    if len(set(key)) < len(key):
        return key, 0
    if key == idx:
        return key, 1
    odd = sum(x > y for i, x in enumerate(idx) for y in idx[i + 1 :])
    return key, -1 if odd % 2 else 1


def _coerce_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def _common_den(coeffs) -> int | None:
    """The lcm of the denominators of int and Fraction coefficients; None if one is symbolic.

    A ParamScalar has no denominator; `getattr` with a default finds that
    without raising, which matters on the parameter-mode route.
    """
    dens = [getattr(c, "denominator", None) for c in coeffs]
    return None if None in dens else lcm(*dens)


def merge_sign(ia: tuple, ib: tuple) -> tuple[tuple[int, ...], int]:
    """Ascending union of disjoint ascending tuples, and the inversion parity of ia + ib."""
    odd = 0
    for x in ia:  # x stands before the bisect(ib, x) smaller entries of ib
        odd += bisect(ib, x)
    return tuple(sorted(ia + ib)), odd & 1


def add_terms(pairs) -> dict:
    """Sum `(ascending tuple, coefficient)` pairs and drop zeros."""
    out: dict = {}
    for key, c in pairs:
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return {key: c for key, c in out.items() if c}


def _lowest(den: int, nums: dict) -> tuple[int, dict]:
    """nums / den as (den, nums) in lowest terms: den > 0 and gcd(den, content(nums)) = 1."""
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g == 1:
        return den, nums
    return den // g, {key: n // g for key, n in nums.items()}


def _products(a, b):
    """Merged, signed `(key, ca * cb)` pairs of two term lists; overlapping tuples are skipped."""
    for ia, ca in a:
        seen = set(ia)
        for ib, cb in b:
            if seen.isdisjoint(ib):
                key, odd = merge_sign(ia, ib)
                c = ca * cb
                yield key, -c if odd else c


def _contractions(terms, coeffs):
    """Signed `(key, c * v_i)` pairs of i(v) on `(ascending tuple, c)` terms, coeffs v."""
    for idx, c in terms:
        for m, i in enumerate(idx):
            if vi := coeffs[i]:
                yield idx[:m] + idx[m + 1 :], -(c * vi) if m % 2 else c * vi


class Form:
    """Homogeneous exterior form; the zero form matches any degree.

    A rational form is `nums` / `den`: ints keyed by ascending tuples over
    one int den > 0, in lowest terms, so the pair is unique for the value.
    Its `terms`, the map of reduced Fractions, is built when first read.  A
    form with a symbolic coefficient has den None and `nums` is its `terms`
    map.  `terms` is a property over a slot rather than a `__getattr__`
    fallback, which would slow every attribute read of a Form.
    """

    __slots__ = ("basis", "degree", "den", "nums", "_terms")

    def __init__(self, basis: Basis, degree: int, terms: dict | Iterable[tuple], den: int = 1):
        """Canonical terms from raw input: a dict or any `(index tuple, coefficient)` pairs.

        Pairs with a zero coefficient or a repeated index are dropped; the
        others are sorted, signed and summed, dropping zero sums.  Int and
        Fraction coefficients stand for themselves over `den`, a positive
        int, so integer numerators over a common denominator make no
        Fraction; symbolic coefficients take den 1.
        """
        if not 0 <= degree <= basis.dim:
            raise ValueError(f"degree {degree} out of range for dim {basis.dim}")
        pairs = []
        for idx, c in terms.items() if isinstance(terms, dict) else terms:
            if not c:
                continue
            key, sign = _sort_sign(idx)
            if len(key) != degree:
                raise ValueError(f"index tuple {key} has wrong length for degree {degree}")
            if sign:
                pairs.append((key, c if sign > 0 else -c))
        self.basis, self.degree = basis, degree
        m = _common_den(map(itemgetter(1), pairs))
        if m is None:
            self.den = None
            self.nums = self._terms = add_terms([(key, _coerce_coeff(c)) for key, c in pairs])
            return
        nums = add_terms((key, c.numerator * (m // c.denominator)) for key, c in pairs)
        self.den, self.nums = _lowest(den * m, nums)
        self._terms = None

    @classmethod
    def over(cls, basis: Basis, degree: int, den: int, nums: dict) -> "Form":
        """The rational form nums / den: ascending keys, nonzero int numerators, any int den != 0.

        The pair is reduced by one gcd and its sign moved to the numerators.
        """
        form = object.__new__(cls)
        form.basis, form.degree, form._terms = basis, degree, None
        form.den, form.nums = _lowest(den, nums)
        return form

    @classmethod
    def canonical(cls, basis: Basis, degree: int, terms: dict) -> "Form":
        """A Form over terms that are canonical already: ascending tuples, no zeros.

        Reduced Fractions (or ints) over their lcm m are in lowest terms
        already: a prime power dividing m exactly divides some denominator
        exactly, and that term's numerator over m is prime to it.
        """
        form = object.__new__(cls)
        form.basis, form.degree, form._terms = basis, degree, terms
        m = form.den = _common_den(terms.values())
        if m is None:
            form.nums = terms
        else:
            form.nums = {key: c.numerator * (m // c.denominator) for key, c in terms.items()}
        return form

    @property
    def terms(self) -> dict:
        """Coefficients by ascending tuple: a rational form's reduced Fractions, built once."""
        terms = self._terms
        if terms is None:
            den = self.den
            terms = self._terms = {key: Fraction(n, den) for key, n in self.nums.items()}
        return terms

    # predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, indices: tuple[int, ...]):
        """Stored coefficient of an ascending index tuple (0 if absent)."""
        return self.terms.get(tuple(indices), 0)

    def _check_basis(self, other: "Form"):
        if self.basis != other.basis:
            raise BasisMismatch(
                f"forms over different bases: {self.basis.names} vs {other.basis.names}"
            )

    # arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_basis(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot add degree {self.degree} and degree {other.degree}"
            )
        a, b = self.den, other.den
        if a and b:  # both over lcm(a, b)
            m = lcm(a, b)
            sa, sb = m // a, m // b
            out = {i: n * sa for i, n in self.nums.items()} if sa > 1 else dict(self.nums)
            for i, n in other.nums.items():
                v = out.get(i, 0) + n * sb
                if v:
                    out[i] = v
                else:
                    del out[i]
            return Form.over(self.basis, self.degree, m, out)
        terms = add_terms([*self.terms.items(), *other.terms.items()])
        return Form.canonical(self.basis, self.degree, terms)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        negated = {i: -c for i, c in self.nums.items()}
        if self.den:
            return Form.over(self.basis, self.degree, self.den, negated)
        return Form.canonical(self.basis, self.degree, negated)

    def __rmul__(self, c):
        if not c:
            return Form(self.basis, self.degree, {})
        if self.den and isinstance(c, (int, Fraction)):
            p = c.numerator
            return Form.over(
                self.basis, self.degree, self.den * c.denominator,
                {i: p * n for i, n in self.nums.items()},
            )
        c = _coerce_coeff(c)
        # a product of nonzero scalars is nonzero, so the terms stay canonical
        return Form.canonical(self.basis, self.degree, {i: c * v for i, v in self.terms.items()})

    def __mul__(self, c):
        return self.__rmul__(c)

    def wedge(self, other: "Form") -> "Form":
        self._check_basis(other)
        deg = self.degree + other.degree
        if deg > self.basis.dim:
            return Form.over(self.basis, self.basis.dim, 1, {})
        if self.den and other.den:
            nums = add_terms(_products(self.nums.items(), other.nums.items()))
            return Form.over(self.basis, deg, self.den * other.den, nums)
        terms = add_terms(_products(self.terms.items(), other.terms.items()))
        return Form.canonical(self.basis, deg, terms)

    # comparison -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.basis != other.basis:
            return False
        if self.is_zero() and other.is_zero():
            return True
        if self.degree != other.degree:
            return False
        if self.den and other.den:
            return self.den == other.den and self.nums == other.nums
        return self.terms == other.terms

    def __hash__(self):
        # by the Fraction values, which hash like the equal constant ParamScalars
        if self.is_zero():
            return hash((self.basis.names, "zero"))
        return hash((self.basis.names, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Form({form_str(self)!r})"

    def __str__(self):
        return form_str(self)


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


@dataclass(frozen=True)
class VectorField:
    """Invariant vector field: coefficients over the frame dual to the basis."""

    basis: Basis
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(_coerce_coeff(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.basis.dim:
            raise ValueError("coefficient vector length must equal the basis size")

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.basis != other.basis:
            raise BasisMismatch("vector fields over different bases")
        return VectorField(
            self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.basis, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __rmul__(self, c) -> "VectorField":
        c = _coerce_coeff(c)
        return VectorField(self.basis, tuple(c * v for v in self.coeffs))

    def __str__(self):
        terms = [
            f"{scalar_str(c)} X({name})"
            for c, name in zip(self.coeffs, self.basis.names)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def frame_field(basis: Basis, i: int) -> VectorField:
    coeffs = [Fraction(0)] * basis.dim
    coeffs[i] = Fraction(1)
    return VectorField(basis, tuple(coeffs))


def interior(v: VectorField, a: Form) -> Form:
    """Interior product: an antiderivation dropping the degree by one.

    On a monomial e_{i1}^...^e_{il} the m-th slot contributes
    (-1)^(m-1) * v_{i_m} times the monomial with that index removed.
    """
    if v.basis != a.basis:
        raise BasisMismatch("vector field and form over different bases")
    if a.degree == 0:
        return Form.over(a.basis, 0, 1, {})
    m = a.den and _common_den(v.coeffs)
    if m:
        coeffs = [c.numerator * (m // c.denominator) for c in v.coeffs]
        nums = add_terms(_contractions(a.nums.items(), coeffs))
        return Form.over(a.basis, a.degree - 1, a.den * m, nums)
    terms = add_terms(_contractions(a.terms.items(), v.coeffs))
    return Form.canonical(a.basis, a.degree - 1, terms)


def evaluate_one_form(theta: Form, v: VectorField) -> Scalar:
    """Pairing of a 1-form with a vector field in the dual frame."""
    if theta.basis != v.basis:
        raise BasisMismatch("form and vector field over different bases")
    if theta.degree != 1 and not theta.is_zero():
        raise DegreeMismatch("pairing needs a 1-form")
    total = Fraction(0)
    for (i,), c in theta.terms.items():
        total = total + c * v.coeffs[i]
    return total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def form_str(a: Form) -> str:
    """Canonical text: `coeff gen^gen^...` terms in ascending tuple order.

    A rational term n / den prints as `scalar_str` prints the reduced
    Fraction: n and den divided by their gcd, without a denominator of 1.
    """
    if a.is_zero():
        return "0"
    parts, den = [], a.den
    for idx in sorted(a.nums):
        if den:
            n = a.nums[idx]
            g = gcd(n, den)
            c = _int_str(n // g) if g == den else f"{_int_str(n // g)}/{_int_str(den // g)}"
        else:
            c = scalar_str(a.nums[idx])
            if needs_parens(c):
                c = f"({c})"
        mono = "^".join(a.basis.names[i] for i in idx)
        body = f"{c} {mono}" if mono else c
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts)
