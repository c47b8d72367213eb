"""Exact truncated formal power series in x, w, v, q, and the Chebyshev
polynomials the generating-function sums are built from.

A series is a sparse dict mapping a packed exponent key to an int
coefficient: the series the package solves for count words, so they lie
in Z[[x, w, v, q]].  A non-integer could enter at only three points, and
each refuses it with an explicit raise: construction and a scalar product
(TypeError), and inversion, which needs a constant term of 1 or -1
(NonInvertibleError).  Packing the four exponents into a single integer
keeps multiplication inside dict/int fast paths, and is bit-exact: field
widths are validated against the caps so exponent sums can never carry.
x is the top field, so keys order as the exponent tuples (x, w, v, q) do,
and the product of two monomials is the sum of their keys.

A product takes one of three exact paths.  A block is the x-polynomial
under one (w, v, q) exponent, whose key is the low 36 bits of a packed
key.  A one-term factor shifts and scales the other, term by term.
Otherwise each factor is grouped once into its layout: a dense list of x
coefficients per block, holding only the terms that can reach the x cap.
When both layouts hold two or more blocks, each block is packed into one
int with an s-bit slot per x order, and each pair of blocks inside the
caps is one big-int product (Kronecker substitution).  The slot width s
bounds every coefficient of the product, so no slot can carry into the
next and the path needs no check.  When a layout is at most one block, as
that of every series in x alone is, it meets each block of the other
once, and each coefficient of that block product is one dot product of
two coefficient lists, summed in C.  CPython multiplies big ints by
Karatsuba at best, so one packed product of such a pair costs about what
its dot products do, and packing and decoding would come on top.

Truncation contract: the caps of a series are one validated 4-tuple
(x, w, v, q), the Caps that every kernel function reads.  Every
operation returns caps that are the componentwise minimum of its
operands' caps, and never reports a coefficient beyond them.  Querying
past the caps raises instead of returning a silently wrong zero.

Stored coefficients are always trimmed: each one is a nonzero int and
lies inside its series' caps.  Construction from outside data goes
through _trim, which checks every coefficient, inside the caps or past
them; every operation keeps the invariant.  Addition and subtraction
rely on it: they merge the two stores without walking them again, and
cut an operand only when its caps reach past the result's, by _cut,
which drops the keys past the caps and checks no coefficient again
(MultiSeries.cut and substitute do the same).  So does
from_slices, which copies slices that land on distinct powers of one
variable into one store, with no merge.

Inversion is exact by construction and needs a unit constant term c.  It
is one loop over the layout.  The block of the constant term is a
polynomial A in x of some degree d, and each block of the inverse solves
A * B = R by the coefficient recurrence, one dot product of at most d
terms per x order, where R is 1 for that block and otherwise the sum of
the other blocks of the series times blocks of the inverse already
solved.  Block keys add without carry and every other block's key is
positive, so taking blocks in increasing key order finds each R complete.

cheb_u(j) is the Chebyshev value U_j at t = 1/(2y), y = sqrt(x), rescaled
by y^j into an integer polynomial in x with constant term 1, so every
Chebyshev sum is computed in this one ring (see genfun).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce
from itertools import zip_longest
from operator import mul, or_

from .counting import catalan_number

__all__ = [
    "Caps",
    "MultiSeries",
    "NonInvertibleError",
    "catalan_series",
    "cheb_u",
    "l_family",
    "l_closed",
]


class NonInvertibleError(ArithmeticError):
    """The series has no inverse in the truncated ring.  Every series the
    package inverts has a unit constant term, so this is a fault, not a
    usage error: it is not a ValueError, and the CLI exits 3 on it."""


# Packed key layout (low to high): q:12 | v:12 | w:12 | x:rest.
_FIELD = 0xFFF
_VSHIFT = 12
_WSHIFT = 24
_XSHIFT = 36
_ZERO = 0
# The shift of each variable's field but x's.
_SHIFT = {"w": _WSHIFT, "v": _VSHIFT, "q": 0}
# The low fields of a key, its (w, v, q) exponents: the key of its block.
_BLOCK = (1 << _XSHIFT) - 1

# Caps are bounded so that sums of two in-cap exponents cannot overflow a
# w/v/q field (2 * 2000 < 4096).  The top field cannot overflow; its bound
# refuses a runaway x order before any work.
_MAXCAP = 2000
_MAXX = 1 << 15


class Caps(namedtuple("Caps", "x w v q")):
    """Per-variable truncation orders: one validated 4-tuple (x, w, v, q),
    which every kernel function reads as it is.  A negative cap, or one
    past its packed field's bound, raises ValueError; :meth:`of` copies
    the x order into w and v, and into q unless q is given.  Build caps
    through the constructor: _replace and _make skip its checks."""

    __slots__ = ()

    def __new__(cls, x: int, w: int, v: int, q: int) -> "Caps":
        self = super().__new__(cls, x, w, v, q)
        for name, val, bound in zip(cls._fields, self, (_MAXX, _MAXCAP, _MAXCAP, _MAXCAP)):
            if val < 0:
                raise ValueError(f"cap {name} must be >= 0")
            if val > bound:
                raise ValueError(f"cap {name} = {val} exceeds the packed-field bound {bound}")
        return self

    @classmethod
    def of(cls, x: int, q: int | None = None) -> "Caps":
        return cls(x, x, x, x if q is None else q)

    def meet(self, other: "Caps") -> "Caps":
        return Caps(*map(min, self, other))

    def covers(self, e: tuple[int, int, int, int]) -> bool:
        """Whether the exponents e = (x, w, v, q) lie inside these caps."""
        x, w, v, q = e
        cx, cw, cv, cq = self
        return 0 <= x <= cx and 0 <= w <= cw and 0 <= v <= cv and 0 <= q <= cq


def _pack(ex: int, ew: int, ev: int, eq: int) -> int:
    return (ex << _XSHIFT) | (ew << _WSHIFT) | (ev << _VSHIFT) | eq


def _unpack(key: int) -> tuple[int, int, int, int]:
    return (
        key >> _XSHIFT,
        (key >> _WSHIFT) & _FIELD,
        (key >> _VSHIFT) & _FIELD,
        key & _FIELD,
    )


def _trim(coeffs: dict[int, int], caps: Caps) -> dict[int, int]:
    """Drop monomials beyond the caps and zero coefficients.  Every
    coefficient is checked first, wherever it lies: one that is not an int
    raises TypeError."""
    return _cut({k: _coerce_coeff(c) for k, c in coeffs.items()}, caps)


def _cut(coeffs: dict[int, int], caps: Caps) -> dict[int, int]:
    """_trim for a store that is already trimmed to wider caps: drop the
    monomials beyond these caps, and check no coefficient again."""
    xlim = (caps[0] + 1) << _XSHIFT
    return _fit(((k, c) for k, c in coeffs.items() if k < xlim), caps)


def _fit(items: Iterable[tuple[int, int]], caps: Caps) -> dict[int, int]:
    """_trim for int terms already below the x cap: drop monomials beyond
    the w/v/q caps and zero coefficients."""
    _, wcap, vcap, qcap = caps
    out: dict[int, int] = {}
    for k, c in items:
        if (
            not c
            or (k & _FIELD) > qcap
            or ((k >> _VSHIFT) & _FIELD) > vcap
            or ((k >> _WSHIFT) & _FIELD) > wcap
        ):
            continue
        out[k] = c
    return out


def _merge(a: dict[int, int], b: dict[int, int], sign: int = 1) -> dict[int, int]:
    """a + sign*b.  Zeros are dropped on the keys b touches, so two trimmed
    stores within the same caps merge into a trimmed store."""
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, 0) + (c if sign > 0 else -c)
        if not nc:
            out.pop(k, None)
        else:
            out[k] = nc
    return out


def _mul(a: dict[int, int], b: dict[int, int], caps: Caps) -> dict[int, int]:
    """Truncated product, by one of three exact paths that return the same
    store.

    A one-term factor is a shift and a scale, done by _mul_terms.
    Otherwise each factor is grouped into blocks once, by _dense_blocks,
    keeping only the terms that can reach the x cap.  When both layouts
    hold two or more blocks, _mul_blocks multiplies them block by block as
    packed ints.  Otherwise one layout is at most a single block (a series
    in x alone, such as fine's 300-term kernel, is one block), which meets
    each block of the other once, and _mul_dense computes each coefficient
    of those block products as one dot product in C; the module docstring
    says why that path packs nothing."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        return _mul_terms(a, b, caps)
    xcap = caps[0]
    # A term of one factor reaches the x cap only with the other's lowest x.
    la = _dense_blocks(a, xcap - (min(b) >> _XSHIFT))
    lb = _dense_blocks(b, xcap - (min(a) >> _XSHIFT))
    if len(la) <= 1:
        return _mul_dense(la, lb, caps)
    if len(lb) <= 1:
        return _mul_dense(lb, la, caps)
    return _mul_blocks(la, lb, caps)


def _mul_terms(a: dict[int, int], b: dict[int, int], caps: Caps) -> dict[int, int]:
    """Truncated product of nonempty a and b, len(a) <= len(b), one
    Python step per pair of terms.  Keys sort by x first, so iterating the
    second factor in key order allows an early break once the x cap is
    passed; only the w/v/q caps are left for _fit."""
    bitems = sorted(b.items())
    xlim = (caps[0] + 1) << _XSHIFT
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        kmax = xlim - ka
        for kb, cb in bitems:
            if kb >= kmax:
                break
            kk = ka + kb
            out[kk] = get(kk, 0) + ca * cb
    return _fit(out.items(), caps)


def _mul_dense(
    a: dict[int, tuple[int, list[int]]],
    b: dict[int, tuple[int, list[int]]],
    caps: Caps,
) -> dict[int, int]:
    """Truncated product of the layouts a and b, where a holds at most one
    block.

    a's block meets each block of b once, and each coefficient of that
    block product through the x cap is one dot product of a slice of a's
    list with a slice of the other list reversed, summed in C."""
    if not a:
        return {}
    xcap, wcap, vcap, qcap = caps
    ((ka, (xa, A)),) = a.items()
    la = len(A)
    out: dict[int, int] = {}
    one_x = 1 << _XSHIFT
    for kb, (xb, B) in b.items():
        k = ka + kb
        lo = xa + xb
        if (
            lo > xcap
            or (k & _FIELD) > qcap
            or ((k >> _VSHIFT) & _FIELD) > vcap
            or (k >> _WSHIFT) > wcap
        ):
            continue
        lb = len(B)
        Brev = B[::-1]
        key = k + lo * one_x
        # x^(lo+n) takes A[i] * B[n-i] for max(0, n-lb+1) <= i <= min(n, la-1);
        # B[n-i] is Brev[lb-1-n+i].
        for n in range(min(la + lb - 1, xcap - lo + 1)):
            i0 = n - lb + 1 if n >= lb else 0
            i1 = n + 1 if n < la else la
            j0 = lb - 1 - n + i0
            c = sum(map(mul, A[i0:i1], Brev[j0 : j0 + i1 - i0]))
            if c:
                out[key] = c
            key += one_x
    return out


def _dense_blocks(coeffs: dict[int, int], xmax: int) -> dict[int, tuple[int, list[int]]]:
    """The layout of coeffs: block key -> (start, coefficients) for each
    block, its terms above x order xmax dropped.  Entry i of the list is
    the coefficient of x^(start+i), zero in a gap, and the last entry is
    the block's highest term.  This is the kernel's one walk that groups
    a store into blocks.

    Keys sort by x first, so a block's first key gives its start, and
    blocks are inserted in the order of their first keys: by ascending
    start, and by block key among equal starts."""
    xlim = (xmax + 1) << _XSHIFT
    blocks: dict[int, tuple[int, list[int]]] = {}
    get = blocks.get
    for k in sorted(coeffs):
        if k >= xlim:
            break
        e = get(k & _BLOCK)
        if e is None:
            blocks[k & _BLOCK] = (k >> _XSHIFT, [coeffs[k]])
        else:
            poly = e[1]
            gap = (k >> _XSHIFT) - e[0] - len(poly)
            if gap:
                poly += [0] * gap
            poly.append(coeffs[k])
    return blocks


def _mul_blocks(
    a: dict[int, tuple[int, list[int]]],
    b: dict[int, tuple[int, list[int]]],
    caps: Caps,
) -> dict[int, int]:
    """Truncated product of the layouts a and b by Kronecker substitution:
    each block is packed into one int with an s-bit slot per x order, and
    a pair of blocks is one big-int product (Schönhage 1982; Harvey,
    J. Symbolic Comput. 2009).

    The slot width is proved wide enough, not checked.  A coefficient of
    the product, or any partial sum of the block products that reach it,
    is a sum of at most n = min(terms of a, terms of b) term products,
    where the terms of a layout are its list entries, because a term of
    one factor meets at most one term of the other at a given key.  So it
    is below 2^(s-2) in absolute value for s = bits(max|a|) + bits(max|b|)
    + bits(n) + 2, and a bias of 2^(s-1) makes every slot of every packed
    sum a nonnegative s-bit number.

    Each list is packed by one Horner loop of shifts and adds, which costs
    at most about one product of the block with itself.  Only the slots
    through the x cap are decoded, and they are read by slicing one
    to_bytes string, so the decoding is linear in their number."""
    xcap, wcap, vcap, qcap = caps
    nb = (
        max((max(map(abs, A)) for _, A in a.values()), default=0).bit_length()
        + max((max(map(abs, B)) for _, B in b.values()), default=0).bit_length()
        + min(sum(len(A) for _, A in a.values()), sum(len(B) for _, B in b.values())).bit_length()
        + 9
    ) // 8
    s = 8 * nb
    bias = 1 << (s - 1)
    pad = bias.to_bytes(nb, "little")
    ablocks, bblocks = (
        [(x0, k, _packed(cs, s), x0 + len(cs) - 1) for k, (x0, cs) in layout.items()]
        for layout in (a, b)
    )
    # output block key -> [lowest start, packed sum shifted to that start]
    sums: dict[int, list[int]] = {}
    get = sums.get
    for xa, ka, pa, ea in ablocks:
        # b's blocks ascend by start (see _dense_blocks), so the first start
        # past the x cap ends the row.
        for xb, kb, pb, eb in bblocks:
            lo = xa + xb
            if lo > xcap:
                break
            k = ka + kb
            if (k & _FIELD) > qcap or ((k >> _VSHIFT) & _FIELD) > vcap or (k >> _WSHIFT) > wcap:
                continue
            # Only the product's slots through the x cap are read, so a
            # block that reaches past them is cut to its low m bits.
            m = s * (xcap - lo + 1)
            prod = (pa if ea + xb <= xcap else pa & ((1 << m) - 1)) * (
                pb if eb + xa <= xcap else pb & ((1 << m) - 1)
            )
            acc = get(k)
            if acc is None:
                sums[k] = [lo, prod]
            elif lo >= acc[0]:
                acc[1] += prod << (s * (lo - acc[0]))
            else:
                acc[1] = (acc[1] << (s * (acc[0] - lo))) + prod
                acc[0] = lo
    out: dict[int, int] = {}
    one_x = 1 << _XSHIFT
    for k, (lo, t) in sums.items():
        # Below bit s*(xcap-lo+1), t agrees with a sum of slots each below
        # 2^(s-2) in absolute value.  Either t is that sum, and a nonzero
        # slot m-1 makes it at least s*(m-1) bits long, or t is at least
        # s*(xcap-lo+1) bits long: n slots cover every nonzero one.
        n = min(xcap - lo + 1, t.bit_length() // s + 1)
        data = ((t + int.from_bytes(pad * n, "little")) & ((1 << (n * s)) - 1)).to_bytes(
            n * nb, "little"
        )
        key = k + lo * one_x
        for i in range(0, n * nb, nb):
            c = int.from_bytes(data[i : i + nb], "little") - bias
            if c:
                out[key] = c
            key += one_x
    return out


def _packed(cs: list[int], s: int) -> int:
    """The sum of cs[i] << (s * i), by one Horner loop."""
    p = 0
    for c in reversed(cs):
        p = (p << s) + c
    return p


def _scale(coeffs: dict[int, int], c: int) -> dict[int, int]:
    if not c:
        return {}
    return {k: v * c for k, v in coeffs.items()}


def _invert(coeffs: dict[int, int], caps: Caps) -> dict[int, int]:
    """Invert a series whose constant term c is 1 or -1, through the caps.
    Any other constant term has no inverse over the integers and raises
    NonInvertibleError.

    The inverse is solved block by block on the layout (_dense_blocks).
    Block 0, the block of the constant term, is a polynomial A = a_0 + a_1 x
    + ... + a_d x^d in x alone, with a_0 = c.  Each block B_k of the inverse
    solves A * B_k = R_k, where R_0 = 1 and R_k = -sum D_g * B_(k-g) over the
    other blocks D_g of the series, so its coefficients follow the
    recurrence b_n = c * (r_n - sum_{j=1}^{min(n, d)} a_j b_(n-j)) (Knuth,
    TAOCP vol. 2, 4.7): one dot product in C per x order.  Block keys add
    without carry and every g is positive, so blocks solved in increasing
    key order find their right side complete: each finished block is
    convolved with every D_g, by dot products, into the right side of block
    k + g, and a block past the w/v/q caps or starting past the x cap is
    never formed.  A series of one block is the case with no D_g.  The
    inverse in the truncated ring is unique, so this equals the full
    geometric series term by term."""
    c = coeffs.get(_ZERO, 0)
    if c != 1 and c != -1:
        raise NonInvertibleError(f"constant term {c} is not a unit: expected 1 or -1")
    xcap, wcap, vcap, qcap = caps
    others = _dense_blocks(coeffs, xcap)
    A1 = others.pop(_ZERO)[1][1:]
    # block key -> [lowest start, right side through the x cap], for the
    # blocks formed and not yet solved
    rhs = {_ZERO: [0, [1] + [0] * xcap]}
    out: dict[int, int] = {}
    one_x = 1 << _XSHIFT
    while rhs:
        k = min(rhs)
        lo, R = rhs.pop(k)
        B: list[int] = []
        for r in R[lo:]:
            B.append(c * (r - sum(map(mul, A1, reversed(B)))))
        key = k + lo * one_x
        for b in B:
            if b:
                out[key] = b
            key += one_x
        top = xcap - lo
        Brev = B[::-1]
        # others ascend by start (see _dense_blocks), so the first start
        # past the x cap ends the loop.
        for kg, (xg, G) in others.items():
            if xg > top:
                break
            t = k + kg
            if (t & _FIELD) > qcap or ((t >> _VSHIFT) & _FIELD) > vcap or (t >> _WSHIFT) > wcap:
                continue
            e = rhs.get(t)
            if e is None:
                e = rhs[t] = [lo + xg, [0] * (xcap + 1)]
            elif lo + xg < e[0]:
                e[0] = lo + xg
            R = e[1]
            lg = len(G)
            # x^(xcap+xg-j) takes G[i] * B[top-j-i], which is Brev[j+i].
            for j in range(xg, top + 1):
                R[xcap + xg - j] -= sum(map(mul, G, Brev[j : j + lg]))
    return out


def _coerce_coeff(c) -> int:
    # int subclasses (bool) become plain int; every other type is refused.
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be int, got {type(c).__name__}")


class MultiSeries:
    """Truncated power series in x, w, v, q over the integers."""

    __slots__ = ("coeffs", "caps")

    def __init__(self, coeffs: dict[int, int], caps: Caps, *, _trusted: bool = False):
        if not _trusted:
            coeffs = _trim(coeffs, caps)
        self.coeffs = coeffs
        self.caps = caps

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, caps: Caps) -> "MultiSeries":
        return cls({}, caps, _trusted=True)

    @classmethod
    def one(cls, caps: Caps) -> "MultiSeries":
        return cls.monomial(caps, 1)

    @classmethod
    def monomial(
        cls, caps: Caps, coeff: int = 1, x: int = 0, w: int = 0, v: int = 0, q: int = 0
    ) -> "MultiSeries":
        return cls.from_terms(caps, (((x, w, v, q), coeff),))

    @classmethod
    def from_terms(cls, caps: Caps, terms) -> "MultiSeries":
        # A term past the caps is dropped before it is packed, so no
        # exponent can carry into the next field: an in-cap one fits its
        # field (caps are at most _MAXCAP), and only zero sums are left.
        cx, cw, cv, cq = caps
        coeffs: dict[int, int] = {}
        for (x, w, v, q), c in terms:
            if min(x, w, v, q) < 0:
                raise ValueError("power-series exponents must be >= 0")
            c = _coerce_coeff(c)
            if x <= cx and w <= cw and v <= cv and q <= cq:
                key = _pack(x, w, v, q)
                coeffs[key] = coeffs.get(key, 0) + c
        return cls({k: c for k, c in coeffs.items() if c}, caps, _trusted=True)

    @classmethod
    def from_slices(cls, caps: Caps, var: str, slices: Iterable["MultiSeries"]) -> "MultiSeries":
        """sum_m var^m slices[m] for slices free of var, each at these caps,
        built as one store.

        Each slice lands on its own power of var, so no two share a
        monomial: each term is copied once, and no sum is merged.  A slice
        that carries var would overlap another, so it raises ValueError
        (an explicit raise, so python -O keeps it); so does one at other
        caps.  Slices past the var cap are never read."""
        shift = _SHIFT[_check_var(var)]
        out: dict[int, int] = {}
        for m, s in zip(range(getattr(caps, var) + 1), slices):
            if s.caps != caps:
                raise ValueError(f"slice {var}^{m} has caps {s.caps}, expected {caps}")
            coeffs = s.coeffs
            # The OR of the keys has a nonzero var field iff some key does.
            if (reduce(or_, coeffs, 0) >> shift) & _FIELD:
                raise ValueError(f"slice {var}^{m} carries {var}")
            d = m << shift
            out.update({k + d: c for k, c in coeffs.items()})
        return cls(out, caps, _trusted=True)

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "MultiSeries", sign: int) -> "MultiSeries":
        # Stores are trimmed to their own caps: only an operand whose caps
        # are wider than the result's is cut to them.
        caps = self.caps.meet(other.caps)
        a, b = (s.coeffs if s.caps == caps else _cut(s.coeffs, caps) for s in (self, other))
        return MultiSeries(_merge(a, b, sign), caps, _trusted=True)

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self._plus(other, -1)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(_scale(self.coeffs, -1), self.caps, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, MultiSeries):
            caps = self.caps.meet(other.caps)
            return MultiSeries(_mul(self.coeffs, other.coeffs, caps), caps, _trusted=True)
        return MultiSeries(_scale(self.coeffs, _coerce_coeff(other)), self.caps, _trusted=True)

    __rmul__ = __mul__

    def cut(self, caps: Caps) -> "MultiSeries":
        """This series truncated to its caps met with caps."""
        caps = self.caps.meet(caps)
        return MultiSeries(_cut(self.coeffs, caps), caps, _trusted=True)

    def invert(self) -> "MultiSeries":
        """Multiplicative inverse; requires a constant term of 1 or -1."""
        return MultiSeries(_invert(self.coeffs, self.caps), self.caps, _trusted=True)

    def substitute(self, var: str, s: "MultiSeries") -> "MultiSeries":
        """Replace w, v or q by the series s.

        The composition must be exact under truncation.  Accepted shapes:
        s = 0; every monomial of s carries the substituted variable; s has
        zero constant term and positive x degree throughout; or s has a
        nonzero constant term while every monomial of self carrying var^m
        has x degree >= m (and the var cap does not undercut the x cap).
        Anything else would silently lose coefficients, so it raises.
        """
        shift = _SHIFT[_check_var(var)]
        caps = self.caps.meet(s.caps)
        groups: dict[int, dict[int, int]] = {}
        for k, c in self.coeffs.items():
            m = (k >> shift) & _FIELD
            groups.setdefault(m, {})[k - (m << shift)] = c
        mmax = max(groups, default=0)
        if mmax == 0:
            return MultiSeries(_cut(groups.get(0, {}), caps), caps, _trusted=True)
        # A multiple of var needs no check: its lost orders stay beyond the
        # var cap.
        if s.coeffs and not all((k >> shift) & _FIELD for k in s.coeffs):
            if s.coeffs.get(_ZERO, 0):
                for m, part in groups.items():
                    if m and any(k >> _XSHIFT < m for k in part):
                        raise ValueError(f"substitution into {var} is not x-adically convergent")
            elif min(s.coeffs) < _pack(1, 0, 0, 0):
                raise ValueError(f"substitution into {var} has no exactness certificate")
            var_cap = getattr(self.caps, var)
            if var_cap < caps.x:
                raise ValueError(
                    f"substitution would lose precision: {var} cap {var_cap} < x cap {caps.x}"
                )
        acc = dict(groups.get(0, {}))
        power = {_ZERO: 1}
        for m in range(1, mmax + 1):
            power = _mul(power, s.coeffs, caps)
            if not power:
                break
            part = groups.get(m)
            if part:
                acc = _merge(acc, _mul(part, power, caps))
        return MultiSeries(_cut(acc, caps), caps, _trusted=True)

    def times_x(self, k: int) -> "MultiSeries":
        """x^k times this series, k >= 0: exact through x order caps.x + k,
        so a factor inverted at the x cap lowered by k shifts back to full
        caps."""
        if k < 0:
            raise ValueError("power-series exponents must be >= 0")
        shift = k << _XSHIFT
        c = self.caps
        return MultiSeries(
            {key + shift: val for key, val in self.coeffs.items()},
            Caps(c.x + k, *c[1:]),
            _trusted=True,
        )

    # -- queries ------------------------------------------------------

    def coeff(self, x: int, w: int = 0, v: int = 0, q: int = 0) -> int:
        """Coefficient of x^x w^w v^v q^q; beyond-cap queries raise."""
        if not self.caps.covers((x, w, v, q)):
            raise ValueError(f"exponent {(x, w, v, q)} is beyond the caps {self.caps}")
        return self.coeffs.get(_pack(x, w, v, q), 0)

    def first_difference(self, other: "MultiSeries") -> tuple[int, int, int, int] | None:
        """The least (x, w, v, q) in lexicographic order whose coefficients
        differ within the common caps, or None where the series agree.

        Packed keys order as their exponents do, so both stores are walked
        in place, and no exponent set is built or sorted."""
        caps = self.caps.meet(other.caps)
        first = None
        for mine, theirs in ((self.coeffs, other.coeffs), (other.coeffs, self.coeffs)):
            for k, c in mine.items():
                if c != theirs.get(k, 0) and (first is None or k < first):
                    if caps.covers(_unpack(k)):
                        first = k
        return None if first is None else _unpack(first)

    def terms(self) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """Monomials as ((x, w, v, q), coeff), lexicographic by exponents:
        packed keys order as their exponents do."""
        return ((_unpack(k), c) for k, c in sorted(self.coeffs.items()))

    # -- serialization ------------------------------------------------

    def to_jsonable(self) -> list[dict]:
        # "den" stays in the output format, always "1"
        return [
            {"exponents": list(exps), "num": str(c), "den": "1"} for exps, c in self.terms()
        ]

    # -- dunder misc ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.caps == other.caps and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"MultiSeries({len(self.coeffs)} terms, caps={self.caps})"


def _check_var(var: str) -> str:
    if var not in ("w", "v", "q"):
        raise ValueError(f"cannot substitute into {var!r}: only w, v, q")
    return var


# perfbench/tracer.py looks this name up (SERIES_CLASSES, _series_post), and
# ROADMAP item 6 deletes it with that lookup.  It must stay a distinct empty
# class: an alias of MultiSeries would have the tracer wrap its methods twice.
class LaurentSeries:
    pass


def catalan_series(caps: Caps) -> MultiSeries:
    """The Catalan generating function, truncated at the x cap.

    Coefficients come from the binomial formula; C = 1 + x*C^2 holds up
    to the cap and is property-tested rather than assumed.
    """
    return MultiSeries.from_terms(
        caps, (((n, 0, 0, 0), catalan_number(n)) for n in range(caps.x + 1))
    )


@lru_cache(maxsize=None)
def cheb_u(j: int) -> tuple[int, ...]:
    """The coefficients of u_j = y^j U_j(1/(2y)), y^2 = x, from x^0 up:
    u_j = u_{j-1} - x u_{j-2} from u_{-1} = 0 (the empty tuple) and
    u_0 = 1, filled by a loop, not by recursion in j."""
    if j < -1:
        raise ValueError("Chebyshev index below -1 is never needed")
    if j == -1:
        return ()
    prev, cur = (), (1,)  # u_{-1}, u_0
    for _ in range(j):
        prev, cur = cur, tuple(a - b for a, b in zip_longest(cur, (0, *prev), fillvalue=0))
    return cur


def _cheb_p(j: int, z: str | None, caps: Caps) -> MultiSeries:
    """p_j(z) = u_j - z x u_{j-1} for z "w" or "v", read from cheb_u with no
    series product; u_j when z is None, and p_{-1}(z) = z."""
    terms = [((k, 0, 0, 0), c) for k, c in enumerate(cheb_u(j))]
    if z is not None:
        zw, zv = (1, 0) if _check_var(z) == "w" else (0, 1)
        if j == -1:
            return MultiSeries.monomial(caps, 1, w=zw, v=zv)
        terms += [((k + 1, zw, zv, 0), -c) for k, c in enumerate(cheb_u(j - 1))]
    return MultiSeries.from_terms(caps, terms)


def l_family(j: int, seed: MultiSeries) -> MultiSeries:
    """The iterated map L_j = 1/(1 - x*L_{j-1}) with L_{-1} = seed."""
    if j < -1:
        raise ValueError("l_family is defined for j >= -1")
    caps = seed.caps
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    cur = seed
    for _ in range(j + 1):
        cur = (one - x * cur).invert()
    return cur


def l_closed(j: int, caps: Caps, var: str = "v") -> MultiSeries:
    """Closed form of L_j as the ratio p_j(var) / p_{j+1}(var), where
    p_{j+1} has constant term 1; p_{-1}(var) = var gives L_{-1} = var."""
    if j < -1:
        raise ValueError("l_closed is defined for j >= -1")
    _check_var(var)
    return _cheb_p(j, var, caps) * _cheb_p(j + 1, var, caps).invert()
