"""Truncated bivariate Taylor arithmetic of degree d <= 4.

Every closed-form scalar field in this package is written once as an
ordinary formula and evaluated on jet seeds; all coordinate derivatives up
to the seeds' degree then fall out exactly (up to roundoff).  A jet stores
the scaled coefficients

    c[i, j] = d^(i+j) f / (dx^i dy^j) / (i! j!),        i + j <= d,

in an array of shape ``(d + 1, d + 1)`` or ``(d + 1, d + 1, n)`` so that one
jet carries a whole batch of evaluation points in its trailing axis.  The
degree is read from that shape, and entries with ``i + j > d`` are kept at
zero.  Truncated propagation is exact at every order it keeps: the
coefficients of order <= d of a degree-d jet equal, bit for bit, those of
the degree-4 jet of the same formula, since both sum the same terms in the
same order.  A caller that reads derivatives up to order d seeds degree d.

A product of two degree-d jets sums, for each coefficient (i, j) with
i + j <= d, its (i + 1)(j + 1) terms ``a[p, q] * b[i - p, j - q]`` in the
order of p, then q, starting from 0.0; there are T = 1, 5, 14, 35, 70 terms
in all at d = 0..4.  Two kernels form that same sum.  :func:`_mul_looped`
goes one coefficient and one term at a time, about 2T numpy calls, each
term multiplied into one reused buffer and added in place into its
coefficient, so it makes no temporary per term.
:func:`_mul_gathered` takes all T factor pairs from the flattened tables in
one gather each, multiplies them in one call and adds them into a zeroed
accumulator one term rank at a time; the coefficients are ordered by term
count, so the coefficients that have a k-th term are a prefix and each rank
is one in-place add (K = 1, 2, 4, 6, 9 adds at d = 0..4).  Every
coefficient still adds the same terms in the same order from 0.0, so the
two tables are equal bit for bit.  The one exception is a sum of two NaNs
of different sign or payload: which of them it keeps depends on the
operand order of the machine's add, which IEEE 754 leaves open, so such
an entry is NaN in both tables but may differ in sign.

The gathered kernel saves call overhead, but its gathered factors and
their products are three tables of T entries per point.  Once a table
passes about 16,000 entries (128 KiB) the allocator hands it over as fresh
pages on every call, and the page faults cost more than the calls saved, so
``Taylor2.__mul__`` takes the gathered kernel while T times the points is
at most :data:`GATHER_MAX_ENTRIES` (12,288: up to 2,457, 877, 351 and 175
points at d = 1..4) and the loop otherwise.  Time of the gathered kernel
over the looped one, medians of 150 alternating calls (9 at 65,536 points)
in a fresh process per cell, on a 2-vCPU shared host; every cell past
16,000 entries came with 70-3,700 page faults per gathered call, the
others with none:

    points      1    258    512   1024   2048   4096  65536
    d = 1    0.86   0.91   0.89   1.03   0.90   5.44   3.04
    d = 2    0.48   0.58   0.62   0.84   4.09   4.32   3.65
    d = 3    0.25   0.38   1.82   3.33   3.98   4.79   3.50
    d = 4    0.18   0.96   2.24   3.44   4.10   5.25   5.12

Holomorphic building blocks (``Re ln(z - a)``, ``Re z^n``, ...) get a
dedicated constructor that turns complex Taylor coefficients into real
jets, which is both faster and less noisy than composing the equivalent
real formula.
"""

from __future__ import annotations

import math

import numpy as np

DEG = 4  # the highest degree, and the default of the constructors

# per degree d: the (i, j) pairs with i + j <= d, each with the
# (a, b) <= (i, j) splits used by truncated multiplication
_MUL_TERMS = [
    [((i, j), [(a, b) for a in range(i + 1) for b in range(j + 1)])
     for i in range(d + 1) for j in range(d + 1 - i)]
    for d in range(DEG + 1)
]

# products whose gathered factor tables hold at most this many entries
# (terms times points) take the gathered kernel; see the module docstring
GATHER_MAX_ENTRIES = 12288


def _gather_plan(terms, d):
    """Index plan of :func:`_mul_gathered` for the degree-d ``terms``.

    The coefficients are ordered by term count, most first, so the k-th
    terms of all coefficients that have one cover a prefix of them.  Returns
    (left and right flat table indices of every term, rank by rank; per rank
    k, the (coefficient prefix, product block) slices; the flat table index
    of each coefficient).
    """
    coeffs = sorted(terms, key=lambda entry: -len(entry[1]))
    w = d + 1
    left, right, blocks = [], [], []
    for k in range(len(coeffs[0][1])):
        rank = [(ij, split[k]) for ij, split in coeffs if len(split) > k]
        blocks.append((slice(0, len(rank)), slice(len(left), len(left) + len(rank))))
        left += [p * w + q for _, (p, q) in rank]
        right += [(i - p) * w + (j - q) for (i, j), (p, q) in rank]
    return np.array(left), np.array(right), blocks, np.array([i * w + j for (i, j), _ in coeffs])


_GATHER_PLANS = [_gather_plan(terms, d) for d, terms in enumerate(_MUL_TERMS)]


def _mul_looped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product table of the coefficient tables a and b, one
    coefficient and one term at a time (the large-batch kernel)."""
    out = np.zeros_like(a if a.ndim >= b.ndim else b)
    term = np.empty_like(out[0, 0, ...])
    for (i, j), terms in _MUL_TERMS[a.shape[0] - 1]:
        acc = out[i, j, ...]  # a view, so that no term makes a fresh array
        for (p, q) in terms:
            np.add(acc, np.multiply(a[p, q], b[i - p, j - q], out=term), out=acc)
    return out


def _mul_gathered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The table of :func:`_mul_looped`, bit for bit, from one gather of all
    term factors, one multiply and one prefix add per term rank (the
    small-batch kernel)."""
    left, right, blocks, where = _GATHER_PLANS[a.shape[0] - 1]
    w = a.shape[0] * a.shape[1]
    fa = a.reshape((w,) + a.shape[2:])[left]
    fb = b.reshape((w,) + b.shape[2:])[right]
    # the point axes align from the right, as in a[p, q] * b[i - p, j - q]
    if fa.ndim < fb.ndim:
        fa = fa.reshape(fa.shape[:1] + (1,) * (fb.ndim - fa.ndim) + fa.shape[1:])
    elif fb.ndim < fa.ndim:
        fb = fb.reshape(fb.shape[:1] + (1,) * (fa.ndim - fb.ndim) + fb.shape[1:])
    prod = fa * fb
    acc = np.zeros((where.size,) + prod.shape[1:], prod.dtype)
    for into, terms in blocks:
        acc[into] += prod[terms]
    big = a if a.ndim >= b.ndim else b
    out = np.zeros(big.shape, big.dtype)
    out.reshape((w,) + big.shape[2:])[where] = acc
    return out


class Taylor2:
    """Truncated Taylor expansion of a scalar function of two variables."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    # -- seeding -----------------------------------------------------------

    @staticmethod
    def seeds(x0, y0, deg: int = DEG) -> tuple["Taylor2", "Taylor2"]:
        """Degree-``deg`` jets of the coordinate functions at (x0, y0);
        inputs may be arrays."""
        if not 0 <= deg <= DEG:
            raise ValueError(f"jet degree must be in 0..{DEG}, got {deg}")
        x0 = np.asarray(x0, dtype=float)
        y0 = np.asarray(y0, dtype=float)
        shape = (deg + 1, deg + 1) + np.broadcast_shapes(x0.shape, y0.shape)
        cx = np.zeros(shape)
        cy = np.zeros(shape)
        cx[0, 0] = x0
        cy[0, 0] = y0
        if deg:
            cx[1, 0] = 1.0
            cy[0, 1] = 1.0
        return Taylor2(cx), Taylor2(cy)

    @property
    def deg(self) -> int:
        return self.c.shape[0] - 1

    @staticmethod
    def constant(value, like: "Taylor2") -> "Taylor2":
        c = np.zeros_like(like.c)
        c[0, 0] = value
        return Taylor2(c)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor2):
            _same_degree(self, other)
            return Taylor2(self.c + other.c)
        c = self.c.copy()
        c[0, 0] = c[0, 0] + other
        return Taylor2(c)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Taylor2) else -np.asarray(other, float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Taylor2):
            return Taylor2(self.c * other)
        _same_degree(self, other)
        a, b = self.c, other.c
        points = max(a.size, b.size) // a.shape[0] ** 2
        small = _GATHER_PLANS[self.deg][0].size * points <= GATHER_MAX_ENTRIES
        return Taylor2((_mul_gathered if small else _mul_looped)(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor2):
            return self * other._compose(_recip_series(other.c[0, 0], other.deg))
        return Taylor2(self.c / other)

    def __rtruediv__(self, other):
        return self._compose(_recip_series(self.c[0, 0], self.deg)) * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("integer power >= 0 expected; use powf for real exponents")
        out = Taylor2.constant(1.0, self)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- composition with a univariate function -----------------------------

    def _compose(self, series) -> "Taylor2":
        """Plug ``self`` into g given g's scaled derivatives at self's value.

        ``series[k] = g^(k)(u0) / k!`` for k = 0..deg, with u0 = self.c[0, 0].
        """
        d = Taylor2(self.c.copy())
        d.c[0, 0] = 0.0
        out = Taylor2.constant(series[self.deg], self)
        for k in range(self.deg - 1, -1, -1):
            out = out * d
            out.c[0, 0] = out.c[0, 0] + series[k]
        return out


def _same_degree(a: Taylor2, b: Taylor2) -> None:
    # a degree-0 table would broadcast against any other one
    if a.deg != b.deg:
        raise ValueError(f"jets of degrees {a.deg} and {b.deg} do not combine")


def _recip_series(u0, deg):
    g = np.empty((deg + 1,) + np.shape(u0))
    inv = 1.0 / u0
    acc = inv
    for k in range(deg + 1):
        g[k] = acc
        acc = -acc * inv
    return g


def log(u: Taylor2) -> Taylor2:
    u0 = u.c[0, 0]
    g = np.empty((u.deg + 1,) + np.shape(u0))
    g[0] = np.log(u0)
    inv = 1.0 / u0
    acc = inv
    for k in range(1, u.deg + 1):
        g[k] = acc / k if k % 2 else -acc / k
        acc = acc * inv
    # sign pattern: d^k log = (-1)^(k-1) (k-1)!/u^k  ->  g[k] = (-1)^(k-1)/(k u^k)
    return u._compose(g)


def exp(u: Taylor2) -> Taylor2:
    u0 = u.c[0, 0]
    e = np.exp(u0)
    g = np.array([e / math.factorial(k) for k in range(u.deg + 1)])
    return u._compose(g)


def powf(u: Taylor2, p: float) -> Taylor2:
    u0 = u.c[0, 0]
    g = np.empty((u.deg + 1,) + np.shape(u0))
    coeff = 1.0
    for k in range(u.deg + 1):
        g[k] = coeff * u0 ** (p - k)
        coeff *= (p - k) / (k + 1)
    return u._compose(g)


def sqrt(u: Taylor2) -> Taylor2:
    return powf(u, 0.5)


def atan(u: Taylor2) -> Taylor2:
    x = u.c[0, 0]
    q = 1.0 + x * x
    g = [np.arctan(x), 1.0 / q, -x / q**2, (3.0 * x * x - 1.0) / (3.0 * q**3),
         x * (1.0 - x * x) / q**4]
    return u._compose(g[:u.deg + 1])


def sin(u: Taylor2) -> Taylor2:
    u0 = u.c[0, 0]
    s, c = np.sin(u0), np.cos(u0)
    g = [s, c, -s / 2.0, -c / 6.0, s / 24.0]
    return u._compose(g[:u.deg + 1])


def cos(u: Taylor2) -> Taylor2:
    u0 = u.c[0, 0]
    s, c = np.sin(u0), np.cos(u0)
    g = [c, -s, -c / 2.0, s / 6.0, c / 24.0]
    return u._compose(g[:u.deg + 1])


def cosh(u: Taylor2) -> Taylor2:
    return (exp(u) + exp(-u)) * 0.5


def sinh(u: Taylor2) -> Taylor2:
    return (exp(u) - exp(-u)) * 0.5


_BINOM = [[math.comb(k, j) for j in range(k + 1)] for k in range(DEG + 1)]
_I_POW = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j, 1.0 + 0.0j]


def holomorphic_jet(coeffs: np.ndarray, part: str, deg: int = DEG) -> Taylor2:
    """Degree-``deg`` jet of Re f or Im f from complex Taylor coefficients of
    holomorphic f.

    ``coeffs[k] = f^(k)(z0) / k!`` for k = 0..deg (at least), batched along
    trailing axes.  Uses (dx + i dy)^k = sum_j C(k,j) i^j dx^(k-j) dy^j.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros((deg + 1, deg + 1) + coeffs.shape[1:])
    take = np.real if part == "re" else np.imag
    for k in range(deg + 1):
        for j in range(k + 1):
            out[k - j, j] = take(coeffs[k] * (_BINOM[k][j] * _I_POW[j]))
    return Taylor2(out)


def log_z_coeffs(z0: np.ndarray, deg: int = DEG) -> np.ndarray:
    """Complex Taylor coefficients 0..deg of ln z at z0 (principal branch value)."""
    z0 = np.asarray(z0, dtype=complex)
    out = np.empty((deg + 1,) + z0.shape, dtype=complex)
    out[0] = np.log(np.abs(z0)) + 1j * np.arctan2(z0.imag, z0.real)
    if not deg:
        return out
    inv = 1.0 / z0
    acc = inv
    for k in range(1, deg + 1):
        out[k] = acc / k if k % 2 else -acc / k
        acc = acc * inv
    return out


def monomial_coeffs(z0: np.ndarray, n: int, deg: int = DEG) -> np.ndarray:
    """Complex Taylor coefficients 0..deg of z^n at z0."""
    z0 = np.asarray(z0, dtype=complex)
    out = np.zeros((deg + 1,) + z0.shape, dtype=complex)
    for k in range(min(n, deg) + 1):
        out[k] = math.comb(n, k) * z0 ** (n - k)
    return out


def inverse_coeffs(z0: np.ndarray, deg: int = DEG) -> np.ndarray:
    """Complex Taylor coefficients 0..deg of 1/z at z0."""
    z0 = np.asarray(z0, dtype=complex)
    out = np.empty((deg + 1,) + z0.shape, dtype=complex)
    inv = 1.0 / z0
    acc = inv
    for k in range(deg + 1):
        out[k] = acc
        acc = -acc * inv
    return out
