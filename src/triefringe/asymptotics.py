"""Asymptotic constants of additive functionals on random patricia tries.

For the fringe-count toll (indicator of subtrees holding exactly k keys)
everything has closed or rapidly convergent forms.  Writing rho(s) =
sum_a p_a^s and q_k = 1 - rho(k):

    mean profile      f_E(t)  = q_k t^k e^{-t} / k!
    Mellin transform  f_E*(s) = q_k Gamma(k+s) / k!,   f_E*(-1) = q_k/(k(k-1))
    variance profile  f_V*(s) = q_k Gamma(k+s)/k!
                                - (q_k/k!)^2 sum*_a p_a^k Gamma(s+2k) (1+p_a)^(-s-2k)

where sum*_a runs over every finite string once plus every nonempty string
a second time.  ``star_sum`` evaluates sum*_a p_a^k h(p_a) for a vectorized
h with |h| <= bound; the variance constants fold (q_k/k!)^2 Gamma(s+2k) (or
its lam analogue) into h, so their tolerance applies to the constant
itself.  Letters of equal probability form groups, and the strings of one
length are one integer array of compositions over the groups (strings of
equal composition share p_a).  A composition's weight, its number of
strings times p_a^k, is taken in log space: no term overflows, and the
weights of length L sum to rho(k)^L <= 1.  The sum stops at the first
length whose geometric tail bound is below tol, and carries that bound as
the result's error bound.  The stopping length is known up front: when the
compositions up to it exceed a fixed time and memory budget (2^28 array
entries in all, 2^22 in one length) the sum raises LimitExceeded at once.
Gamma factors and factorials enter as log differences, so f_E* is finite
for every k.  f_V* is computed up to k of about 500: past it the bound on
h, or that bound over the tolerance, leaves the float range, and the sum
raises LimitExceeded naming k before it starts (on 0.3,0.7 at the default
tol, from k = 505 for f_V*(-1) and k = 498 for f_V(2k)).

With the source entropy H and the lattice period d_p of {log p_a}, the
limit mean and variance of the functional per key are H^-1 psi_E(log n)
and the sigma^2 expressions below; for d_p = 0 the psi_X collapse to the
constants f_X*(-1), for d_p > 0 they are d_p-periodic Fourier series with
coefficients f_X*(-1 - 2 pi i m / d_p).  psi is built in one place: every
function here that evaluates f_X* at the s_m takes d_p and the s_m from
``_frequencies``, and only ``_psi`` chooses between the constant and the
series, for ``psi_for_k`` and ``sigma_constants`` alike.

The independence-number pipeline computes the essential-node probabilities
alpha_n by recursion (binary symmetric source) and turns their partial
sums into a rigorous enclosure of the limiting essential-node ratio.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Aperiodic, LimitExceeded, MissingDependency, NonConvergent, PoleAt, finite_at_least, integer_at_least
from .source import SourceDistribution
from .trees import _shape_root, shape_probability

# ---------------------------------------------------------------------------
# complex Gamma (Lanczos, g = 7, 9 coefficients; reflection below Re z = 1/2)

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def lanczos_gamma(z: complex) -> complex:
    """Gamma(z) for complex z, accurate to ~1e-13 relative on Re z in [-1, 30]."""
    z = complex(z)
    if _near_nonpositive_integer(z):
        raise PoleAt(z)
    if z.real < 0.5:
        return cmath.pi / (cmath.sin(cmath.pi * z) * lanczos_gamma(1.0 - z))
    return cmath.exp(_log_gamma(z))


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z): finite where Gamma(z) itself overflows.

    The branch is whatever the Lanczos terms give, so only exp() of a sum
    or difference of these logarithms is meaningful.
    """
    z = complex(z)
    if z.real < 0.5:
        return cmath.log(lanczos_gamma(z))
    z -= 1.0
    x = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def _near_nonpositive_integer(z: complex) -> bool:
    return abs(z.imag) < 1e-12 and z.real < 0.5 and abs(z.real - round(z.real)) < 1e-12


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class AsymptoticConstant:
    """A numeric constant plus a rigorous bound on its truncation/quadrature error."""

    value: complex
    error_bound: float

    def __post_init__(self):
        finite_at_least("error_bound", self.error_bound, 0)

    @property
    def real(self) -> float:
        return float(np.real(self.value))


@dataclass(frozen=True)
class FourierSeries:
    """Truncated Fourier series of a real d_p-periodic limit function.

    Stores c_m for 0 <= m <= M; c_{-m} = conj(c_m) is implied.
    """

    period: float
    coeffs: tuple[complex, ...]

    def eval(self, t: float) -> complex:
        total = complex(self.coeffs[0])
        for m in range(1, len(self.coeffs)):
            phase = cmath.exp(2j * cmath.pi * m * t / self.period)
            total += self.coeffs[m] * phase + self.coeffs[m].conjugate() / phase
        return total


def psi_eval(series, t: float) -> float:
    """Evaluate a limit function psi_X at t: a constant, or its Fourier series.

    The result must be real (coefficients of a real function come in
    conjugate pairs); a residual imaginary part above 1e-12 is a bug.
    """
    if isinstance(series, AsymptoticConstant):
        series = series.value
    if isinstance(series, (int, float, complex)):
        value = complex(series)
    else:
        value = series.eval(t)
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ValueError(f"psi evaluation has imaginary residue {value.imag}")
    return value.real


# ---------------------------------------------------------------------------
# mean constants for the k-key fringe count


# stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n) for n <= 15, rounded from 50 digits
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """log n! - log(sqrt(2 pi n) (n/e)^n): a table to 15, the Stirling series past it."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mu: float) -> float:
    """x log(x/mu) + mu - x, by a series in (x-mu)/(x+mu) where its terms cancel."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)
    total, term = (x - mu) * v, 2.0 * x * v
    for j in itertools.count(3, 2):
        term *= v * v
        grown = total + term / j
        if grown == total:
            return total
        total = grown


def fe_lambda(d: SourceDistribution, k: int, lam: float) -> float:
    """Poissonized mean profile of the k-fringe toll: (1-rho(k)) lam^k e^-lam / k!.

    Loader's saddle-point form of the Poisson weight,
    exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k), leaves no large terms
    to cancel: it is finite for every k and keeps full precision where
    k is near lam.  (C. Loader, Fast and Accurate Computation of Binomial
    Probabilities, 2000.)
    """
    k = integer_at_least("k", k, 1)
    if finite_at_least("lam", lam, 0) == 0.0:
        return 0.0
    return (1.0 - d.rho(k)) * math.exp(-_stirlerr(k) - _bd0(k, lam)) / math.sqrt(2.0 * math.pi * k)


def _finite_s(s) -> complex:
    """s as a complex number, when its real and imaginary parts are finite."""
    z = complex(s)
    if not cmath.isfinite(z):
        raise ValueError(f"s must have a finite real and imaginary part, got {s!r}")
    return z


def fe_k_star(d: SourceDistribution, k: int, s: complex):
    """Mellin transform of the k-fringe mean profile: (1-rho(k)) Gamma(k+s) / k!.

    At s = -1 this is (1-rho(k))/(k(k-1)).  Raises PoleAt when k+s hits a
    nonpositive integer.
    """
    k = integer_at_least("k", k, 2)
    z = complex(k) + _finite_s(s)
    if _near_nonpositive_integer(z):
        raise PoleAt(s)
    # Gamma(k+s)/k! as a log difference: either factor alone overflows past k = 170
    value = (1.0 - d.rho(k)) * cmath.exp(_log_gamma(z) - math.lgamma(k + 1))
    if isinstance(s, complex) and s.imag != 0:
        return value
    return value.real


# ---------------------------------------------------------------------------
# the starred string sum sum*_a p_a^k h(p_a)


# budget of the string sum, in composition entries: all lengths (time), one length (memory)
_STAR_SUM_CELLS, _STAR_SUM_LENGTH_CELLS = 1 << 28, 1 << 22


def star_sum(d: SourceDistribution, k: int, h, bound: float, tol: float):
    """sum*_alpha p_alpha^k h(p_alpha): every finite string once, every nonempty string twice.

    h maps an array of string probabilities to an array with |h| <= bound
    on (0,1].  Each length's strings are one array of compositions over the
    groups of equal-probability letters, weighted in log space; lengths run
    to the first L >= 1 with 2 bound rho(k)^L / (1-rho(k)) <= tol, or raise
    LimitExceeded up front past the budget, or when bound (which may be
    inf) or 2 bound / ((1-rho(k)) tol) is not a finite float.  Returns
    (value, tail_bound).
    """
    finite_at_least("tol", tol, 0, strict=True)
    probs, mult = np.unique(d.probs, return_counts=True)
    groups, rho_k = len(probs), d.rho(k)
    excess = 2.0 * bound / ((1.0 - rho_k) * tol)
    if not math.isfinite(excess):
        raise LimitExceeded(f"k = {k}: the bound {bound:.6g} on the string sum's terms over tol {tol:.6g} has left the float range")
    stop = max(1, math.ceil(min(math.log(excess) / -math.log(rho_k), _STAR_SUM_CELLS))) if excess > 0 else 1
    stop += 2.0 * bound * rho_k**stop / (1.0 - rho_k) > tol  # rounding in the logarithms
    cells = math.comb(stop - 1 + groups, groups) * groups  # lengths 0 .. stop-1
    widest = math.comb(stop - 2 + groups, groups - 1) * groups  # length stop-1
    if cells > _STAR_SUM_CELLS or widest > _STAR_SUM_LENGTH_CELLS:
        raise LimitExceeded(
            f"the string sum to length {stop} needs {cells} composition entries, {widest} in one length: "
            f"beyond its budget of {_STAR_SUM_CELLS}, {_STAR_SUM_LENGTH_CELLS} in one length"
        )
    log_p, log_fact = np.log(probs), np.array([math.lgamma(n + 1.0) for n in range(stop)])
    log_w, unit = np.log(mult) + k * log_p, np.eye(groups, dtype=np.int64)
    # column = composition, sorted by first nonzero group j, which starts at column starts[j]
    comps, starts, total = np.zeros((groups, 1), np.int64), [0] * groups, 0.0
    for length in range(stop):
        if length:  # each composition of L is one of L-1 plus a letter of a group <= its first
            grown = [comps[:, a:] + unit[:, j : j + 1] for j, a in enumerate(starts)]
            starts = np.cumsum([0] + [c.shape[1] for c in grown[:-1]])
            comps = np.concatenate(grown, axis=1)
        weight = np.exp(log_fact[length] - log_fact[comps].sum(axis=0) + log_w @ comps)
        total += (2.0 if length else 1.0) * np.sum(weight * h(np.exp(log_p @ comps)))
    return total.item(), 2.0 * bound * rho_k**stop / (1.0 - rho_k)


_LOG_FLOAT_MAX = 709.782712893384  # log of the largest float; math.exp raises past it


def _exp_or_inf(x):
    """e^x, or inf past the float range."""
    return math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf


# ---------------------------------------------------------------------------
# variance constants for the k-key fringe count


def fv_lambda(d: SourceDistribution, k: int, lam: float, tol: float = 1e-12) -> AsymptoticConstant:
    """Poissonized variance profile f_V(lam) of the k-fringe toll.

    f_V(lam) = q_k lam^k e^-lam / k!
               - sum*_a (q_k/k!)^2 lam^(2k) p_a^k e^(-lam(1+p_a)),  q_k = 1-rho(k).
    """
    k = integer_at_least("k", k, 2)
    if finite_at_least("lam", lam, 0) == 0.0:
        return AsymptoticConstant(0.0, 0.0)
    # h(p) = (q_k/k!)^2 lam^(2k) e^(-lam(1+p)), largest as p -> 0
    log_c = 2.0 * (math.log(1.0 - d.rho(k)) - math.lgamma(k + 1) + k * math.log(lam)) - lam

    def h(p):
        return np.exp(log_c - lam * p)

    series, tail = star_sum(d, k, h, _exp_or_inf(log_c), tol)
    return AsymptoticConstant(fe_lambda(d, k, lam) - series, tail)


def fv_k_star(d: SourceDistribution, k: int, s: complex = -1, tol: float = 1e-12) -> AsymptoticConstant:
    """Mellin transform of the k-fringe variance profile, with tail bound.

    f_V*(s) = q_k Gamma(k+s)/k!
              - (q_k/k!)^2 sum*_a p_a^k Gamma(s+2k) (1+p_a)^(-s-2k),

    whose first term is f_E*(s) (``fe_k_star``).

    The primary use is s = -1, where the first term is q_k/(k(k-1)) and the
    Gamma factor of the sum is (2k-2)!.  The convergence strip of the
    transform is Re(s) > -k.
    """
    k = integer_at_least("k", k, 2)
    s = _finite_s(s)
    if s.real <= -k:
        raise NonConvergent(f"f_V* converges for Re(s) > {-k}, got {s}")
    # h(p) = (q_k/k!)^2 Gamma(s+2k) (1+p)^(-s-2k) as a log difference: each
    # factor overflows long before the product does
    log_c = 2.0 * (math.log(1.0 - d.rho(k)) - math.lgamma(k + 1)) + _log_gamma(s + 2 * k)

    def h(p):
        return np.exp(log_c - (s + 2 * k) * np.log1p(p))

    # |h| is largest as p -> 0, since Re(s + 2k) > 0
    series, tail = star_sum(d, k, h, _exp_or_inf(log_c.real), tol)
    value = fe_k_star(d, k, s) - series
    if s.imag == 0:
        value = value.real
    return AsymptoticConstant(value, tail)


# ---------------------------------------------------------------------------
# oscillation Fourier coefficients


def _f_star(d: SourceDistribution, k: int, X: str, s: complex, tol: float = 1e-12) -> complex:
    """f_X*(s) of the k-fringe toll, X in {E, V, C}.  psi_C = psi_E + psi_E'
    multiplies the m-th coefficient of psi_E by 1 + 2 pi i m / d_p = -s_m,
    so f_C*(s) = -s f_E*(s)."""
    if X == "V":
        return complex(fv_k_star(d, k, s, tol).value)
    if X not in ("E", "C"):
        raise ValueError(f"X must be 'E', 'V' or 'C', got {X!r}")
    fe = complex(fe_k_star(d, k, s))
    return -s * fe if X == "C" else fe


def _frequencies(d: SourceDistribution, ms) -> tuple[float, list]:
    """d_p and the frequencies s_m = -1 - 2 pi i m / d_p of psi's
    coefficients, m in ms; (0, [-1]) on an aperiodic source."""
    d_p = d.periodicity()
    return d_p, ([complex(-1.0, -2.0 * math.pi * m / d_p) for m in ms] if d_p > 0 else [-1])


def _psi(d_p: float, values: list):
    """psi from f_X* at ``_frequencies``: the constant values[0] when d_p = 0, else the Fourier series."""
    return FourierSeries(period=d_p, coeffs=tuple(values)) if d_p > 0 else values[0]


def fourier_coefficient(d: SourceDistribution, k: int, X: str, m: int, tol: float = 1e-12) -> complex:
    """m-th Fourier coefficient of psi_X (X in {E, V, C}) for the k-fringe toll:
    f_X*(-1 - 2 pi m i / d_p), for any integer m."""
    d_p, [s] = _frequencies(d, [integer_at_least("m", m)])
    if d_p == 0.0:
        raise Aperiodic("the source has no oscillation period")
    return _f_star(d, k, X, s, tol)


def fc_k_star(d: SourceDistribution, k: int, m: int = 0) -> complex:
    """m-th Fourier coefficient of psi_C = psi_E + psi_E'; the aperiodic
    case (constant psi_E, zero derivative) and the m = 0 coefficient are
    both just f_E*(-1).  m is any integer."""
    _, [s] = _frequencies(d, [integer_at_least("m", m)])
    return _f_star(d, k, "C", s)


def psi_for_k(d: SourceDistribution, k: int, X: str, M: int = 8, tol: float = 1e-12):
    """psi_X (X in {E, V, C}) for the k-fringe toll: a constant when d_p = 0, else a Fourier series."""
    d_p, freqs = _frequencies(d, range(integer_at_least("M", M, 0) + 1))
    return _psi(d_p, [_f_star(d, k, X, s, tol) for s in freqs])


# ---------------------------------------------------------------------------
# limit variances


@dataclass(frozen=True)
class SigmaConstants:
    """Limit variances of the k-fringe count, Poissonized and fixed-n.

    sigma2_hat scales Phi(poissonized)/sqrt(lam), sigma2 scales
    Phi(fixed n)/sqrt(n).  For a periodic source both oscillate; ``at``
    evaluates them at t = log lam respectively t = log n, and the *_mean
    properties give the zero-frequency (average) values.  psi_e, psi_v and
    psi_c are the limit functions of ``psi_for_k``: constants when d_p = 0,
    else Fourier series.  The toll's chi (its value on a one-key tree) is 0
    for k >= 2, so no chi term appears.
    """

    entropy: float
    fv_star: AsymptoticConstant
    fc_star: complex
    psi_e: object
    psi_v: object
    psi_c: object

    def _sigma2(self, psi_v: float, psi_c: float) -> tuple[float, float]:
        """(sigma2_hat, sigma2) from values of psi_V and psi_C."""
        h = self.entropy
        return psi_v / h, psi_v / h - (psi_c / h) ** 2

    def at(self, t: float) -> tuple[float, float]:
        return self._sigma2(psi_eval(self.psi_v, t), psi_eval(self.psi_c, t))

    @property
    def sigma2_hat_mean(self) -> float:
        return self._sigma2(self.fv_star.real, self.fc_star.real)[0]

    @property
    def sigma2_mean(self) -> float:
        return self._sigma2(self.fv_star.real, self.fc_star.real)[1]


def sigma_constants(d: SourceDistribution, k: int, M: int = 8, tol: float = 1e-12) -> SigmaConstants:
    """Limit variance constants for the k-fringe count.

    sigma2_hat = H^-1 f_V*(-1)
    sigma2     = H^-1 f_V*(-1) - H^-2 f_C*(-1)^2

    (the chi^2 and 2 chi H^-1 f_C*(-1) terms of the general toll vanish,
    since chi = 0 for k >= 2), with the psi-based periodic versions
    evaluated by ``at`` when d_p > 0.  f_V* and f_E* are each evaluated
    once per frequency s: fv_star is the zero-frequency term of psi_V,
    fc_star = f_E*(-1) that of psi_E, and psi_C's terms are -s f_E*(s).
    """
    k = integer_at_least("k", k, 2)
    d_p, freqs = _frequencies(d, range(integer_at_least("M", M, 0) + 1))
    fv = [fv_k_star(d, k, s, tol) for s in freqs]
    fe = [complex(fe_k_star(d, k, s)) for s in freqs]
    return SigmaConstants(
        entropy=d.entropy(),
        fv_star=fv[0],
        fc_star=fe[0],
        psi_e=_psi(d_p, fe),
        psi_v=_psi(d_p, [complex(c.value) for c in fv]),
        psi_c=_psi(d_p, [-s * f for s, f in zip(freqs, fe)]),
    )


def link_trie_patricia(mean_p: float, var_p: float, k: int, d: SourceDistribution) -> tuple[float, float]:
    """Map k-fringe mean/variance on patricia tries to the trie built from the same keys.

    Each patricia fringe of size k stands for a geometric number of trie
    fringes (one per merged prefix character, plus itself), whence

        mean_t = mean_p / (1 - rho(k))
        var_t  = rho(k)/(1-rho(k))^2 * mean_p + var_p/(1-rho(k))^2.
    """
    k = integer_at_least("k", k, 2)
    q = 1.0 - d.rho(k)
    return mean_p / q, d.rho(k) / q**2 * mean_p + var_p / q**2


# ---------------------------------------------------------------------------
# fringe-tree distribution limits


def fringe_limit(d: SourceDistribution, k: int) -> float:
    """Limit proportion of fringe trees with k keys: (1-rho(k)) / ((J+H) k (k-1)).

    J is the coentropy; for binary alphabets J = H and the proportion is
    (1-rho(k)) / (2H k(k-1)).
    """
    k = integer_at_least("k", k, 2)
    h, j = d.entropy(), d.coentropy()
    return (1.0 - d.rho(k)) / ((j + h) * k * (k - 1))


def fringe_mass_sum(d: SourceDistribution, kmax: int) -> AsymptoticConstant:
    """sum_{k>=2} (1-rho(k))/(k(k-1)), truncating only the exponentially small part.

    The rho-free part telescopes to exactly 1, so the value is computed as
    1 - sum_{k=2}^{kmax} rho(k)/(k(k-1)) with the remaining rho tail bounded
    by sum_a p_a^(kmax+1)/(1-p_a) / (kmax(kmax+1)).  The result equals the
    coentropy J up to the error bound.
    """
    kmax = integer_at_least("kmax", kmax, 2)
    acc = 0.0
    for k in range(2, kmax + 1):
        r = d.rho(k)
        if r == 0.0:
            break
        acc += r / (k * (k - 1))
    tail = sum(p ** (kmax + 1) / (1.0 - p) for p in d.probs) / (kmax * (kmax + 1))
    return AsymptoticConstant(1.0 - acc, tail)


def shape_limit(d: SourceDistribution, shape) -> float:
    """Per-key limit of the count of fringe trees equal to a fixed shape.

    The k-fringe mean limit splits over shapes proportionally to the exact
    shape law: P(shape) * (1-rho(k)) / (H k(k-1)).
    """
    root = _shape_root(shape)
    k = integer_at_least("k", root.leaf_count, 2)
    return shape_probability(root, d) * (1.0 - d.rho(k)) / (d.entropy() * k * (k - 1))


# ---------------------------------------------------------------------------
# numeric Mellin transform (quadrature oracle)


def mellin_numeric(f, s: complex, decay_zero: float, decay_inf="exp", rel_tol: float = 1e-9) -> AsymptoticConstant:
    """Numeric Mellin transform int_0^inf t^(s-1) f(t) dt by adaptive quadrature.

    The caller declares f's behavior: |f(t)| = O(t^decay_zero) as t -> 0 and
    either exponential decay (decay_inf='exp') or O(t^-decay_inf) at
    infinity.  Raises NonConvergent when those rule out absolute
    convergence.  Integration runs in u = log t, split at t = 1, which
    turns the t^(i Im s) oscillation into a fixed frequency.
    """
    # imported here, not at module level: scipy takes most of the package's
    # import time, only this quadrature oracle needs it, and it is optional
    try:
        from scipy import integrate
    except ImportError as exc:
        raise MissingDependency(
            "mellin_numeric needs scipy, an optional dependency: pip install 'triefringe[oracle]'"
        ) from exc

    s = complex(s)
    if s.real + decay_zero <= 0:
        raise NonConvergent(f"integral diverges at 0: Re(s)={s.real}, decay {decay_zero}")
    if decay_inf != "exp" and float(decay_inf) <= s.real:
        raise NonConvergent(f"integral diverges at infinity: Re(s)={s.real}, decay {decay_inf}")

    def integrand(u):
        # past float range the declared decay makes the integrand vanish
        if abs(u) > 700.0:
            return 0.0j
        # combine the exponents before exponentiating: t^(s-1) alone can
        # overflow where the product with the decaying f is still tiny
        ft = f(math.exp(u))
        if ft == 0.0:
            return 0.0j
        return cmath.exp(s * u + math.log(abs(ft))) * (1.0 if ft > 0 else -1.0)

    def quad_c(a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            re, re_err = integrate.quad(lambda u: integrand(u).real, a, b, epsabs=1e-14, epsrel=rel_tol, limit=400)
            im, im_err = integrate.quad(lambda u: integrand(u).imag, a, b, epsabs=1e-14, epsrel=rel_tol, limit=400)
        return complex(re, im), re_err + im_err

    low, low_err = quad_c(-np.inf, 0.0)
    high, high_err = quad_c(0.0, np.inf)
    return AsymptoticConstant(low + high, low_err + high_err)


# ---------------------------------------------------------------------------
# independence number (binary symmetric source)


def indnum_alphas(N: int) -> np.ndarray:
    """Essential-root probabilities alpha_0..alpha_N for the binary symmetric source.

    alpha_0 = 0, alpha_1 = 1 and, conditioning on the first split of the n
    keys (Binomial(n, 1/2) conditioned on being nondegenerate),

        alpha_n = sum_{k=1}^{n-1} C(n,k)/(2^n - 2) (1-alpha_k)(1-alpha_{n-k}).

    Weights are evaluated in log space so the recursion stays overflow-free
    far past n = 5000.
    """
    N = integer_at_least("N", N, 1)
    lgamma = np.zeros(N + 2)
    lgamma[1:] = np.cumsum(np.log(np.arange(1, N + 2)))  # lgamma[i] = log(i!)
    log2 = math.log(2.0)
    alphas = np.zeros(N + 1)
    alphas[1] = 1.0
    for n in range(2, N + 1):
        ks = np.arange(1, n)
        log_w = lgamma[n] - lgamma[ks] - lgamma[n - ks] - (n * log2 + math.log1p(-(2.0 ** (1 - n))))
        alphas[n] = float(np.sum(np.exp(log_w) * (1.0 - alphas[ks]) * (1.0 - alphas[n - ks])))
    return alphas


def indnum_mean_bounds(N: int, alphas: np.ndarray | None = None) -> tuple[float, float]:
    """Rigorous enclosure of the limit essential-node ratio, binary symmetric source.

    Counting only essential nodes whose fringe holds at most N keys gives

        partial = 1 + sum_{k=2}^N (1-rho(k)) alpha_k / (k(k-1) H)

    and the neglected larger fringes contribute at most 1/(N H); dividing by
    the deterministic 2n - 1 ~ 2n node count yields the interval
    (partial/2, (partial + 1/(N H))/2) of width 1/(2 N H).
    """
    N = integer_at_least("N", N, 2)
    if alphas is None:
        alphas = indnum_alphas(N)
    if len(alphas) < N + 1:
        raise ValueError(f"need alpha_0..alpha_{N}, got {len(alphas)} values")
    d = SourceDistribution((0.5, 0.5))
    ks = np.arange(2, N + 1)
    rho = np.array([d.rho(k) for k in range(2, N + 1)])
    partial = 1.0 + float(np.sum((1.0 - rho) * alphas[2 : N + 1] / (ks * (ks - 1) * d.entropy())))
    return partial / 2.0, (partial + 1.0 / (N * d.entropy())) / 2.0
