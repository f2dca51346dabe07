"""Memoryless string sources and their scalar invariants.

A source is a probability vector p over a finite alphabet {0, .., m-1};
keys are infinite strings with i.i.d. characters drawn from p.  The
quantities computed here drive everything downstream:

    H   = sum_a p_a log(1/p_a)            (entropy)
    J   = sum_a (1-p_a) log(1/(1-p_a))    (coentropy; J = H for m = 2)
    rho(s) = sum_a p_a^s                  (s strings share their first char,
                                           for integer s)
    d_p = generator of the lattice spanned by {log p_a}, or 0 when that
          additive group is dense in R.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_PROB_SUM_TOL = 1e-12
# characters are stored as int8, so the largest character is 127
MAX_ALPHABET = 128
# uniforms per slice of draw_chars: a 512 KiB float64 buffer that stays in cache
_DRAW_SLICE = 1 << 16
# the residual at which a continued-fraction step ends the expansion, and
# the number of steps after which a ratio counts as irrational
_PERIOD_TOLERANCE, _PERIOD_DEPTH = 1e-10, 40


def _rational_from_float(x: float) -> Fraction | None:
    """Detect whether a positive x is rational, by continued-fraction expansion.

    Returns the detected fraction in lowest terms, or None when no expansion
    terminates within _PERIOD_DEPTH steps (x is treated as irrational).  The
    termination test is on the residual of each step, not on closeness of a
    convergent, so high-denominator accidental approximations of irrationals
    are not accepted.
    """
    p_prev, q_prev = 1, 0
    a0 = math.floor(x)
    p, q = a0, 1
    frac = x - a0
    for _ in range(_PERIOD_DEPTH + 1):
        if frac <= _PERIOD_TOLERANCE:
            return Fraction(p, q)
        x_next = 1.0 / frac
        a = math.floor(x_next)
        frac = x_next - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return None


@dataclass(frozen=True)
class SourceDistribution:
    """Character distribution of a memoryless source.

    probs must have length between 2 and MAX_ALPHABET (128), every entry
    strictly inside (0, 1), and sum to 1 within 1e-12.  Instances are
    immutable and safe to share between threads.
    """

    probs: tuple[float, ...]
    _cum_head: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 2:
            raise ValueError(f"alphabet size must be >= 2, got {len(probs)}")
        if len(probs) > MAX_ALPHABET:
            raise ValueError(
                f"alphabet size must be <= {MAX_ALPHABET} (characters are int8), got {len(probs)}"
            )
        for p in probs:
            if not (0.0 < p < 1.0):
                raise ValueError(f"every probability must lie strictly in (0,1), got {p}")
        if abs(sum(probs) - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {_PROB_SUM_TOL}, got {sum(probs)}")
        object.__setattr__(self, "probs", probs)
        # cumulative sums of all but the last mass: the character of u is the
        # number of these thresholds at or below u, which lands in 0..m-1
        object.__setattr__(self, "_cum_head", np.cumsum(np.asarray(probs[:-1])))

    @classmethod
    def uniform(cls, m: int) -> "SourceDistribution":
        return cls(tuple(1.0 / m for _ in range(m)))

    @classmethod
    def parse(cls, spec: str) -> "SourceDistribution":
        """Parse a command-line source spec: '0.5,0.5' or 'uniform:3'."""
        spec = spec.strip()
        if spec.startswith("uniform:"):
            return cls.uniform(int(spec.split(":", 1)[1]))
        return cls(tuple(float(tok) for tok in spec.split(",")))

    @property
    def m(self) -> int:
        """Alphabet size."""
        return len(self.probs)

    def entropy(self) -> float:
        """H = sum_a p_a log(1/p_a)."""
        return -sum(p * math.log(p) for p in self.probs)

    def coentropy(self) -> float:
        """J = sum_a (1-p_a) log(1/(1-p_a)); equals entropy for m = 2."""
        return -sum((1.0 - p) * math.log1p(-p) for p in self.probs)

    def rho(self, s: complex) -> complex:
        """rho(s) = sum_a p_a^s; real and in (0,1) for real s > 1."""
        if isinstance(s, complex):
            return sum(p**s for p in self.probs)
        return float(sum(p**s for p in self.probs))

    def periodicity(self) -> float:
        """Period d_p of the lattice generated by {log p_a}, or 0.

        d_p is the largest d > 0 with every log p_a in d*Z.  Detection runs a
        continued-fraction rationality test on the ratios log p_a / log p_1;
        any ratio that fails to terminate within 40 steps at residual 1e-10
        makes the group dense and the result 0.  Near-lattice cases within
        that residual resolve to the lattice answer.
        """
        lengths = [-math.log(p) for p in self.probs]
        ref = lengths[0]
        ratios = []
        for length in lengths:
            r = _rational_from_float(length / ref)
            if r is None:
                return 0.0
            ratios.append(r)
        lcm_den = math.lcm(*(r.denominator for r in ratios))
        gcd_num = math.gcd(*(r.numerator * (lcm_den // r.denominator) for r in ratios))
        return ref * gcd_num / lcm_den

    def draw_chars(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Vectorized character draw: int8 array of the given shape.

        The character of a uniform u is the number of cumulative thresholds
        c_j <= u, which equals ``searchsorted(c, u, side="right")`` for
        every u, ties included.  The uniforms come slice by slice through
        one reused buffer of _DRAW_SLICE doubles, filled by
        ``rng.random(out=...)``: the same doubles in the same order as one
        ``rng.random(shape)`` call, and the generator ends in the same
        state.  Each slice stays in cache while the first threshold writes
        its 0/1 straight into the int8 result and every further threshold
        adds its hits, m-1 passes in all; no array the size of the draw is
        made besides the result.
        """
        chars = np.empty(shape, np.int8)
        flat = chars.reshape(-1)
        u = np.empty(min(flat.size, _DRAW_SLICE))
        hit = np.empty(u.size, np.bool_)
        first, rest = self._cum_head[0], self._cum_head[1:]
        for at in range(0, flat.size, _DRAW_SLICE):
            part = flat[at : at + _DRAW_SLICE]
            u_part, hit_part = u[: part.size], hit[: part.size]
            rng.random(out=u_part)
            np.greater_equal(u_part, first, out=part.view(np.bool_))
            for c in rest:
                np.greater_equal(u_part, c, out=hit_part)
                part += hit_part.view(np.int8)
        return chars
