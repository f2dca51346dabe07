"""Exception types shared across the package, and the two checks of a
numeric argument that every module uses.

An argument that counts something (a key count k, a number of replicates,
a truncation order M, a depth bound) goes through ``integer_at_least``: an
int, a numpy integer or a float with an integer value, at least its lower
bound, else ``ValueError("<name> must be >= <low> (an integer), got <value>")``.
An integer of any sign (a Fourier index, or the leaf count of a shape
count, which is 0 below 1) passes low=None, and a non-integer is refused
with "<name> must be an integer".
A real-valued argument (a Poisson mean, a tolerance, an error bound) goes
through ``finite_at_least``: a finite number at least, or when strict above,
its bound, else ``ValueError("<name> must be a finite number >= <low>, got
<value>")``, with ``>`` when strict.  NaN, the infinities and a fractional
count are refused, not passed on to ``range`` or numpy.
"""

import math
from numbers import Integral, Real


def integer_at_least(name, value, low=None):
    """``value`` as an int, when it is an integer (of any numeric type) >= low,
    or of any sign when low is None."""
    if isinstance(value, Integral) or (isinstance(value, float) and value.is_integer()):
        if low is None or value >= low:
            return int(value)
    bound = "an integer" if low is None else f">= {low} (an integer)"
    raise ValueError(f"{name} must be {bound}, got {value!r}")


def finite_at_least(name, value, low, strict=False):
    """``value``, when it is a finite number >= low (> low when strict)."""
    if isinstance(value, Real) and math.isfinite(value) and (value > low if strict else value >= low):
        return value
    raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value!r}")


class TrieFringeError(Exception):
    """Base class for all errors raised by this package."""


class DepthExceeded(TrieFringeError):
    """Two keys agreed on more characters than the configured depth bound.

    Usually signals near-duplicate keys or a too-small ``max_depth``.
    """

    def __init__(self, max_depth, replicate=None):
        self.max_depth = max_depth
        self.replicate = replicate
        msg = f"keys still undistinguished at depth {max_depth}"
        if replicate is not None:
            msg += f" (replicate {replicate})"
        super().__init__(msg)

    def __reduce__(self):
        # rebuilt from its fields, so it crosses from a pool worker whole
        return type(self), (self.max_depth, self.replicate)


class InvalidPath(TrieFringeError):
    """A node path does not address a node of the tree."""


class LimitExceeded(TrieFringeError):
    """Input outside the guarded range of a combinatorial or exact routine."""


class UnaryNode(TrieFringeError):
    """A tree expected to be prefix-compressed contains a node of outdegree 1."""


class EmptyTree(TrieFringeError):
    """Operation undefined on the empty tree."""


class PoleAt(TrieFringeError):
    """Evaluation requested at a pole of the underlying Gamma factor."""

    def __init__(self, s):
        self.s = s
        super().__init__(f"Gamma factor has a pole at s = {s}")


class NonConvergent(TrieFringeError):
    """The requested integral or series does not converge absolutely."""


class Aperiodic(TrieFringeError):
    """Fourier coefficients requested for a source with no oscillation period."""


class DegenerateVariance(TrieFringeError):
    """A statistic requested of a sample with zero variance, such as moment
    diagnostics or a fit weighted by inverse variances."""


class WorkerStopped(TrieFringeError):
    """A process-pool worker stopped before its task was done, for instance
    killed by the system for lack of memory."""


class MissingDependency(TrieFringeError, ImportError):
    """An optional dependency of one routine is not installed."""
