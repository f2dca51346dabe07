"""Exception types shared across the package."""


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


class MissingDependency(TrieFringeError, ImportError):
    """An optional dependency of one routine is not installed."""
