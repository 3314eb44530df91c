"""Names every layer shares, with no dependency of their own: the point at
infinity of P^1, and the error classes of numerical and internal faults that
``cli.main`` maps to exit code 3.  The exact layers import them from here, so
an exact verdict loads neither numpy nor the numeric layers that raise most
of them (``numeric``, ``graphcurve``)."""


class _Infinity:
    """The point at infinity on P^1 (a unique sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


def is_inf(z):
    return z is INF


class ConsistencyError(RuntimeError):
    """A cross-check between two routes to the same quantity failed."""


class RootFindingError(RuntimeError):
    """Raised when roots cannot be certified to the requested residual."""


class TrackingError(RuntimeError):
    """A fiber path of the graph-curve monodromy was lost."""


class BasepointError(RuntimeError):
    """No basepoint or loop layout of the graph-curve monodromy was found."""
