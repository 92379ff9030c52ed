"""Exception types shared across the package."""


class ReebminError(Exception):
    """Base class for all package-specific errors."""


# --- lattice algebra ---

class RankError(ReebminError):
    """A matrix does not have the rank required by the operation."""


# --- cones ---

class NotStrictlyConvex(ReebminError):
    """The inequality description does not cut out a strictly convex
    full-dimensional cone (it contains a line or has empty interior)."""


class RedundantNormal(ReebminError):
    def __init__(self, index, msg=None):
        self.index = index
        super().__init__(msg or f"normal #{index} is redundant")


class NonPrimitive(ReebminError):
    def __init__(self, index, msg=None):
        self.index = index
        super().__init__(msg or f"normal #{index} is zero or not primitive")


class NotQGorenstein(ReebminError):
    """No integer covector pairs to a common positive value with every normal."""


class NotSimplyConnected(ReebminError):
    pass


class WrongDimension(ReebminError):
    pass


# --- Reeb volume ---

class ReebNotInterior(ReebminError):
    """The Reeb vector is not strictly inside the dual cone."""


class NotGorenstein(ReebminError):
    """Minimization requires height 1 (Gorenstein), got ell > 1."""


class ConvergenceFailure(ReebminError):
    def __init__(self, iterations, msg=None):
        self.iterations = iterations
        super().__init__(msg or f"no convergence after {iterations} iterations")


# --- links ---

class NotHomologySphere(ReebminError):
    pass


class UnsupportedDimension(ReebminError):
    pass


# --- obstructions ---

class NotFano(ReebminError):
    """Degree does not satisfy d < |w|; the orbifold is not Fano."""


# --- explicit metrics ---

class BadParams(ReebminError):
    pass


class DegenerateChartPoint(ReebminError):
    """Chart point too close to a coordinate degeneration."""


# --- CLI ---

class SchemaError(ReebminError):
    """Input payload does not match the command schema."""
