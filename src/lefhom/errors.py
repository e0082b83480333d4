"""Exception types shared across the package."""


class LefhomError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedRing(LefhomError):
    """A coefficient ring (or a value in it) outside what the package supports."""


class NonFieldRing(LefhomError):
    """A field was required (rank/kernel/exact-sequence work) but not given."""


class InvalidCellId(LefhomError):
    """Cell ids must be non-empty strings over [A-Za-z0-9_]."""


class DuplicateCellId(LefhomError):
    """Two cells with the same id."""


class UnknownCellReference(LefhomError):
    """A cell id that is not part of the ambient complex."""


class GradingViolation(LefhomError):
    """An incidence between cells whose dimensions do not differ by one."""

    def __init__(self, x: str, y: str, dim_x: int, dim_y: int):
        self.pair = (x, y)
        super().__init__(
            f"kappa({x}, {y}) nonzero but dim {x} = {dim_x}, dim {y} = {dim_y}"
        )


class KappaConditionViolation(LefhomError):
    """The boundary-of-boundary sum is nonzero for some cell pair."""

    def __init__(self, x: str, z: str, total):
        self.pair = (x, z)
        self.total = total
        try:
            shown = str(total)
        except ValueError:  # past str()'s digit limit: the message gives the size only
            shown = f"a {max(abs(total.numerator), total.denominator).bit_length()}-bit number"
        super().__init__(f"kappa condition fails at ({x}, {z}): sum = {shown}")


class NotLocallyClosed(LefhomError):
    """Restriction requested for a set whose mouth is not closed."""


class NotClosed(LefhomError):
    """A closed cell set was required."""


class TooManyClosedSets(LefhomError):
    """Closed-set enumeration exceeded its cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"more than {cap} closed sets; raise the cap to enumerate")


class TooManySimplices(LefhomError):
    """An order complex or a simplicial input exceeded the simplex cap."""

    def __init__(self, cap: int, what: str = "order complex", remedy: str = "raise the cap"):
        # the parts are the args, so the error survives pickling between processes
        super().__init__(cap, what, remedy)
        self.cap = cap

    def __str__(self) -> str:
        cap, what, remedy = self.args
        return f"{what} exceeds {cap} simplices; {remedy}"


class TooManyClosureCells(LefhomError):
    """The closures of a complex's cells hold more cells in all than the cap."""

    def __init__(self, total: int, cap: int):
        super().__init__(total, cap)
        self.total, self.cap = total, cap

    def __str__(self) -> str:
        total, cap = self.args
        return f"the closures of the cells hold {total} cells in all, over the cap of {cap}"


class UsageError(LefhomError):
    """A command-line value or input file that a command cannot use."""


class LefSyntaxError(LefhomError):
    """A malformed line in one of the text input formats."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyInput(LefhomError):
    """An importer was given nothing to import."""


class DimensionMismatch(LefhomError):
    """Cubes of different embedding dimensions in one cubical set."""


class MalformedInterval(LefhomError):
    """A cubical interval that is not [k] or [k, k+1]."""
