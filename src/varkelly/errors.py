"""Exception types shared across the package."""


class VarKellyError(Exception):
    """Base class for all errors raised by this package."""


class InfiniteMeanError(VarKellyError):
    """The payoff distribution has no finite mean: raised by the Pareto
    constructor for a tail with alpha <= 1."""


class NotFavorableError(VarKellyError):
    """The game has nonpositive edge, so a positive Kelly fraction does not exist."""


class TradeParseError(VarKellyError):
    """One or more rows of a trade CSV could not be parsed.

    ``errors`` is a list of ``(line_number, reason)`` pairs covering every
    malformed row; ``line`` and ``reason`` expose the first of them. The
    message lists the first ``LISTED`` rows and counts the rest, so it
    stays one short line however many rows are malformed.
    """

    LISTED = 10

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {n}: {reason}" for n, reason in self.errors[: self.LISTED])
        if len(self.errors) > self.LISTED:
            lines += f"; and {len(self.errors) - self.LISTED} more"
        super().__init__(f"{len(self.errors)} malformed row(s): {lines}")

    @property
    def line(self):
        return self.errors[0][0]

    @property
    def reason(self):
        return self.errors[0][1]


class EmptyFileError(VarKellyError):
    """The trade file contains no data rows."""


class DegenerateSampleError(VarKellyError):
    """The trade records lack wins or lack losses, so nothing can be estimated."""

