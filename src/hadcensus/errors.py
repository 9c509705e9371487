"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


class PmParseError(ValueError):
    """Malformed `.pm` matrix file.  Carries the 1-based offending line."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NoPrimeInRange(Exception):
    """Prime search exhausted its exponent window.

    Attributes carry the searched interval so callers can report it.
    """

    def __init__(self, k, epsilon, m_lo, m_hi):
        super().__init__(
            f"no prime 2^m*{k}-1 for m in {m_lo}..{m_hi} (epsilon={epsilon})"
        )
        self.k = k
        self.epsilon = epsilon
        self.m_lo = m_lo
        self.m_hi = m_hi


class CoverageGap(Exception):
    """A residue class has no covering prime."""

    def __init__(self, residue, period):
        super().__init__(f"no covering prime for m = {residue} (mod {period})")
        self.residue = residue
        self.period = period


class SelfCheckError(ArithmeticError):
    """Two independent routes to the same count disagree."""
