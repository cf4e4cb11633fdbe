"""Error types shared across the library.

Theorem-violating outcomes are first-class errors carrying a witness, so a
falsified check surfaces as data rather than a bare assert.
"""


class NotPrime(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class NotAssociative(ValueError):
    def __init__(self, i, j, k):
        self.witness = (i, j, k)
        super().__init__(f"associativity fails at basis triple {(i, j, k)}")


class NotNilpotent(ValueError):
    pass


class NotAnIdeal(ValueError):
    pass


class NotASubgroup(ValueError):
    pass


class NotNormal(ValueError):
    pass


class VerificationFailed(RuntimeError):
    """A verified mathematical claim failed; carries the stage and a witness."""

    def __init__(self, stage, witness=None):
        self.stage = stage
        self.witness = witness
        super().__init__(f"verification failed at stage {stage!r}: witness={witness!r}")


class NotInvariant(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("conjugation-invariance", witness)


class NotBilinear(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("pairing-bilinear", witness)


class NotLinear(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("pairing-to-matrix-linearity", witness)


class NoLineFound(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("line-selection", witness)


class EmptyExtensionSet(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("extension-set-nonempty", witness)


class MultipleOrbits(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("extension-set-single-orbit", witness)


class WrongStabilizer(VerificationFailed):
    def __init__(self, witness=None):
        super().__init__("extension-stabilizer", witness)


class SearchExhausted(RuntimeError):
    """Exhaustive fallback search found no object with the promised properties."""
