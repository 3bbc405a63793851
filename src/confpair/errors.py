"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for computational-geometry failures."""


class NotImmersion(GeometryError):
    """Differential drops rank below the chart dimension somewhere."""


class NotConformal(GeometryError):
    """Two metrics are not pointwise proportional at the working tolerance."""


class NotIsometricPair(GeometryError):
    """Two immersions of the same chart induce different metrics."""


class DegenerateSubspace(GeometryError):
    """Orthogonal projection requested onto a subspace with nonzero radical."""


class FrameAlignmentFailure(GeometryError):
    """A frame fit failed: a fiber of the wrong rank, a singular fiber, a polar
    fit that lost rank, or an eigenvalue below the alignment floor."""


class NotConformallyRuled(GeometryError):
    """Leaves of the candidate distribution are not umbilic in the ambient."""


class OnExceptionalRay(GeometryError):
    """Cone projection undefined: pairing with the null generator vanishes."""


class RankJump(GeometryError):
    """A constructed subbundle changes rank inside a supposedly constant-rank region."""


class SplitFailure(GeometryError):
    """The joint radical is not a graph over the shared part of the span."""


class HypothesisOutOfRange(GeometryError):
    """Dimension/codimension hypotheses of a criterion are violated."""


class NotImmersionAtRadius(GeometryError):
    """Ruled extension stays rank-deficient after all radius shrinks."""


class NoIntersection(GeometryError):
    """Level-set scan found no root for the requested branch on some line."""


class NotTransversal(GeometryError):
    """Level set touched with vanishing gradient; slice is not transversal."""


class UnsupportedDegeneracy(GeometryError):
    """Degenerate pair whose witness is not a right-factor null field."""


class ManifestError(Exception):
    """Manifest validation failure; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
