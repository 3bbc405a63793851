"""Chart invariance: a diffeomorphism of the chart, applied to both sides of a
pair, leaves the branch, the ranks and the obstruction kernel alone.

Rulings, transfer bundles and the obstruction kernel are intrinsic, but the
layers differentiate along chart axes, so composing both immersions with

    phi(x) = (x0 + a x1 + b x1^2, x1, x2 + c x0 x1)

moves every derivative they take.  The settings keep the Jacobian of phi
well conditioned on the manifests' grids.
"""

import pytest

from confpair import gallery
from confpair.extension import extension_obstruction
from confpair.jets import ChartGrid, ImmersionMap, PipelineConfig
from confpair.pair_pipeline import analyze_pair

CFG = PipelineConfig()
SETTINGS = [(0.3, 0.5, 0.4), (0.0, 0.5, 0.4), (-0.8, 1.0, 1.0)]


def bent(imap: ImmersionMap, a: float, b: float, c: float) -> ImmersionMap:
    """`imap` composed with phi on its 3-dimensional chart."""
    def fn(xs):
        x0, x1, x2 = xs
        return imap.fn([x0 + a * x1 + b * x1 * x1, x1, x2 + c * x0 * x1])

    return ImmersionMap(f"{imap.name}-bent", imap.chart_dim, imap.ambient, fn)


def bent_pair_region(name: str, setting):
    """The regions of the manifest's pair after the chart change, and the
    obstruction of the first one."""
    doc = gallery.MANIFESTS[name]
    spec = doc["grid"]
    grid = ChartGrid(tuple(spec["shape"]), tuple(spec["spacing"]), tuple(spec["origin"]))
    left, right = (bent(gallery.build_immersion(doc[side]), *setting).jet(grid)
                   for side in ("left", "right"))
    regions = analyze_pair(left, right, CFG).regions
    return regions, extension_obstruction(regions[0], CFG)


@pytest.mark.parametrize("setting", SETTINGS)
def test_flat_pair_survives_a_chart_change(setting):
    regions, obs = bent_pair_region("flat-pair", setting)
    assert [(st.branch, st.ruling_dim, st.ell) for st in regions] == [("nondegenerate", 2, 0)]
    assert (obs.s, obs.r) == (2, 0)
    assert obs.residuals["rulings_inside_kernel"] <= 1e-12


@pytest.mark.parametrize("setting", SETTINGS)
def test_congruent_pair_survives_a_chart_change(setting):
    regions, obs = bent_pair_region("congruent-pair", setting)
    assert [(st.branch, st.ruling_dim, st.ell) for st in regions] == [("nondegenerate", 3, 1)]
    assert (obs.s, obs.r) == (4, 1)
