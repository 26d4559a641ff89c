"""Frenet analysis and interpolating variational residuals for Legendre curves.

The model space is the Sasakian space form R^{2n+1}(-3); a configurable
curvature parameter c appears wherever the ambient curvature tensor does.
Submodules, roughly bottom-up:

    jets         truncated Taylor arithmetic used for exact derivatives
    expressions  small expression language for curve coordinates
    model        frame fields, contact structure, connection, curvature
    curves       curve specs, Legendre builders, Frenet apparatus
    families     closed-form curve families with known invariants
    analysis     tension, bitension, residual routes, classification
    discrete     polyline energies, first variation, projected descent
    reporting    deterministic JSON / CSV emission
    cli          command-line front end (imported on use, so that
                 ``python -m contactcurves.cli`` runs it only once)
"""

from . import (
    jets,
    expressions,
    model,
    curves,
    families,
    analysis,
    discrete,
    reporting,
)

__version__ = "0.1.0"

__all__ = [
    "jets",
    "expressions",
    "model",
    "curves",
    "families",
    "analysis",
    "discrete",
    "reporting",
    "cli",
    "__version__",
]
