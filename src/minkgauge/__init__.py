"""Gauge asymmetry functionals of convex bodies and their consequences.

The package computes, for a convex body K in R^d and a point x:

* the asymmetry gauge alpha(K, x) together with a witness direction,
* the nested level-set family K^lambda and its algebra,
* the symmetry measure 1 - min alpha and the critical (most symmetric) set,
* independent chord-ratio functionals that must agree with alpha,
* Chebyshev-type polynomial growth and derivative bounds driven by alpha.
"""

from .body import (Ball, Body, BodyError, HPolytope, Product, Sum, SupportOracle,
                   VPolytope, contains, dim, homothety, inscribed_ball, interior_point,
                   sphere_dirs, support, support_many, validate, vertex_candidates)
from .lp import LPResult, LPStatus, NumericalError
from .geometry import (HausdorffResult, WidthResult, central_symm,
                       chord_witness_dir, diameter, far_radius, global_width,
                       hausdorff, max_chord, polygon_vertices, width_dir)
from .gauge import (GaugeResult, LevelSet, SymmetryReport, alpha, alpha_inf,
                    centroid, level_set, t_func, t_many)
from .ratios import (Chord, RatioReport, beta, brute_force_alpha, chord,
                     minkowski_phi, ratio_functionals, rho)
from .cheb import (BernsteinReport, ChebyshevReport, LeadingGrowthReport,
                   SlabPolynomial, bernstein_bound, cheb_T, cheb_T_prime,
                   cheb_growth, extremal_polynomial, leading_growth)
from .shapes import (SchemaError, make_ball, make_box, make_half_disc,
                     make_regular_polygon, make_simplex, make_sobczyk_prism,
                     make_weighted_l2_ball, parse_body, random_polygon,
                     serialize_body)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
