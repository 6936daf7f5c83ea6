"""skewlab: a numerical laboratory for accessibility of conservative skew
products over linear Anosov torus automorphisms.

Core pipeline: build a hyperbolic base and an area-preserving fiber family,
certify partial hyperbolicity on grids, compute certified stable/unstable
fiber holonomies, compose them into loop maps around heteroclinic
quadrilaterals, classify center accessibility classes (point / curve / open),
destroy trivial classes with compactly supported conservative bump
translations, and probe the resulting dynamics with Birkhoff-average
statistics.  An exact rational module handles the bounded-variation and
monotone fixed-point analysis underpinning the translation-pair selection.
"""

__version__ = "0.1.0"

from .accessibility import (ClassSample, Classification, LoopMap, classify_class,
                            explore_class, explore_classes, find_fixed_points,
                            loop_map, trivial_set_scan)
from .anosov import (HeteroclinicQuad, LeafSegment, LinearAnosov, bracket,
                     build_quad, find_periodic_near, leaf, make_anosov,
                     validate_quad)
from .config import ExperimentConfig, build_skew_product
from .ergodic import ErgodicReport, birkhoff, ergodic_scan, shadow_check
from .errors import (AmbiguousBranch, BrokenPath, BumpEscape, ConfigError,
                     ConstructionFailed, NoConvergence, NotAnosov, NotFound,
                     OverlapError, PostconditionFailure, RegularValueFailure,
                     SearchExhausted, ShadowFailure, SkewLabError)
from .fiber import (ConstantFamily, IdentityMap, LewowiczFamily, PHEstimates,
                    RotationFamily, ScalarField, SkewProduct, VectorField,
                    certify_partial_hyperbolicity, cocycle, lewowicz_fixed_point_type)
from .holonomy import HolonomyMap, PathHolonomy, leaf_holonomy
from .monotone import (ClosedSet, MonotoneDifference, MonotoneStepFunction,
                       VariationReport, find_jumps, fixed_point_set,
                       level_preimage_report, pbb_search, total_variation,
                       variation_cover_bound, variation_subadditivity_check)
from .perturbation import (BumpTranslation, DestroyParams, DestroyResult,
                           PerturbedFamily, apply_bump, apply_bump_inverse,
                           bump_jacobian, destroy_trivial_class, perturb_skew)
from .torus import BumpProfile, Region, TorusPoint, torus_dist, wrap
