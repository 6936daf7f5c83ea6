"""skewlab: a numerical laboratory for accessibility of conservative skew
products over linear Anosov torus automorphisms.

Core pipeline: build a hyperbolic base and an area-preserving fiber family,
certify partial hyperbolicity on grids, compute certified stable/unstable
fiber holonomies, compose them into loop maps around heteroclinic
quadrilaterals, classify center accessibility classes (point / curve / open),
destroy trivial classes with compactly supported conservative bump
translations, and probe the resulting dynamics with Birkhoff-average
statistics.  An exact rational module holds the pbb scenario's monotone
translation-pair search, its brute-force oracle and random instances.
"""

__version__ = "0.1.0"

from .accessibility import (ClassSample, Classification, LoopMap, classify_class,
                            explore_classes, find_fixed_points, loop_map,
                            trivial_set_scan)
from .anosov import (HeteroclinicQuad, LinearAnosov, bracket, build_quad,
                     make_anosov, validate_quad)
from .config import ExperimentConfig, build_skew_product
from .ergodic import ErgodicReport, ergodic_scan
from .errors import (AmbiguousBranch, BrokenPath, BumpEscape, ConfigError,
                     ConstructionFailed, NoConvergence, NotAnosov, OverlapError,
                     PostconditionFailure, RegularValueFailure, SearchExhausted,
                     SkewLabError)
from .fiber import (ConstantFamily, IdentityMap, LewowiczFamily, PHEstimates,
                    RotationFamily, ScalarField, SkewProduct, VectorField,
                    certify_partial_hyperbolicity, lewowicz_fixed_point_type)
from .holonomy import HolonomyMap, leaf_holonomy
from .monotone import ClosedSet, MonotoneStepFunction, fixed_point_set, pbb_search
from .perturbation import (BumpTranslation, DestroyParams, DestroyResult,
                           PerturbedFamily, destroy_trivial_class, perturb_skew)
from .torus import BumpProfile, Region, TorusPoint, torus_dist, wrap
