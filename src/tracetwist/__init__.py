"""Twist dynamics on the relative SL(2) character variety of the four-holed sphere.

Trace coordinates, the cubic surface and its slice geometry, the twist
action and its rotation normal form, orbit enumeration and density
testing, exact cosine-relation arithmetic, and explicit matrix
representations.  Exact rational arithmetic is used wherever the
underlying statements are exact.
"""

from types import ModuleType as _ModuleType

from .angles import AngleFraction
from .orbits import (
    DensityReport,
    FiltrationLevel,
    N_of_epsilon,
    OrbitResult,
    box_distance,
    density_scan,
    enumerate_orbit,
    epsilon_density_on_level,
    exceptional_family,
    filtration,
    is_in_F,
    minimality_criterion,
    rational_angle_of,
    twist_period,
)
from .rep import (
    Mat2,
    RepFour,
    exceptional_representation,
    from_triple,
    trace_coordinates,
)
from .scalars import (
    EXACT,
    FLOAT,
    MixedModeError,
    NeedsFloatModeError,
    Scalar,
    Surd,
    TOL_GEOM,
    TOL_SURFACE,
)
from .surface import (
    Axis,
    BoundaryTraces,
    ComponentClass,
    LevelSetGeometry,
    TracePoint,
    classify,
    kappa,
    level_range,
    level_set,
    lift_to_surface,
    surface_sample,
)
from .trigdioph import (
    CJRelation,
    CJTerm,
    Classification,
    ConductorLimitError,
    CycloElement,
    bounded_search,
    conway_jones_list,
    cos_pi,
    cyclotomic_poly,
    eqcos_residual,
    eval_exact,
    is_rational_relation,
    match_family,
    normalize,
    t_family_instance,
)
from .twists import (
    GENERATORS,
    RotationFrame,
    TwistGenerator,
    TwistWord,
    apply_generator,
    apply_word,
    rotation_angle,
    to_rotation_frame,
    vieta_involution,
)

__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))
