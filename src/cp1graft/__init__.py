"""Grafting, pleated surfaces, and Thurston coordinates for CP^1-structures.

Forward direction: a hyperbolic structure plus a weighted multicurve yields
a grafted structure, its deformed holonomy, and an equivariant pleated
surface in H^3.  Inverse direction: maximal disks, stratification into
cores, the transverse bending measure, and recovery of grafting weights.
"""

from .moebius import (
    INFINITY,
    MoebiusMap,
    MinimalDisk,
    OrientedCircle,
    PointCP1,
    RoundDisk,
    angle_between,
    apply,
    chordal_distance,
    circle_through,
    classify,
    cp1,
    cross_ratio,
    inversive_product,
    minimal_enclosing_disk,
)
from .hyperbolic import (
    DomeEdge,
    DomeFace,
    DomeMesh,
    GeodesicH3,
    PlaneH3,
    PointH3,
    apply_isometry,
    dome,
    h3_distance,
    nearest_point_projection,
    rotation_about_geodesic,
    translation_along_geodesic,
)
from .surface import (
    FNCoordinates,
    FuchsianHolonomy,
    GroupWord,
    axis,
    enumerate_words,
    fuchsian_from_fn,
    limit_set_sample,
)
from .grafting import (
    GraftedStructure,
    LiftedLeaf,
    PleatedSurfaceMesh,
    WeightedMulticurve,
    develop_and_lift,
    grafted_holonomy,
    lift_crossings,
    pleated_surface,
)
from .thurston import (
    DiskComplementDomain,
    MaximalDiskRecord,
    MaximalDisks,
    maximal_disk_at,
    maximal_disks,
    projection_psi,
    recover_weight_from_grafted,
    stratification_check,
    transverse_measure,
    verify_covering,
)

__version__ = "0.1.0"
