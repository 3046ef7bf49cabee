"""tritile: domino tilings of cubiculated regions.

Boxes, even tori, and voxel regions; exhaustive enumeration of tilings as
perfect matchings of the dual graph; flip and trit moves with their move
graphs; flux, twist, and flux through discrete surfaces; height functions
on coquadriculated surfaces; and a verification harness.
"""

from .regions import (
    Region, RegionError, build_box, build_torus, build_voxel_region,
    refine_region, region_from_dict, region_from_json,
)
from .tilings import (
    Cycle, CycleSystem, Dimer, Tiling, base_tiling, count_tilings,
    deserialize_tiling, diff_cycles, enumerate_tilings, refine_tiling,
    serialize_tiling, tiling_from_dict, tiling_to_dict,
)
from .moves import (
    FlipMove, MoveEdge, MoveGraph, TritMove, WalkState, apply_flip,
    apply_trit, bfs_trit_labeling, find_flips, find_trits, move_graph,
)
from .fluxtwist import (
    DiscreteSurface, FluxVector, Square, closed_box_surface, cutting_surface,
    flux, flux_through_surface, modulus, relative_twist, surface_from_json,
    surface_predicates, twist, vertex_flow,
)
from .heights import (
    INF, CoquadSurface, HeightField, TilingClass, apply_face_flip,
    build_planar_surface, enumerate_surface_tilings, face_flips,
    flip_connect, height_function, is_stable, pointwise_max, pointwise_min,
    tiling_classes, tiling_from_height, winding,
)
from .harness import WalkConfig, mixed_torus_tiling, random_walk, verify

__version__ = "0.1.0"

__all__ = [
    "Region", "RegionError", "build_box", "build_torus", "build_voxel_region",
    "refine_region", "region_from_dict", "region_from_json",
    "Cycle", "CycleSystem", "Dimer", "Tiling", "base_tiling", "count_tilings",
    "deserialize_tiling", "diff_cycles", "enumerate_tilings", "refine_tiling",
    "serialize_tiling", "tiling_from_dict", "tiling_to_dict",
    "FlipMove", "MoveEdge", "MoveGraph", "TritMove", "WalkState", "apply_flip",
    "apply_trit", "bfs_trit_labeling", "find_flips", "find_trits", "move_graph",
    "DiscreteSurface", "FluxVector", "Square", "closed_box_surface",
    "cutting_surface", "flux", "flux_through_surface", "modulus",
    "relative_twist", "surface_from_json", "surface_predicates", "twist",
    "vertex_flow",
    "INF", "CoquadSurface", "HeightField", "TilingClass", "apply_face_flip",
    "build_planar_surface", "enumerate_surface_tilings", "face_flips",
    "flip_connect", "height_function", "is_stable", "pointwise_max",
    "pointwise_min", "tiling_classes", "tiling_from_height", "winding",
    "WalkConfig", "mixed_torus_tiling", "random_walk", "verify",
    "__version__",
]
