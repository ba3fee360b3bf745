"""Cubes of symmetric block designs.

Construction, verification, and classification of n-dimensional 0/1 arrays
all of whose 2-dimensional slices are incidence matrices of symmetric
(v,k,lambda) designs: difference cubes, group cubes, their transversal-design
canonical forms, autotopy and autoparatopy groups, and slice invariants.
"""

from .designs import (
    DesignClass,
    DesignParams,
    IncidenceMatrix,
    block_quadruple,
    design_class,
    development,
    mann_product,
    menon_params,
    switch_blocks,
    verify_design,
)
from .groups import (
    DifferenceSet,
    FiniteGroup,
    Multiplier,
    automorphism_group,
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
    find_isomorphism,
    is_difference_set,
    make_cyclic,
    make_direct_product,
    make_from_permutation_generators,
    make_metacyclic,
    multipliers,
)
from .cubes import (
    Cube,
    ParatopyElement,
    SliceInvariant,
    apply_paratopy,
    difference_cube,
    group_cube,
    hadamard_certificate,
    hadamard_slice_checks,
    is_totally_symmetric,
    slice_invariant,
    to_hadamard,
    verify_cube,
    weak_slice_invariant,
)
from .equivalence import (
    AutomorphismReport,
    TransversalRep,
    are_isotopic,
    are_paratopic,
    canonical_certificate,
    autoparatopy_report,
    autotopy_report,
    cube_certificate,
    from_transversal,
    paratopy_witness,
    theoretical_autotopies,
    to_transversal,
)
from .catalog import reference_catalog
from .search import (
    GroupCubeClassification,
    OrbitCubeInput,
    OrbitCubeResult,
    classify_group_cubes,
    difference_cube_reference,
    find_ds_block_designs,
    is_group_cube,
    orbit_cube,
)

__version__ = "0.1.0"
