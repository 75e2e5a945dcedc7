"""Exact coloring experiments on grid towers, Cayley quotients, and
two-ended line instances.

The package verifies, at finite scale, a family of coloring laws for
graphs built from two marked groups on the carrier (Z_k x Z_k) x Z: the
plain direct product and a twisted product that swaps the grid
coordinates once per shift.  The two groups share a Cayley graph, yet
their cyclic quotients tell them apart: the plain quotients stay
k-chromatic while odd twisted quotients need 2k-1 colors.  Two coloring
algorithms built here witness the matching upper bounds: a separator
scaffold that colors any two-ended line instance with at most 2*chi - 1
colors, and a spare-color schedule that colors anchored towers with at
most k+1.
"""

__version__ = "0.1.0"

from .chi import (
    Budget,
    ChiResult,
    Coloring,
    chromatic_info,
    chromatic_number,
    enumerate_colorings,
    find_coloring,
    is_proper,
)
from .errors import InputError, InvariantViolation, UndecidedError
from .graphs import (
    FiniteGraph,
    components,
    set_distance,
)
from .grid import (
    grid_graph,
    two_orbit_graph,
    verify_dichotomy,
    verify_invariance,
    verify_rigidity,
)
from .groups import (
    GroupElement,
    MarkedGroupSpec,
    generators,
    multiply,
    untwist,
)
from .instances import (
    LineInstance,
    cayley_cycle_instance,
    cayley_segment_instance,
    divides_into_two,
    ladder_instance,
    path_instance,
)
from .quotients import (
    QuotientGraph,
    build_quotient,
    cayley_window,
    quotient_chi,
    verify_alternation_obstruction,
    verify_even_quotient_isomorphism,
)
from .towers import (
    AnchoredTower,
    anchor_coloring,
    color_tower,
    transfer_schedule,
    witness_k_insufficient,
)
from .twoended import (
    SeparatorFamily,
    build_separator_family,
    check_complement_bounded,
    color_two_ended,
    find_separators,
)
