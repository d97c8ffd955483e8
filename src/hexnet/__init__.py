"""hexnet: realize two-level hierarchies of digraphs as excitable networks
of heteroclinic networks, simulate the resulting polynomial fields, and
mechanically verify the realization."""

from .hierarchy import (
    Digraph,
    HierarchySpec,
    adjacency,
    digraph_from_edges,
    out_neighbors,
    validate_hierarchy,
)
from .vectorfield import (
    BlockLayout,
    CoefficientSet,
    Equilibrium,
    FieldParams,
    build_coefficients,
    bump,
    bump_j,
    designed_equilibria,
    eval_field,
    jacobian,
)
from .integrator import IntegratorConfig, Trajectory, integrate
from .analysis import (
    ItineraryReport,
    RealizationReport,
    WitnessSpec,
    check_edge_eigen_correspondence,
    check_itinerary_against,
    extract_itinerary,
    run_witness,
    run_witnesses,
    verify_equilibria,
    verify_realization,
    witness_initial_condition,
)
from .scenario import Scenario, bundled_scenario_path, load_scenario, save_scenario

__version__ = "0.1.0"
