"""First-passage percolation on crystal lattices.

Build periodic graphs from voltage data, project them onto lower-dimensional
quotients, sample edge times, and estimate time constants and limit shapes.
"""

__version__ = "0.1.0"

from .estimate import (
    ShapeEstimate,
    TimeConstantEstimate,
    estimate_shape,
    estimate_time_constant,
    lifting_inequality_check,
    monotonicity_experiment,
    positivity_scan,
)
from .fpp import (
    Configuration,
    MomentConditionError,
    TimeDistribution,
    moment_check,
    passage_times,
    percolation_region,
    replica_seed,
    sample_configuration,
)
from .graph_core import (
    FiniteGraph,
    HalfEdge,
    graph_from_edges,
    spanning_tree,
)
from .lattice import (
    CrystalLattice,
    Realization,
    Window,
    build_custom,
    build_preset,
    edge_connectivity_estimate,
    instantiate_window,
    lattice_from_text,
    lattice_hash,
    lattice_to_text,
)
from .quotient import (
    KernelSublattice,
    QuotientData,
    build_quotient,
    covering_fiber,
    invariant_factors,
    smith_normal_form,
    verify_diagram,
)

__all__ = [
    "__version__",
    "CrystalLattice", "Realization", "Window", "FiniteGraph", "HalfEdge",
    "KernelSublattice", "QuotientData",
    "TimeDistribution", "Configuration", "MomentConditionError",
    "TimeConstantEstimate", "ShapeEstimate",
    "graph_from_edges", "spanning_tree",
    "build_preset", "build_custom", "instantiate_window",
    "edge_connectivity_estimate", "lattice_to_text", "lattice_from_text",
    "lattice_hash",
    "smith_normal_form", "invariant_factors", "build_quotient",
    "covering_fiber", "verify_diagram",
    "moment_check", "replica_seed", "sample_configuration", "passage_times", "percolation_region",
    "estimate_time_constant", "estimate_shape", "monotonicity_experiment",
    "lifting_inequality_check", "positivity_scan",
]
