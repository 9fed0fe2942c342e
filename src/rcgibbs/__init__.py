"""Random-cluster representations of finite-volume Gibbs fields.

Builds Gibbs measures on finite hypergraphs, the overlap decomposition of
two independent copies, Bernoulli and two-family random-cluster bases, and
the integrated active-bond connectivity bound, with exact enumeration at
desk scale and Monte Carlo drivers for lattice models.
"""

from .errors import (
    AllForbiddenError,
    InfeasibleError,
    NonSymmetrizableError,
    RcgibbsError,
    TooLargeError,
    UsageError,
    ZeroSliceError,
)
from .gibbs import (
    Alphabet,
    BondTable,
    FiniteDistribution,
    GibbsSpec,
    Interaction,
    OCCUPANCY,
    SPIN,
    SpinConfig,
    effective_bonds,
    gibbs_measure,
)
from .lattice import (
    Hypergraph,
    ball,
    boundary_vertices,
    build_cayley_tree,
    build_grid,
    hypergraph,
)
from .percolation import (
    IntegratedRC,
    base_connection_probability,
    domination_probability,
    extremality_diagnostic,
    integrated_rc,
    regions_connected,
    sigma_connection_profile,
    slice_connection_prob,
)
from .rcr import (
    BernoulliSolution,
    BondBase,
    LevelSystem,
    RcrBase,
    bond_marginal,
    joint_spin_bond,
    mns_base,
    monotone_base,
    monotone_probabilities,
    reconstruct,
    solve_bernoulli,
    symmetrize_base,
    typed_joint,
)
from .twocopy import (
    OverlapSlice,
    decompose_event,
    make_slice,
    nonoverlap_distribution,
    overlap_distribution,
    symmetrized_spec,
    two_copy_spec,
)

__version__ = "0.1.0"
