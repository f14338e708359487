"""Unitary gauge ensembles on directed multigraphs.

Block-unitary gauge fields on a quiver, the plaquette expansion of a
polynomial action Tr f(D), exact finite-N loop equations at a rooted edge,
the triangle moment bootstrap, the exact one-unitary-matrix solution, and
Haar Monte Carlo estimators that tie it all together.
"""

from .action import ActionSpec, PlaquetteTable, evaluate_action, expand_action
from .bootstrap import FeasibilityMap, feasible, moment, moment_matrix, scan_region
from .bratteli import (
    BratteliNetwork,
    EnsembleDescriptor,
    NetworkError,
    dirac_ensemble,
    representation_dimension,
    validate_network,
)
from .gww import GwwCurve, bessel_i, first_moment_curve, partition_function
from .jobfile import Job, JobError, load_job, triangle_job
from .laurent import YXPoly
from .loop_equations import (
    LoopEquation,
    MomentEquation,
    factorize_large_N,
    generate_loop_equation,
)
from .monte_carlo import (
    DiracSample,
    EstimatorResult,
    KeyedSampler,
    ResidualResult,
    assemble_dirac,
    check_loop_equation,
    estimate_wilson,
)
from .quiver import (
    CyclicWord,
    EdgeWord,
    Quiver,
    QuiverError,
    build_quiver,
    cyclic_canonical,
    enumerate_closed_walks,
    reduce_word,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "BratteliNetwork",
    "CyclicWord",
    "DiracSample",
    "EdgeWord",
    "EnsembleDescriptor",
    "EstimatorResult",
    "FeasibilityMap",
    "GwwCurve",
    "Job",
    "JobError",
    "KeyedSampler",
    "LoopEquation",
    "MomentEquation",
    "NetworkError",
    "PlaquetteTable",
    "Quiver",
    "QuiverError",
    "ResidualResult",
    "YXPoly",
    "assemble_dirac",
    "bessel_i",
    "build_quiver",
    "check_loop_equation",
    "cyclic_canonical",
    "dirac_ensemble",
    "enumerate_closed_walks",
    "estimate_wilson",
    "evaluate_action",
    "expand_action",
    "factorize_large_N",
    "feasible",
    "first_moment_curve",
    "generate_loop_equation",
    "load_job",
    "moment",
    "moment_matrix",
    "partition_function",
    "reduce_word",
    "representation_dimension",
    "scan_region",
    "triangle_job",
    "validate_network",
]
