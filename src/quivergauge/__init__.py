"""Unitary gauge ensembles on directed multigraphs.

Block-unitary gauge fields on a quiver, the plaquette expansion of a
polynomial action Tr f(D), exact finite-N loop equations at a rooted edge,
the triangle moment bootstrap, the exact one-unitary-matrix solution, and
Haar Monte Carlo estimators that tie it all together.
"""

from .action import ActionSpec, PlaquetteTable, expand_action
from .bootstrap import FeasibilityMap, feasible, moment, scan_region
from .bratteli import (
    BratteliNetwork,
    NetworkError,
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
from .haar import DiracSample, KeyedSampler
from .monte_carlo import EstimatorResult, check_loop_equation, estimate_wilson
from .quiver import (
    CyclicWord,
    EdgeWord,
    Quiver,
    QuiverError,
    cyclic_canonical,
    enumerate_closed_walks,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "BratteliNetwork",
    "CyclicWord",
    "DiracSample",
    "EdgeWord",
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
    "YXPoly",
    "bessel_i",
    "check_loop_equation",
    "cyclic_canonical",
    "enumerate_closed_walks",
    "estimate_wilson",
    "expand_action",
    "factorize_large_N",
    "feasible",
    "first_moment_curve",
    "generate_loop_equation",
    "load_job",
    "moment",
    "partition_function",
    "scan_region",
    "triangle_job",
    "validate_network",
]
