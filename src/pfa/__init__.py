"""Principal feature analysis: select the independent argument features of a
dataset via pairwise independence tests and minimal-cut graph dissection.

``analyze`` runs the whole pipeline.  The function ``dissect`` is not
re-exported, so ``pfa.dissect`` is the submodule.
"""

from .analysis import (
    PfaConfig,
    PfaResult,
    analyze,
    explain_feature,
    filter_by_mi,
    filter_relevant,
    robust_intersection,
    run_pfa,
)
from .binning import DiscretizedFeature, discretize, discretize_all
from .dataset import Dataset, DatasetError, load_csv, save_csv, subsample
from .depgraph import (
    Graph,
    IndependenceCache,
    build_graph,
    connected_components,
    is_complete,
)
from .dissect import (
    CompleteGraphError,
    DissectionResult,
    Removal,
    min_node_cut,
)
from .stats import (
    IndependenceVerdict,
    chi_square_p_value,
    is_independent,
    mutual_information,
    regularized_upper_gamma,
)
from .synth import DagSpec, SynthSpec, generate, random_dag

__all__ = [
    "CompleteGraphError",
    "DagSpec",
    "Dataset",
    "DatasetError",
    "DiscretizedFeature",
    "DissectionResult",
    "Graph",
    "IndependenceCache",
    "IndependenceVerdict",
    "PfaConfig",
    "PfaResult",
    "Removal",
    "SynthSpec",
    "analyze",
    "build_graph",
    "chi_square_p_value",
    "connected_components",
    "discretize",
    "discretize_all",
    "explain_feature",
    "filter_by_mi",
    "filter_relevant",
    "generate",
    "is_complete",
    "is_independent",
    "load_csv",
    "min_node_cut",
    "mutual_information",
    "random_dag",
    "regularized_upper_gamma",
    "robust_intersection",
    "run_pfa",
    "save_csv",
    "subsample",
]
