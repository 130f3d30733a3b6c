"""Neural control-flow execution over binary CFGs.

An equilibrium graph network whose transition is guided by a Gumbel-softmax
branching agent, trained by implicit differentiation, with an assembly
frontend and a synthetic path-sensitive vulnerability benchmark.
"""

from .graphs import (
    CfgGraph,
    GraphFileError,
    GraphValidationError,
    make_graph,
    merge_functions,
    read_graph_file,
    renormalize,
    validate_graph,
    write_graph_file,
)
from .executor import JointStep, gate_adjacency, program_state
from .metrics import MetricsReport, compute_metrics
from .model import ModelConfig, forward, init_model_params, model_backward, prepare_graph
from .solver import (
    DivergenceError,
    SolverConfig,
    SolverResult,
    anderson,
    naive_iterate,
    pf_eigenvalue,
    project_wellposed,
)
from .synth import SyntheticSpec, generate_dataset, split
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .vocab import Vocab, encode_block, train_vocab

__version__ = "0.1.0"

__all__ = [
    "CfgGraph",
    "DivergenceError",
    "GraphFileError",
    "GraphValidationError",
    "JointStep",
    "MetricsReport",
    "ModelConfig",
    "SolverConfig",
    "SolverResult",
    "SyntheticSpec",
    "TrainConfig",
    "Vocab",
    "anderson",
    "compute_metrics",
    "encode_block",
    "forward",
    "gate_adjacency",
    "generate_dataset",
    "init_model_params",
    "load_checkpoint",
    "make_graph",
    "merge_functions",
    "model_backward",
    "naive_iterate",
    "pf_eigenvalue",
    "prepare_graph",
    "program_state",
    "project_wellposed",
    "read_graph_file",
    "renormalize",
    "save_checkpoint",
    "split",
    "train",
    "train_vocab",
    "validate_graph",
    "write_graph_file",
]
