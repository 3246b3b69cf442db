"""kernelforge: evolve non-linear combinations of base kernels with GP + SVM.

Base kernels are Gram matrices over a fixed item set.  Candidate combinations
are expression trees with entrywise + and * over the bank; each candidate is
scored by the validation accuracy of an SVM trained on the kernel it evaluates
to.  The harness compares the evolved combination against the addition kernel
and the best single kernel over repeated splits, and the retrieval module
turns any combination into a top-k similarity index.
"""

from .errors import (
    ConfigError,
    DataError,
    ExprSyntaxError,
    KernelForgeError,
    NumericalError,
    ParameterError,
    ShapeError,
)
from .expr import Add, KernelExpr, Leaf, Mul, canonical_string, depth, evaluate, node_count, parse_expr
from .gp import EvolutionResult, GpParams, SplitFitness, crossover, evolve, fitness, mutate, tournament_select
from .gram import GramMatrix, KernelBank, add, build_bank, multiply, normalize, submatrix
from .harness import (
    ComparisonReport,
    DatasetSplit,
    ProtocolConfig,
    best_single_kernel,
    make_splits,
    report_from_json,
    report_to_json,
    run_comparison,
    summarize,
)
from .retrieval import SimilarityIndex, build_index, load_index, query, save_index
from .svm import MulticlassModel, SvmModel, SvmParams, accuracy, predict, train_binary, train_multiclass

__version__ = "0.1.0"
