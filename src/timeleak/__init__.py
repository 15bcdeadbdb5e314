"""timeleak: learn a program's timing model, detect the secret-dependent part,
and count secrets per observational class to quantify the leak in bits."""

__version__ = "0.1.0"

from . import counter, dataset, network, quantifier, sweep
from .counter import ClassCensus, ReducerNet, SecretDomain, bnb_census, brute_force_census, extract_reducer
from .dataset import Binary, FeatureSchema, IntRange, Normalizer, TraceDataset, load_csv, split, write_csv
from .network import Architecture, TrainConfig, TriBranchNetwork, train
from .quantifier import LeakReport, build_report, initial_entropy, remaining_entropy, shannon_leak
from .sweep import SweepResult, Verdict, detect, select_k, sweep_k

__all__ = [
    "__version__",
    "Architecture",
    "Binary",
    "ClassCensus",
    "FeatureSchema",
    "IntRange",
    "LeakReport",
    "Normalizer",
    "ReducerNet",
    "SecretDomain",
    "SweepResult",
    "TraceDataset",
    "TrainConfig",
    "TriBranchNetwork",
    "Verdict",
    "bnb_census",
    "brute_force_census",
    "build_report",
    "counter",
    "dataset",
    "detect",
    "extract_reducer",
    "initial_entropy",
    "load_csv",
    "network",
    "quantifier",
    "remaining_entropy",
    "select_k",
    "shannon_leak",
    "split",
    "sweep",
    "sweep_k",
    "train",
    "write_csv",
]
