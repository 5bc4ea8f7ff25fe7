"""The out-of-order core timing model and the top-level simulator.

* :mod:`repro.core.branch` — bimodal branch predictor + BTB (Table 1),
* :mod:`repro.core.rob` / :mod:`repro.core.lsq` — in-order-retirement window
  resources that bound how far execution can run ahead,
* :mod:`repro.core.classifier` — the good/bad prefetch bookkeeping behind
  every figure in the paper,
* :mod:`repro.core.pipeline` — the timestamp-ordered OoO execution engine,
* :mod:`repro.core.kernel` — the zero-contention functional engine for
  wide classification sweeps (compiled C, with a Python reference leg),
* :mod:`repro.core.simulator` — the facade wiring trace, hierarchy,
  prefetchers, filter and engine together.
"""

from repro.core.branch import BimodalPredictor, BranchTargetBuffer, BranchUnit
from repro.core.classifier import PrefetchClassifier, PrefetchTally
from repro.core.lsq import LoadStoreQueue
from repro.core.pipeline import OoOPipeline
from repro.core.rob import ReorderBuffer, RetirementWindow
from repro.core.simulator import SimulationResult, Simulator, run_simulation

__all__ = [
    "BimodalPredictor",
    "BranchTargetBuffer",
    "BranchUnit",
    "LoadStoreQueue",
    "OoOPipeline",
    "PrefetchClassifier",
    "PrefetchTally",
    "ReorderBuffer",
    "RetirementWindow",
    "SimulationResult",
    "Simulator",
    "run_simulation",
]
