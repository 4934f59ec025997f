"""Four-rail loss code, transponder analytics, and chain Monte Carlo."""

import os

# small matrix products run best on one BLAS thread; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from lossguard.analytics import (
    ResourceCount,
    TransponderParams,
    alpha_prime,
    break_even_pt,
    f,
    gate_success,
    min_break_even_pt,
    min_r_over_x,
    p_f,
    p_t_aggregate,
    p_t_full,
    r,
    resources,
    survival_prob,
    threshold_n,
)
from lossguard.chainsim import (
    ChainConfig,
    ChainStats,
    LoopStats,
    ModeComparison,
    compare_modes,
    run_chain,
    run_loop,
)
from lossguard.channel import LossEvent, SegmentModel, StageResult, stage, transmit_segment
from lossguard.losscode import (
    CorrectionTable,
    Codeword,
    RecoveryOutcome,
    all_correction_tables,
    codewords,
    decode,
    derive_correction_table,
    encode,
    in_code_space,
    recover,
    recover_forced,
    recovery_branches,
)
from lossguard.simcore import (
    DensityMatrix,
    Gate,
    MeasurementRecord,
    PureState,
    fidelity,
    partial_trace,
    random_state,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ChainStats",
    "Codeword",
    "CorrectionTable",
    "DensityMatrix",
    "Gate",
    "LoopStats",
    "LossEvent",
    "MeasurementRecord",
    "ModeComparison",
    "PureState",
    "RecoveryOutcome",
    "ResourceCount",
    "SegmentModel",
    "StageResult",
    "TransponderParams",
    "all_correction_tables",
    "alpha_prime",
    "break_even_pt",
    "codewords",
    "compare_modes",
    "decode",
    "derive_correction_table",
    "encode",
    "f",
    "fidelity",
    "gate_success",
    "in_code_space",
    "min_break_even_pt",
    "min_r_over_x",
    "p_f",
    "p_t_aggregate",
    "p_t_full",
    "partial_trace",
    "r",
    "random_state",
    "recover",
    "recover_forced",
    "recovery_branches",
    "resources",
    "run_chain",
    "run_loop",
    "stage",
    "survival_prob",
    "threshold_n",
    "transmit_segment",
    "__version__",
]
