"""Monomial rotation symmetric Boolean functions and their Walsh spectra.

The package builds truth tables for the stride-e degree-l rotation
symmetric families and for the quartic chain variants they decompose
into, computes spectra by a fast transform and by direct summation,
evaluates the arity-lowering and zero-mask recurrences, and ships a
verification harness that replays every claimed identity against
independent computation.
"""

from .core import (
    DEFAULT_MAX_N,
    HARD_MAX_N,
    LinearMask,
    SpectrumPeaks,
    TruthTable,
    WalshSpectrum,
    anf_table,
    nonlinearity,
    walsh_at,
    walsh_at_many,
    walsh_blocks,
    walsh_transform,
    weight,
)
from .families import (
    CycleDecomposition,
    MonomialRsbfSpec,
    SubFunctionId,
    cycle_decompose,
    factored_walsh,
    monomial_rsbf,
    quartic_chain,
    sub_function,
)
from .harness import (
    SUITES,
    HarnessConfig,
    RunResult,
    check_bound,
    check_factorization,
    check_family_identity,
    check_family_zero,
    check_identity_grid,
    check_reference_table,
    check_subfn_zero,
    counterexample_search,
    run_all,
    scan_family,
    sweep_cases,
)
from .recurrences import (
    MissingBaseEntry,
    SpectralBaseTable,
    family_walsh_via_subfns,
    family_zero_recurrence,
    family_zero_value,
    spectral_bound_check,
    subfn_walsh_top0,
    subfn_walsh_top1,
    subfn_zero_recurrence,
)
from .report import TableArtifact, VerificationReport, write_jsonl
from .transfer import (
    PeakCertificate,
    family_walsh_transfer,
    peak_certificate,
    subfn_zero_transfer,
    transfer_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_N",
    "HARD_MAX_N",
    "LinearMask",
    "SpectrumPeaks",
    "TruthTable",
    "WalshSpectrum",
    "anf_table",
    "nonlinearity",
    "walsh_at",
    "walsh_at_many",
    "walsh_blocks",
    "walsh_transform",
    "weight",
    "CycleDecomposition",
    "MonomialRsbfSpec",
    "SubFunctionId",
    "cycle_decompose",
    "factored_walsh",
    "monomial_rsbf",
    "quartic_chain",
    "sub_function",
    "MissingBaseEntry",
    "SpectralBaseTable",
    "family_walsh_via_subfns",
    "family_zero_recurrence",
    "family_zero_value",
    "spectral_bound_check",
    "subfn_walsh_top0",
    "subfn_walsh_top1",
    "subfn_zero_recurrence",
    "TableArtifact",
    "VerificationReport",
    "write_jsonl",
    "family_walsh_transfer",
    "subfn_zero_transfer",
    "transfer_matrix",
    "PeakCertificate",
    "peak_certificate",
    "SUITES",
    "HarnessConfig",
    "RunResult",
    "check_bound",
    "check_factorization",
    "check_family_identity",
    "check_family_zero",
    "check_identity_grid",
    "check_reference_table",
    "check_subfn_zero",
    "counterexample_search",
    "run_all",
    "scan_family",
    "sweep_cases",
    "__version__",
]
