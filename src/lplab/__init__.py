"""Desk-scale laboratory for dyadic frequency decompositions of functions and
finite-rank operators on a discretized periodic box, with empirical checks of
the square-function, density, sign-sum and kinetic-energy comparisons."""

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    GridMismatchError,
    UnsupportedFamilyError,
    ZeroModeSingularityError,
)
from .torus_grid import (
    TorusGrid,
    abs_squared,
    plane_wave,
)
from .dyadic_partition import (
    SHARP,
    SMOOTH,
    BumpProfile,
    DyadicBlockSet,
    block_squared_sum,
    block_table,
    build_blocks,
    write_block_table_csv,
)
from .projectors import unit_ball_volume
from .fock_operator import (
    FiniteRankOperator,
    OperatorContract,
    UNIT_BALL,
    ValidationReport,
    diagonal_block_bound,
    power_bounded,
    require_contract,
    validate_contract,
)
from .corpus import (
    CorpusSpec,
    philox_generator,
    random_band_limited,
    random_orthonormal_frame,
    single_spike,
    spike_sequences,
)
from .inequality_lab import (
    ChainResult,
    CheckSample,
    GeneralizedLTResult,
    RatioReport,
    SequenceLemmaResult,
    SignEnsemble,
    duality_identity_check,
    envelope_for,
    estimate_envelope,
    exponent_key,
    fermi_lattice_oracle,
    fermi_sweep,
    generalized_lt_check,
    khinchine_reports,
    load_envelopes,
    lt_chain_check,
    sequence_lemma_bound,
    sequence_lemma_trials,
    sign_sum_samples,
    summed_block_density,
)
from .reporting import canonical_json, format_float

__version__ = "0.1.0"
