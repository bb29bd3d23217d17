"""Music bandwidth extension: reconstruct high-band content for band-limited
audio by recombining predicted magnitudes with estimated phase."""

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    StftConfig,
    Waveform,
    bin_index,
    consistency_project,
    interior_slice,
    istft,
    stft,
    wrap_phase,
)
from .magnitude import (
    BandReplicationSpec,
    ImportSpec,
    OracleSpec,
    load_magnitude,
    predict_band_replication,
    predict_oracle,
)
from .metrics import EvalReport, consistency_residual, evaluate, lsd, snr
from .phase import (
    GlaConfig,
    GlaInit,
    GlaTrace,
    extract_reference_phase,
    flip_phase,
    gla_reconstruct,
)
from .pipeline import (
    FlipPhaseSpec,
    GlaPhaseSpec,
    ReferencePhaseSpec,
    ResidualBand,
    SrJobSpec,
    evaluate_batch,
    run_phase_study,
    super_resolve,
)
from .prep import LowpassMode, LowpassSpec, lowpass, make_pair
from .specio import SpecFileHeader, SpecKind, spec_read, spec_write
from .wavio import SampleDepth, wav_read, wav_write

__version__ = "0.1.0"

__all__ = [
    "BandLayout",
    "BandReplicationSpec",
    "ComplexSpectrogram",
    "EvalReport",
    "FlipPhaseSpec",
    "GlaConfig",
    "GlaInit",
    "GlaPhaseSpec",
    "GlaTrace",
    "ImportSpec",
    "LowpassMode",
    "LowpassSpec",
    "MagnitudeSpectrogram",
    "OracleSpec",
    "ReferencePhaseSpec",
    "ResidualBand",
    "SampleDepth",
    "SpecFileHeader",
    "SpecKind",
    "SrJobSpec",
    "StftConfig",
    "Waveform",
    "bin_index",
    "consistency_project",
    "consistency_residual",
    "evaluate",
    "evaluate_batch",
    "extract_reference_phase",
    "flip_phase",
    "gla_reconstruct",
    "interior_slice",
    "istft",
    "load_magnitude",
    "lowpass",
    "lsd",
    "make_pair",
    "predict_band_replication",
    "predict_oracle",
    "run_phase_study",
    "snr",
    "spec_read",
    "spec_write",
    "stft",
    "super_resolve",
    "wav_read",
    "wav_write",
    "wrap_phase",
]
