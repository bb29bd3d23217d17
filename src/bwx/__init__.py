"""Music bandwidth extension: reconstruct high-band content for band-limited
audio by recombining predicted magnitudes with estimated phase."""

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    bin_index,
    istft_array,
    stft_array,
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
    FlipPhaseSpec,
    GlaConfig,
    ReferencePhaseSpec,
    extract_reference_phase,
    flip_phase,
    gla_reconstruct,
)
from .pipeline import (
    ReconstructSpec,
    ResidualBand,
    evaluate_batch,
    reconstruct,
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
    "ImportSpec",
    "LowpassMode",
    "LowpassSpec",
    "OracleSpec",
    "ReconstructSpec",
    "ReferencePhaseSpec",
    "ResidualBand",
    "SampleDepth",
    "SpecFileHeader",
    "SpecKind",
    "StftConfig",
    "Waveform",
    "bin_index",
    "consistency_residual",
    "evaluate",
    "evaluate_batch",
    "extract_reference_phase",
    "flip_phase",
    "gla_reconstruct",
    "istft_array",
    "load_magnitude",
    "lowpass",
    "lsd",
    "make_pair",
    "predict_band_replication",
    "predict_oracle",
    "reconstruct",
    "run_phase_study",
    "snr",
    "spec_read",
    "spec_write",
    "stft_array",
    "super_resolve",
    "wav_read",
    "wav_write",
]
