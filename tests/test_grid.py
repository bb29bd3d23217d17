"""The padded frame grid: every output of sr and prepare keeps the input's
length and bounded edges, and frame-local outputs keep, on the unpadded
grid's interior, the bytes they had before the grid was padded."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwx import (
    BandLayout,
    BandReplicationSpec,
    FlipPhaseSpec,
    GlaConfig,
    LowpassSpec,
    OracleSpec,
    ReconstructSpec,
    ReferencePhaseSpec,
    SpecKind,
    StftConfig,
    Waveform,
    extract_reference_phase,
    flip_phase,
    istft_array,
    lowpass,
    predict_band_replication,
    reconstruct,
    spec_write,
    stft_array,
    wav_read,
    wav_write,
)
from bwx.cli import main
from bwx.dsp import padded_grid

from conftest import interior_slice, padded_round_trip, synth_clip

SR = 8000
FRAME = 64
# Bins of a 64-sample frame: [0, 8) low band, [8, 16) high band.
LAYOUT = BandLayout(8, 16, 33)
# Every output peak stays within this factor of the input's. Before the grid
# was padded, edge samples divided by a window-square sum near its 1e-12
# floor peaked at hundreds to millions of times the input.
PEAK_FACTOR = 4.0

# Hops that divide the 64-sample frame and hops that do not.
hops = st.one_of(st.sampled_from([8, 16, 24, 32, 40]), st.integers(1, 63))
# The peak bound needs frames that overlap by half or more: past that the
# full-coverage window-square sum dips towards zero between frame centres
# (to 0.19 of its top at hop 40, 2e-4 at hop 60), which magnifies any edit
# wherever it lies, edge or not.
overlapping_hops = st.one_of(st.sampled_from([8, 16, 24, 32]), st.integers(1, 32))


def _pair(seed, n, cfg):
    """A random high-resolution signal and its brickwall-lowpassed companion."""
    rng = np.random.default_rng(seed)
    hr = rng.uniform(-1, 1, n) * rng.uniform(0.1, 1)
    lr = lowpass(Waveform(hr, SR), LowpassSpec(cutoff_hz=1000.0), cfg).samples
    return hr, lr


def _phase(name):
    return {
        "flip": FlipPhaseSpec(),
        "ref": ReferencePhaseSpec("hr"),
        "gla": GlaConfig(iterations=3),
    }[name]


def _sr(predictor, phase, hr, lr, cfg):
    spec = ReconstructSpec(predictor, phase, LAYOUT, stft=cfg)
    return reconstruct(spec, [Waveform(lr, SR)], {"hr": [Waveform(hr, SR)]})[0].samples


def _peak(x):
    return float(np.max(np.abs(x)))


@settings(max_examples=30, deadline=None)
@given(
    hop=overlapping_hops,
    extra=st.integers(0, 900),
    seed=st.integers(0, 2**32 - 1),
    phase=st.sampled_from(["flip", "ref", "gla"]),
)
def test_oracle_output_keeps_length_and_bounded_peak(hop, extra, seed, phase):
    cfg = StftConfig(frame_len=FRAME, hop=hop)
    hr, lr = _pair(seed, FRAME + extra, cfg)
    out = _sr(OracleSpec("hr"), _phase(phase), hr, lr, cfg)
    assert len(out) == len(lr)
    assert _peak(out) <= PEAK_FACTOR * max(_peak(hr), _peak(lr))


@settings(max_examples=20, deadline=None)
@given(
    hop=overlapping_hops,
    extra=st.integers(0, 900),
    seed=st.integers(0, 2**32 - 1),
    phase=st.sampled_from(["flip", "ref", "gla"]),
)
def test_band_replication_output_keeps_length(hop, extra, seed, phase):
    cfg = StftConfig(frame_len=FRAME, hop=hop)
    hr, lr = _pair(seed, FRAME + extra, cfg)
    out = _sr(BandReplicationSpec(), _phase(phase), hr, lr, cfg)
    assert len(out) == len(lr)
    assert _peak(out) <= PEAK_FACTOR * max(_peak(hr), _peak(lr))


@settings(max_examples=40, deadline=None)
@given(hop=overlapping_hops, n=st.integers(1, 900), seed=st.integers(0, 2**32 - 1))
def test_brickwall_output_keeps_length_and_bounded_peak(hop, n, seed):
    # Any length, shorter than a frame too.
    cfg = StftConfig(frame_len=FRAME, hop=hop)
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    out = lowpass(Waveform(x, SR), LowpassSpec(cutoff_hz=1000.0), cfg).samples
    assert len(out) == n
    assert _peak(out) <= PEAK_FACTOR * _peak(x)


def _unpadded_sr(lr, edit, cfg):
    """Reconstruction on the unpadded grid, frames from sample 0, as whole
    arrays: the output (L - 1) * hop + frame_len samples long."""
    X = stft_array(lr, cfg)
    edit(X)
    return istft_array(X, cfg)


def _frame_local_edit(name, hr, cfg):
    """The whole-spectrogram edit of a frame-local flow on an input as long
    as ``hr``, so their frames line up."""
    k_lo, k_hi = LAYOUT.k_lo, LAYOUT.k_hi
    reference = stft_array(hr, cfg)

    def edit(X):
        if name == "sbr-flip":
            band = predict_band_replication(np.abs(X[:, :k_lo]), LAYOUT)
        else:
            band = np.abs(reference[:, k_lo:k_hi])
        if name == "oracle-ref":
            band = band * extract_reference_phase(reference, LAYOUT)
        else:
            band = band * flip_phase(X[:, :k_lo], LAYOUT)
        X[:, k_lo:k_hi] = band

    return edit


@settings(max_examples=30, deadline=None)
@given(
    hop=hops,
    extra=st.integers(0, 900),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["oracle-flip", "oracle-ref", "sbr-flip"]),
)
def test_frame_local_sr_keeps_unpadded_bytes_on_its_interior(hop, extra, seed, name):
    cfg = StftConfig(frame_len=FRAME, hop=hop)
    hr, lr = _pair(seed, FRAME + extra, cfg)
    predictor = BandReplicationSpec() if name == "sbr-flip" else OracleSpec("hr")
    phase = ReferencePhaseSpec("hr") if name == "oracle-ref" else FlipPhaseSpec()
    out = _sr(predictor, phase, hr, lr, cfg)
    before = _unpadded_sr(lr, _frame_local_edit(name, hr, cfg), cfg)
    sel = interior_slice(len(before), cfg)
    assert np.array_equal(out[sel], before[sel])


@settings(max_examples=40, deadline=None)
@given(hop=hops, n=st.integers(FRAME, 900), seed=st.integers(0, 2**32 - 1))
def test_brickwall_keeps_unpadded_bytes_on_its_interior(hop, n, seed):
    # Before the grid was padded, brickwall padded the tail only: frames from
    # sample 0, enough of them to reach the last sample.
    cfg = StftConfig(frame_len=FRAME, hop=hop)
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    out = lowpass(Waveform(x, SR), LowpassSpec(cutoff_hz=1000.0), cfg).samples
    n_frames = -(-(n - FRAME) // hop) + 1
    tail_padded = np.zeros(cfg.output_length(n_frames))
    tail_padded[:n] = x
    X = stft_array(tail_padded, cfg)
    X[:, 8:] = 0.0  # 1000 Hz is bin 8 of a 64-sample frame at 8 kHz
    before = istft_array(X, cfg)[:n]
    sel = interior_slice(n, cfg)
    assert np.array_equal(out[sel], before[sel])


CFG = StftConfig()


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    """0.3 s of music less 77 samples (an odd length) as float32 WAV, its
    brickwall LR, and a BWXSPEC band of its magnitudes framed from sample 0
    (L rows)."""
    d = tmp_path_factory.mktemp("grid")
    x = synth_clip(9, duration=0.3)[:-77]
    hr, lr, band = d / "hr.wav", d / "lr.wav", d / "band.bwx"
    wav_write(hr, Waveform(x, 44100))
    assert main(["prepare", "--in", str(hr), "--out", str(lr)]) == 0
    mags = np.abs(stft_array(wav_read(hr)[0][0].samples, CFG))[:, 186:372]
    spec_write(band, mags.astype(np.float32), SpecKind.MAGNITUDE, 44100, CFG.frame_len, CFG.hop)
    return hr, lr, band


@pytest.mark.parametrize(
    "mag, phase",
    [("oracle", "flip"), ("oracle", "ref"), ("oracle", "gla"), ("sbr", "flip"), ("import", "flip")],
)
def test_sr_writes_the_input_length(tmp_path, clip, mag, phase):
    hr, lr, band = clip
    out = tmp_path / "out.wav"
    mag_arg = {"oracle": f"oracle:{hr}", "sbr": "sbr", "import": f"import:{band}"}[mag]
    phase_arg = f"ref:{hr}" if phase == "ref" else phase
    argv = ["sr", "--in", str(lr), "--out", str(out), "--mag", mag_arg, "--phase", phase_arg,
            *(["--gla-iters", "3"] if phase == "gla" else [])]
    assert main(argv) == 0
    written = wav_read(out)[0][0].samples
    source = wav_read(lr)[0][0].samples
    assert len(written) == len(source)
    assert _peak(written) <= PEAK_FACTOR * _peak(wav_read(hr)[0][0].samples)


@pytest.mark.parametrize("filter_name", ["brickwall", "fir"])
def test_prepare_writes_the_input_length(tmp_path, clip, filter_name):
    hr, _, _ = clip
    out = tmp_path / "lr.wav"
    assert main(["prepare", "--in", str(hr), "--out", str(out), "--filter", filter_name]) == 0
    x = wav_read(hr)[0][0].samples
    written = wav_read(out)[0][0].samples
    assert len(written) == len(x)
    assert _peak(written) <= PEAK_FACTOR * _peak(x)


def test_import_framed_from_sample_zero_still_loads(tmp_path, clip):
    # A band with one row per frame of the input alone (frames from sample
    # 0, as `spec export` writes them) lands on the padded grid's frames
    # lead/hop onwards; the grid's other frames get a zero high band.
    hr, lr, band = clip
    out = tmp_path / "out.wav"
    argv = ["sr", "--in", str(lr), "--out", str(out), "--mag", f"import:{band}", "--phase", "flip"]
    assert main(argv) == 0
    x = wav_read(lr)[0][0].samples
    mags = np.abs(stft_array(wav_read(hr)[0][0].samples, CFG))[:, 186:372].astype(np.float32)
    first = padded_grid(CFG, len(x))[0] // CFG.hop

    def edit(X):
        placed = np.zeros((len(X), 186))
        placed[first : first + len(mags)] = mags
        X[:, 186:372] = placed * flip_phase(X[:, :186], BandLayout(186, 372, CFG.n_bins))

    expected = padded_round_trip(x, CFG, edit)
    assert np.array_equal(wav_read(out)[0][0].samples, expected.astype(np.float32))
