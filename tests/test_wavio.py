"""RIFF/WAVE reader and writer."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bwx import SampleDepth, Waveform, wav_read, wav_write
from bwx.errors import (
    MalformedHeaderError,
    ShapeError,
    TruncatedDataError,
    UnsupportedCodecError,
)
from bwx.wavio import wav_header

from conftest import write_pcm24


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1, 1, 5000).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    wav_write(path, Waveform(samples, 44100), SampleDepth.FLOAT32)
    channels, depth = wav_read(path)
    assert depth == 32
    assert len(channels) == 1
    assert channels[0].sample_rate == 44100
    assert np.array_equal(channels[0].samples, samples)


def test_pcm16_most_negative_code_reads_as_minus_one(tmp_path):
    path = tmp_path / "min.wav"
    payload = struct.pack("<h", -32768)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, 1, 44100, 88200, 2, 16, b"data", len(payload),
    )
    path.write_bytes(header + payload)
    channels, depth = wav_read(path)
    assert depth == 16
    assert channels[0].samples[0] == -1.0


def test_pcm16_clamps_out_of_range(tmp_path):
    path = tmp_path / "clamp.wav"
    wav_write(path, Waveform(np.array([1.5, -1.5, 1.0]), 44100), SampleDepth.PCM16)
    raw = path.read_bytes()
    stored = struct.unpack("<3h", raw[44:50])
    assert stored[0] == 32767
    assert stored[1] == -32768
    assert stored[2] == 32767


def test_pcm16_round_trip_error_bound(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1, 1, 4000)
    path = tmp_path / "q.wav"
    wav_write(path, Waveform(samples, 44100), SampleDepth.PCM16)
    channels, _ = wav_read(path)
    assert np.max(np.abs(channels[0].samples - samples)) <= 2.0**-15


def test_silence_file_size(tmp_path):
    n = 1234
    path = tmp_path / "silence.wav"
    wav_write(path, Waveform(np.zeros(n), 44100), SampleDepth.PCM16)
    assert path.stat().st_size == 44 + 2 * n


def test_pcm24_read(tmp_path):
    # Hand-build a 24-bit file: full-scale negative, zero, near-full positive.
    values = [-(1 << 23), 0, (1 << 23) - 1]
    payload = b"".join(
        int(v & 0xFFFFFF).to_bytes(3, "little") for v in values
    )
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, 1, 48000, 144000, 3, 24, b"data", len(payload),
    )
    path = tmp_path / "p24.wav"
    path.write_bytes(header + payload)
    channels, depth = wav_read(path)
    assert depth == 24
    np.testing.assert_allclose(
        channels[0].samples, [-1.0, 0.0, (2**23 - 1) / 2**23], atol=0
    )


def test_pcm24_stereo_odd_frame_count(tmp_path):
    # Five stereo frames (odd count, so the data chunk needs a pad byte) with
    # full-scale negatives on both channels, including the very first and the
    # very last sample of the data chunk.
    left = [-(1 << 23), 1, -1, (1 << 23) - 1, 0x123456]
    right = [0, -(1 << 23), -2, -0x123456, -(1 << 23)]
    payload = b"".join(
        int(v & 0xFFFFFF).to_bytes(3, "little") for pair in zip(left, right) for v in pair
    )
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload) + 1, b"WAVE", b"fmt ", 16,
        1, 2, 48000, 288000, 6, 24, b"data", len(payload),
    )
    path = tmp_path / "p24s.wav"
    path.write_bytes(header + payload + b"\x00")
    channels, depth = wav_read(path)
    assert depth == 24
    assert len(channels) == 2
    np.testing.assert_array_equal(channels[0].samples, np.array(left) / 2**23)
    np.testing.assert_array_equal(channels[1].samples, np.array(right) / 2**23)


def test_stereo_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    left = rng.uniform(-1, 1, 500).astype(np.float32).astype(np.float64)
    right = rng.uniform(-1, 1, 500).astype(np.float32).astype(np.float64)
    path = tmp_path / "stereo.wav"
    wav_write(
        path,
        [Waveform(left, 44100), Waveform(right, 44100)],
        SampleDepth.FLOAT32,
    )
    channels, _ = wav_read(path)
    assert len(channels) == 2
    assert np.array_equal(channels[0].samples, left)
    assert np.array_equal(channels[1].samples, right)


def test_channel_mismatch_rejected(tmp_path):
    with pytest.raises(ShapeError):
        wav_write(
            tmp_path / "bad.wav",
            [Waveform(np.zeros(10), 44100), Waveform(np.zeros(11), 44100)],
        )


def _extensible(canonical: bytes) -> bytes:
    """The same file with a 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk in place
    of the canonical 44-byte header's 16-byte one: the format tag moves into
    the SubFormat GUID's first two bytes."""
    tag, n_channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", canonical, 20)
    guid_tail = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    fmt = struct.pack(
        "<HHIIHHHHI", 0xFFFE, n_channels, rate, byte_rate, block_align, bits,
        22, bits, (1 << n_channels) - 1,
    ) + struct.pack("<H", tag) + guid_tail
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + canonical[36:]
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize(
    "n_channels, depth", [(2, SampleDepth.PCM16), (1, SampleDepth.FLOAT32)]
)
def test_extensible_header_reads_as_canonical(tmp_path, n_channels, depth):
    rng = np.random.default_rng(5)
    channels = [Waveform(rng.uniform(-1, 1, 777), 22050) for _ in range(n_channels)]
    canonical = tmp_path / "canonical.wav"
    wav_write(canonical, channels, depth)
    extensible = tmp_path / "extensible.wav"
    extensible.write_bytes(_extensible(canonical.read_bytes()))

    assert struct.unpack_from("<H", extensible.read_bytes(), 20) == (0xFFFE,)
    expected, expected_depth = wav_read(canonical)
    got, got_depth = wav_read(extensible)
    assert got_depth == expected_depth
    assert len(got) == len(expected) == n_channels
    for a, b in zip(got, expected):
        assert a.sample_rate == b.sample_rate == 22050
        assert np.array_equal(a.samples, b.samples)
    assert wav_header(extensible).frames == wav_header(canonical).frames == 777


class TestMalformedFiles:
    # The header-only reader shares the chunk walk with wav_read,
    # so both must reject a malformed file with the same typed error.
    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        for reader in (wav_read, wav_header):
            with pytest.raises(MalformedHeaderError, match="RIFF"):
                reader(path)

    def test_not_wave(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 64) + b"AVI " + b"\x00" * 64)
        for reader in (wav_read, wav_header):
            with pytest.raises(MalformedHeaderError, match="WAVE"):
                reader(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF")
        for reader in (wav_read, wav_header):
            with pytest.raises(MalformedHeaderError, match="small"):
                reader(path)

    def test_missing_data_chunk(self, tmp_path):
        header = struct.pack(
            "<4sI4s4sIHHIIHH",
            b"RIFF", 28, b"WAVE", b"fmt ", 16, 1, 1, 44100, 88200, 2, 16,
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header)
        for reader in (wav_read, wav_header):
            with pytest.raises(MalformedHeaderError, match="data"):
                reader(path)

    def test_truncated_payload(self, tmp_path):
        payload = b"\x00\x00" * 10
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + 100, b"WAVE", b"fmt ", 16,
            1, 1, 44100, 88200, 2, 16, b"data", 100,
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header + payload)
        for reader in (wav_read, wav_header):
            with pytest.raises(TruncatedDataError, match="declares"):
                reader(path)

    def test_zero_sample_rate(self, tmp_path):
        payload = b"\x00\x00" * 10
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            1, 1, 0, 0, 2, 16, b"data", len(payload),
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header + payload)
        for reader in (wav_read, wav_header):
            with pytest.raises(MalformedHeaderError, match="sample rate 0"):
                reader(path)

    def test_unsupported_codec(self, tmp_path):
        payload = b"\x00" * 8
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            7, 1, 8000, 8000, 1, 8, b"data", len(payload),  # mu-law
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header + payload)
        for reader in (wav_read, wav_header):
            with pytest.raises(UnsupportedCodecError, match="tag 7"):
                reader(path)

    def test_pcm32_int_unsupported(self, tmp_path):
        payload = b"\x00" * 8
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            1, 1, 8000, 32000, 4, 32, b"data", len(payload),
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header + payload)
        for reader in (wav_read, wav_header):
            with pytest.raises(UnsupportedCodecError):
                reader(path)


class TestSampleRateFromHeader:
    def test_matches_full_read(self, tmp_path):
        path = tmp_path / "x.wav"
        wav_write(path, Waveform(np.zeros(100), 22050), SampleDepth.PCM16)
        assert wav_header(path).sample_rate == 22050 == wav_read(path)[0][0].sample_rate


@pytest.fixture(scope="module")
def codec_files(tmp_path_factory):
    """A stereo file of 1001 frames in each codec bwx reads."""
    d = tmp_path_factory.mktemp("codecs")
    rng = np.random.default_rng(3)
    channels = [rng.uniform(-1, 1, 1001) for _ in range(2)]
    paths = {"pcm24": d / "pcm24.wav"}
    write_pcm24(paths["pcm24"], channels, 8000)
    for name, depth in (("pcm16", SampleDepth.PCM16), ("float32", SampleDepth.FLOAT32)):
        paths[name] = d / f"{name}.wav"
        wav_write(paths[name], [Waveform(c, 8000) for c in channels], depth)
    return paths


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    codec=st.sampled_from(["pcm16", "pcm24", "float32"]),
    start=st.one_of(st.none(), st.integers(-1200, 1200)),
    stop=st.one_of(st.none(), st.integers(-1200, 1200)),
)
def test_ranged_read_equals_slice_of_whole_read(codec_files, codec, start, stop):
    path = codec_files[codec]
    whole, depth = wav_read(path)
    part, part_depth = wav_read(path, start, stop)
    assert part_depth == depth
    assert len(part) == len(whole) == 2
    for ranged, full in zip(part, whole):
        assert ranged.sample_rate == full.sample_rate
        assert np.array_equal(ranged.samples, full.samples[start:stop])


def test_header_frame_count(codec_files):
    for path in codec_files.values():
        header = wav_header(path)
        assert (header.n_channels, header.frames, header.sample_rate) == (2, 1001, 8000)


def test_streamed_write_equals_whole_write(tmp_path):
    rng = np.random.default_rng(4)
    channels = [Waveform(rng.uniform(-1, 1, 1000), 8000) for _ in range(2)]
    for depth in SampleDepth:
        whole = tmp_path / "whole.wav"
        wav_write(whole, channels, depth)
        streamed = tmp_path / "streamed.wav"
        with open(streamed, "wb") as fh:
            for start in range(0, 1000, 300):
                block = [Waveform(c.samples[start : start + 300], 8000) for c in channels]
                wav_write(fh, block, depth, total_frames=1000 if start == 0 else None)
        assert streamed.read_bytes() == whole.read_bytes()
