"""RIFF/WAVE reader and writer."""

import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bwx.wavio
from bwx import Waveform, wav_read, wav_write
from bwx.errors import (
    BwxError,
    DomainError,
    MalformedHeaderError,
    PayloadValueError,
    ShapeError,
    TruncatedDataError,
    UnsupportedCodecError,
)
from bwx.wavio import _WavSource

from conftest import write_pcm16, write_pcm24

_FLOAT32_MAX = float(np.finfo(np.float32).max)
# Negative zero, the smallest and largest subnormals, and the largest normal.
_FLOAT32_EDGES = [-0.0, 2.0**-149, -(2.0**-149), 2.0**-126 - 2.0**-149, _FLOAT32_MAX, -_FLOAT32_MAX]


@st.composite
def _float32_channels(draw):
    """One to three equal-length channels of samples that float32 holds."""
    n = draw(st.integers(0, 50))
    sample = st.one_of(
        st.sampled_from(_FLOAT32_EDGES), st.floats(width=32, allow_nan=False, allow_infinity=False)
    )
    return [draw(st.lists(sample, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 3)))]


def _bits(samples) -> np.ndarray:
    """The float64 bit patterns of ``samples``, so -0.0 differs from 0.0."""
    return np.asarray(samples, dtype=np.float64).view(np.int64)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(channels=[np.random.default_rng(0).uniform(-1, 1, 5000).astype(np.float32).tolist()], rate=44100)
@given(channels=_float32_channels(), rate=st.sampled_from([8000, 44100]))
def test_float32_round_trip_bit_exact(tmp_path, channels, rate):
    # Every sample float32 holds reads back bit for bit, in every channel.
    path = tmp_path / "f32.wav"
    wav_write(path, [Waveform(c, rate) for c in channels])
    read, depth = wav_read(path)
    assert depth == 32
    assert len(read) == len(channels)
    for got, want in zip(read, channels):
        assert got.sample_rate == rate
        assert np.array_equal(_bits(got.samples), _bits(want))


@pytest.mark.parametrize("beyond", [1e39, -3.5e38, 1e300])
def test_a_sample_beyond_float32_is_refused_and_nothing_written(tmp_path, beyond):
    # A sample that would be written as infinity is refused, whole or
    # streamed, and an existing file keeps its bytes.
    path = tmp_path / "huge.wav"
    with pytest.raises(PayloadValueError, match="float32"):
        wav_write(path, Waveform([0.5, beyond, 0.0], 44100))
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"an earlier file")
    with pytest.raises(PayloadValueError):
        wav_write(path, [Waveform([0.0, 0.25], 8000), Waveform([beyond, 0.0], 8000)])
    assert path.read_bytes() == b"an earlier file"
    with open(tmp_path / "streamed.wav", "wb") as fh:
        with pytest.raises(PayloadValueError):
            wav_write(fh, Waveform([beyond], 8000), total_frames=1)
        assert fh.tell() == 0


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


def test_silence_file_size(tmp_path):
    n = 1234
    path = tmp_path / "silence.wav"
    wav_write(path, Waveform(np.zeros(n), 44100))
    assert path.stat().st_size == 44 + 4 * n


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
    wav_write(path, [Waveform(left, 44100), Waveform(right, 44100)])
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


@pytest.mark.parametrize("n_channels, codec", [(2, "pcm16"), (1, "float32")])
def test_extensible_header_reads_as_canonical(tmp_path, n_channels, codec):
    rng = np.random.default_rng(5)
    channels = [rng.uniform(-1, 1, 777) for _ in range(n_channels)]
    canonical = tmp_path / "canonical.wav"
    if codec == "pcm16":
        write_pcm16(canonical, channels, 22050)
    else:
        wav_write(canonical, [Waveform(c, 22050) for c in channels])
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
    assert len(got[0]) == len(expected[0]) == 777


class TestMalformedFiles:
    # Opening a source walks the chunks, as wav_read does, so both must
    # reject a malformed file with the same typed error.
    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        for reader in (wav_read, _WavSource):
            with pytest.raises(MalformedHeaderError, match="RIFF"):
                reader(path)

    def test_not_wave(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 64) + b"AVI " + b"\x00" * 64)
        for reader in (wav_read, _WavSource):
            with pytest.raises(MalformedHeaderError, match="WAVE"):
                reader(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF")
        for reader in (wav_read, _WavSource):
            with pytest.raises(MalformedHeaderError, match="small"):
                reader(path)

    def test_missing_data_chunk(self, tmp_path):
        header = struct.pack(
            "<4sI4s4sIHHIIHH",
            b"RIFF", 28, b"WAVE", b"fmt ", 16, 1, 1, 44100, 88200, 2, 16,
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header)
        for reader in (wav_read, _WavSource):
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
        for reader in (wav_read, _WavSource):
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
        for reader in (wav_read, _WavSource):
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
        for reader in (wav_read, _WavSource):
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
        for reader in (wav_read, _WavSource):
            with pytest.raises(UnsupportedCodecError):
                reader(path)


class TestSampleRateFromHeader:
    def test_matches_full_read(self, tmp_path):
        path = tmp_path / "x.wav"
        write_pcm16(path, [np.zeros(100)], 22050)
        with _WavSource(path) as source:
            assert source.sample_rate == 22050 == wav_read(path)[0][0].sample_rate


@pytest.fixture(scope="module")
def codec_files(tmp_path_factory):
    """A mono and a stereo file of 1001 frames in each codec bwx reads,
    keyed (codec, channels)."""
    d = tmp_path_factory.mktemp("codecs")
    rng = np.random.default_rng(3)
    channels = [rng.uniform(-1, 1, 1001) for _ in range(2)]
    paths = {}
    for n_channels in (1, 2):
        for codec in ("pcm16", "pcm24", "float32"):
            paths[codec, n_channels] = d / f"{codec}-{n_channels}.wav"
        write_pcm16(paths["pcm16", n_channels], channels[:n_channels], 8000)
        write_pcm24(paths["pcm24", n_channels], channels[:n_channels], 8000)
        wav_write(paths["float32", n_channels], [Waveform(c, 8000) for c in channels[:n_channels]])
    return paths


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    codec=st.sampled_from(["pcm16", "pcm24", "float32"]),
    n_channels=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_forward_spans_equal_slices_of_whole_read(codec_files, codec, n_channels, data):
    # Ascending spans, each touching or overlapping the last, read through
    # one source are the same slices of the whole read; so are a span
    # clipped at the end and an empty span at n. A span that starts below
    # the samples the source keeps raises.
    path = codec_files[codec, n_channels]
    whole = [ch.samples for ch in wav_read(path)[0]]
    n = len(whole[0])
    start = data.draw(st.integers(0, n + 10), label="first start")
    with _WavSource(path) as source:
        spans = data.draw(st.lists(st.integers(0, 600), max_size=8), label="lengths")
        for i, length in enumerate([*spans, n + 100, 0]):  # then one past the end, one empty
            stop = start + length
            for got, full in zip(source.read(start, stop), whole, strict=True):
                assert np.array_equal(got, full[start:stop])
            if i and min(start, n) > 0:
                with pytest.raises(DomainError, match="read from sample"):
                    source.read(min(start, n) - 1, stop)
            start = data.draw(st.integers(start, stop), label="next start")
        assert all(len(ch) == 0 for ch in source.read(n, n))


def test_header_frame_count(codec_files):
    for (_, n_channels), path in codec_files.items():
        with _WavSource(path) as header:
            assert (header.n_channels, header.n_samples, header.sample_rate) == (n_channels, 1001, 8000)


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) & 1)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("codec", ["pcm16", "pcm24", "float32"])
def test_odd_chunks_before_and_after_data_are_read_past(tmp_path, codec_files, codec):
    canonical = codec_files[codec, 2].read_bytes()
    fmt, data = canonical[12:36], canonical[36:]
    listed = _chunk(b"LIST", b"INFOx")  # odd: five bytes and a pad byte
    path = tmp_path / "listed.wav"
    path.write_bytes(_riff(listed, fmt, listed, data, listed))
    expected, got = wav_read(codec_files[codec, 2])[0], wav_read(path)[0]
    for a, b in zip(got, expected, strict=True):
        assert np.array_equal(a.samples, b.samples)


def test_data_before_fmt_is_malformed(tmp_path, codec_files):
    canonical = codec_files["pcm16", 1].read_bytes()
    path = tmp_path / "data-first.wav"
    path.write_bytes(_riff(canonical[36:], canonical[12:36]))
    for reader in (wav_read, _WavSource):
        with pytest.raises(MalformedHeaderError, match="data chunk before the fmt chunk"):
            reader(path)


@pytest.mark.parametrize("at", [4, 16, 40, 64])
def test_forged_chunk_size_allocates_nothing_it_declares(tmp_path, codec_files, at):
    # 0xFFFFFFFF as the RIFF, fmt, data or an inserted LIST chunk's size: the
    # read fails or reads the file as it is, holding no more than the file
    # and one piece of bytes read at once.
    canonical = codec_files["float32", 2].read_bytes()
    forged = bytearray(_riff(canonical[12:36], _chunk(b"LIST", b"INFO"), canonical[36:]))
    forged[at - 4 : at] = b"LIST" if at == 64 else forged[at - 4 : at]
    forged[at : at + 4] = struct.pack("<I", 0xFFFFFFFF)
    path = tmp_path / "forged.wav"
    path.write_bytes(bytes(forged))
    tracemalloc.start()
    try:
        try:
            wav_read(path)
        except BwxError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(forged) + 2 * bwx.wavio._PIECE_BYTES


def _stream(raw: bytes):
    """A path that reads ``raw`` from a pipe, as ``/dev/stdin`` fed by one."""
    read_end, write_end = os.pipe()
    os.write(write_end, raw)  # within the pipe's buffer: small files only
    os.close(write_end)
    return read_end, f"/dev/fd/{read_end}"


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("size", [None, 0, 0xFFFFFFFF, "short"])
def test_a_stream_reads_as_its_file_or_fails_declaring_nothing(codec_files, size):
    # A stream's data size is not checked against a file size: one that ends
    # early fails at its end, and the placeholders 0 and 0xFFFFFFFF fail at
    # the header, before anything of their size is allocated.
    raw = codec_files["pcm24", 2].read_bytes()
    if size == "short":
        raw = raw[:-10]
    elif size is not None:
        raw = raw[:40] + struct.pack("<I", size) + raw[44:]
    fd, path = _stream(raw)
    tracemalloc.start()
    try:
        if size is None:
            got = wav_read(path)[0]
            for a, b in zip(got, wav_read(codec_files["pcm24", 2])[0], strict=True):
                assert np.array_equal(a.samples, b.samples)
        else:
            match = "ends before" if size == "short" else "placeholder"
            with pytest.raises(TruncatedDataError, match=match):
                wav_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.close(fd)
    assert peak < 8 * len(raw) + 2 * bwx.wavio._PIECE_BYTES


def _mutations():
    flips = st.lists(st.tuples(st.integers(0, 63), st.integers(1, 255)), min_size=1, max_size=4)
    sizes = st.tuples(
        st.sampled_from([4, 16, 40]),  # the RIFF, fmt and data chunk sizes
        st.one_of(st.just(0), st.just(0xFFFFFFFF), st.integers(0, 1 << 20).map(lambda v: 2 * v + 1)),
    )
    return st.one_of(
        flips.map(lambda f: ("flip", f)),
        st.integers(0, 200).map(lambda cut: ("cut", cut)),
        sizes.map(lambda s: ("size", s)),
    )


def _mutated(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    out = bytearray(raw)
    if kind == "flip":
        for offset, bits in arg:
            out[offset] ^= bits
    elif kind == "cut":
        del out[arg:]
    else:
        offset, value = arg
        out[offset : offset + 4] = struct.pack("<I", value)
    return bytes(out)


def _header(path):
    with _WavSource(path) as source:
        return source


def _outcome(read):
    try:
        return read()
    except BwxError as exc:
        return type(exc)


def _forward_pass(path):
    """Every channel of ``path`` through one source in overlapping spans of
    7 frames, a step of 5, then its tail check."""
    with _WavSource(path) as source:
        pieces = [source.read(start, start + 7) for start in range(0, source.n_samples, 5)]
        source.check_unread()
        return [np.concatenate([p[c][:5] for p in pieces] or [np.zeros(0)])
                for c in range(source.n_channels)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(codec=st.sampled_from(["pcm16", "pcm24", "float32"]), mutation=_mutations())
def test_mutated_file_reads_alike_or_raises_a_bwx_error(tmp_path, codec, mutation):
    # Byte flips in the first 64 bytes, a cut at any byte, chunk sizes of 0,
    # odd or 0xFFFFFFFF: the header, the whole read and a forward pass agree
    # or raise a BwxError, and nothing else is raised or warned.
    path = tmp_path / f"small-{codec}.wav"
    if codec == "float32":
        wav_write(path, Waveform(np.linspace(-0.9, 0.9, 40), 8000))
    else:
        (write_pcm16 if codec == "pcm16" else write_pcm24)(path, [np.linspace(-0.9, 0.9, 40)], 8000)
    path.write_bytes(_mutated(path.read_bytes(), mutation))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        header = _outcome(lambda: _header(path))
        whole = _outcome(lambda: wav_read(path))
        passed = _outcome(lambda: _forward_pass(path))
    if isinstance(header, type):
        assert whole is passed is header
        return
    if isinstance(whole, type):
        assert passed is whole
        return
    channels, depth = whole
    assert (header.n_channels, header.sample_rate, header.bits) == (len(channels), channels[0].sample_rate, depth)
    assert len(passed) == len(channels)
    for got, ch in zip(passed, channels):
        assert len(ch) == header.n_samples
        assert np.array_equal(got, ch.samples)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(channels=np.random.default_rng(4).uniform(-1, 1, (2, 1000)).tolist(), cuts=[300, 600, 900])
@given(channels=_float32_channels(), cuts=st.lists(st.integers(0, 50), max_size=5))
def test_streamed_write_equals_whole_write(tmp_path, channels, cuts):
    # The header for the total, then the frames appended block by block in
    # any split, empty blocks included: the bytes of the whole write.
    n = len(channels[0])
    whole = tmp_path / "whole.wav"
    wav_write(whole, [Waveform(c, 8000) for c in channels])
    streamed = tmp_path / "streamed.wav"
    bounds = [0, *sorted(min(cut, n) for cut in cuts), n]
    with open(streamed, "wb") as fh:
        for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            block = [Waveform(c[start:stop], 8000) for c in channels]
            wav_write(fh, block, total_frames=n if i == 0 else None)
    assert streamed.read_bytes() == whole.read_bytes()
