"""The README's "Library tour" runs as written and its CLI synopsis names
every option the parser takes, so the docs cannot drift from the API
unnoticed."""

import argparse
import re
from pathlib import Path

import numpy as np

from bwx import LowpassSpec, Waveform, lowpass, wav_read, wav_write
from bwx.cli import _build_parser

from conftest import SAMPLE_RATE, synth_clip

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_as_written(tmp_path, monkeypatch):
    hr = Waveform(synth_clip(3, duration=1.0), SAMPLE_RATE)
    wav_write(tmp_path / "hr.wav", hr)
    wav_write(tmp_path / "lr.wav", lowpass(hr, LowpassSpec(cutoff_hz=4000.0)))
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(_tour_code(), str(README), "exec"), namespace)

    written = wav_read(tmp_path / "reconstructed.wav")[0]
    assert len((tmp_path / "gla_trace.csv").read_text().splitlines()) == 1 + 100
    assert namespace["residuals"].shape == (20,)
    # The in-memory call, given the reference decoded, writes what the file
    # call wrote.
    assert [ch.samples.astype(np.float32).tobytes() for ch in namespace["channels"]] == [
        ch.samples.astype(np.float32).tobytes() for ch in written
    ]


def _leaf_options(parser, prefix=()):
    """{command words: the parser's --options, --help excluded} for every
    leaf command under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {prefix: {o for a in parser._actions for o in a.option_strings
                         if o.startswith("--") and o != "--help"}}
    leaves = {}
    for name, child in subparsers[0].choices.items():
        leaves.update(_leaf_options(child, (*prefix, name)))
    return leaves


def test_cli_synopsis_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text.split("## CLI", 1)[1], re.S).group(1)
    # One line per command once the continuation lines are joined.
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("bwx ")]
    parsed = _leaf_options(_build_parser())
    documented = {
        leaf: {o for line in commands if line.split()[1 : 1 + len(leaf)] == list(leaf)
               for o in re.findall(r"--[a-z][a-z-]*", line)}
        for leaf in parsed
    }
    assert documented == parsed
