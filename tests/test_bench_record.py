"""The gain and bound verdicts of ``tools/bench_record.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
CPU = {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(baseline, change):
    return [
        {side: {"correct": True, "metrics": {"cpu_s": value}}
         for side, value in (("baseline", b), ("change", c))}
        for b, c in zip(baseline, change)
    ]


def _verdict(baseline, change):
    return _tool()._compare(_pairs(baseline, change), [CPU])["cpu_s"]


def test_three_pairs_all_won_show_no_gain():
    verdict = _verdict([2.0, 2.1, 2.2], [1.0, 1.1, 1.2])
    assert verdict["change_wins"] == 3
    assert verdict["gain_shown"] is False


def test_nine_of_ten_pairs_won_show_a_gain():
    baseline = [2.0 + 0.01 * i for i in range(10)]
    change = [1.0 + 0.01 * i for i in range(9)] + [3.0]
    verdict = _verdict(baseline, change)
    assert verdict["change_wins"] == 9
    # Medians 1.045 and 2.045, further apart than the baseline's IQR (0.045).
    assert verdict["gain_shown"] is True


def test_eight_of_ten_pairs_won_show_no_gain():
    baseline = [2.0 + 0.01 * i for i in range(10)]
    change = [1.0 + 0.01 * i for i in range(8)] + [3.0, 3.0]
    verdict = _verdict(baseline, change)
    assert verdict["change_wins"] == 8
    assert verdict["gain_shown"] is False
