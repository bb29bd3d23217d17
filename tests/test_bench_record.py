"""The gain, bound and resolution verdicts of ``tools/bench_record.py``, and the
harness hashes and source sizes it records per side."""

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


def test_spread_wider_than_the_bound_is_unresolved():
    # Baseline median 2.0, bound 0.25: a middle half wider than 0.5 s on
    # either side cannot tell a 0.25 x 2.0 s change from noise.
    baseline = [1.0, 1.2, 1.4, 2.0, 2.0, 2.0, 2.0, 2.6, 2.8, 3.0]
    change = [2.0 + 0.01 * i for i in range(10)]
    verdict = _verdict(baseline, change)
    assert verdict["baseline"]["q3"] - verdict["baseline"]["q1"] > 0.25 * 2.0
    assert verdict["resolved"] is False
    assert _verdict(change, baseline)["resolved"] is False  # the change's spread counts too


def test_wide_spread_is_resolved_when_every_change_run_wins():
    baseline = [2.0, 3.0, 4.0, 5.0, 6.0]  # middle half 2.0, bound 0.25 x 4.0
    change = [0.5, 1.0, 1.5, 1.8, 1.9]
    assert _verdict(baseline, change)["resolved"] is True
    # One change run that loses to a baseline run leaves it unresolved.
    assert _verdict(baseline, change[:-1] + [2.1])["resolved"] is False


def test_steady_runs_are_resolved():
    baseline = [2.0 + 0.01 * i for i in range(10)]
    change = [2.2 + 0.01 * i for i in range(10)]
    verdict = _verdict(baseline, change)
    assert verdict["resolved"] is True
    assert verdict["within_bound"] is True


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


HARNESS_FILES = {"perfbench/run.py": "run", "perfbench/worker.py": "work", "BENCHMARK.json": "{}"}


def test_same_harness_files_hash_alike(tmp_path, capsys):
    tool = _tool()
    names = sorted(HARNESS_FILES)
    sides = {side: tool._harness(_tree(tmp_path / side, HARNESS_FILES), names)
             for side in ("baseline", "change")}
    assert sides["baseline"]["BENCHMARK.json"] == (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"  # sha256 of "{}"
    )
    record = {side: {"harness": hashes} for side, hashes in sides.items()}
    tool._check_harness(record)
    assert record["same_harness"] is True
    assert capsys.readouterr().err == ""


def test_a_changed_or_missing_harness_file_is_flagged(tmp_path, capsys):
    tool = _tool()
    names = sorted(HARNESS_FILES)
    base = tool._harness(_tree(tmp_path / "baseline", HARNESS_FILES), names)
    changed = tool._harness(_tree(tmp_path / "change", HARNESS_FILES | {"perfbench/run.py": "run!"}),
                            names + ["perfbench/gone.py"])
    assert changed["perfbench/gone.py"] is None
    record = {"baseline": {"harness": base}, "change": {"harness": changed}}
    tool._check_harness(record)
    assert record["same_harness"] is False
    warning = capsys.readouterr().err
    assert "warning" in warning and "perfbench/gone.py, perfbench/run.py differ" in warning
    assert "worker.py" not in warning


def test_source_size_counts_lines_and_public_names(tmp_path):
    root = _tree(tmp_path, {
        "src/bwx/__init__.py": '"""Doc."""\n\nfrom .a import f\n\n__all__ = [\n    "f",\n    "g",\n]\n',
        "src/bwx/a.py": (
            "def f():\n    class Local:\n        pass\n    return 1\n\n\n"  # nested: not counted
            "class A:\n    class Inner:\n        pass\n\n\n"  # A counts, Inner does not
            "class B(A):\n    pass\n"
        ),
        "src/bwx/b.py": "X = 1",  # no final newline: wc -l does not count that line
        "src/bwx/cli.py": (
            'p.add_argument("--in", dest="input")\n'
            'p.add_argument("--taps", type=int)\n'
            'p.add_argument("paths", nargs="*")\n'  # positional: not an option
            'p.add_argument("-v")\n'  # short only: not counted
            'p.add_subparsers(dest="command")\n'
        ),
        "src/bwx/sub/c.py": "class C:\n    pass\n",  # not in the package's top level
        "src/other.py": "class D:\n    pass\n",
    })
    assert _tool()._source_size(root) == {
        "source_lines": 26, "types": 2, "public_names": 2, "cli_options": 2
    }


def test_public_names_of_this_tree_are_bwx_all():
    import bwx

    assert _tool()._source_size(TOOL.parent.parent)["public_names"] == len(bwx.__all__)


def test_types_of_this_tree_are_the_classes_its_modules_define():
    import importlib
    import inspect

    names = [f"bwx.{path.stem}".removesuffix(".__init__") for path in TOOL.parent.parent.glob("src/bwx/*.py")]
    classes = [
        value
        for module in map(importlib.import_module, names)
        for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    assert _tool()._source_size(TOOL.parent.parent)["types"] == len(classes)
