"""The shipped-outputs regression tool finds no change between two runs of
the same code, and does report a changed number or status; every shipped
output matches its committed golden file."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "shipped_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("shipped_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_h_like_1s_against_itself(tmp_path):
    tool = _load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    tool.run(a, configs=["h_like_1s"])
    tool.run(b, configs=["h_like_1s"])
    assert tool.compare(a, b) == []
    assert {p.name for p in (a / "h_like_1s").iterdir()} == {
        "project", "estimate", "sweep", "oracle",
        "project.txt", "estimate.txt", "sweep.txt", "oracle.txt"}

    oracle = b / "h_like_1s" / "oracle.txt"
    text = oracle.read_text(encoding="utf-8")
    assert text.startswith("exit 0\n") and "CHECK gram_vs_dense: PASS" in text
    oracle.write_text(text.replace("CHECK gram_vs_dense: PASS",
                                   "CHECK gram_vs_dense: FAIL"),
                      encoding="utf-8")
    report = b / "h_like_1s" / "estimate" / "h_like_1s_report.json"
    text = report.read_text(encoding="utf-8")
    # a round-off value that drops to zero changes most in relative terms;
    # eps1 with a digit 2 prefixed changes most in absolute terms
    [tiny] = re.findall(r'"infidelity": (\S+?),', text)
    [x] = re.findall(r'"eps1": (\S+?),', text)
    y = "2" + x
    report.write_text(text.replace(f'"infidelity": {tiny},',
                                   '"infidelity": 0.0,')
                      .replace(f'"eps1": {x},', f'"eps1": {y},'),
                      encoding="utf-8")
    lines = tool.compare(a, b)
    assert any(line.startswith("h_like_1s/oracle.txt: text")
               and "FAIL" in line for line in lines)
    assert (f"h_like_1s/estimate/h_like_1s_report.json: largest relative "
            f"float change 1.000e+00 ({tiny} -> 0.0); largest absolute "
            f"change {float(y) - float(x):.3e} ({x} -> {y})") in lines
    assert len(lines) == 2


def test_shipped_outputs_match_the_golden_files(tmp_path):
    """Every command on every shipped pair gives the committed outputs
    under tests/golden/: each integer and text token (bonds, Toffoli
    floors, qubit counts, PASS/SKIP/FAIL) exactly, each float within the
    tool's tolerance.  An intended output change is rewritten there by
    `python3 tools/shipped_outputs.py bless` and stated in CHANGES.md."""
    tool = _load_tool()
    tool.run(tmp_path)
    assert tool.compare(tool.GOLDEN, tmp_path, tolerant=True) == []


def test_golden_tolerance_forgives_only_float_round_off():
    """A float may move 1e-9 relative, or 5e-7 absolute when both values
    are below 1e-6; an integer, a text token or a larger move may not."""
    tool = _load_tool()
    base = "bond 7: toffoli 1234.5, D = 5.162e-08, PASS\n"
    moved = "bond 7: toffoli 1234.5000001, D = 3.2e-07, PASS\n"
    assert tool.compare_file(base, moved, tolerant=True) == []
    assert tool.compare_file(base, moved) != []
    for old, new in (("bond 7", "bond 8"), ("1234.5", "1234.51"),
                     ("5.162e-08", "9e-07"), ("5.162e-08", "2e-06"),
                     ("PASS", "FAIL")):
        assert tool.compare_file(base, base.replace(old, new),
                                 tolerant=True) != [], new
