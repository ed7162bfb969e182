"""Run ttprep on the shipped config/fixture pairs and compare two such runs.

The regression check for a refactor is that every command gives the same
files on every shipped pair.  Two subcommands:

    python3 tools/shipped_outputs.py run OUT_DIR [--checkout DIR]
                                             [--config NAME ...]
    python3 tools/shipped_outputs.py compare A_DIR B_DIR

``run`` executes ``project``, ``estimate``, ``sweep`` and ``oracle`` for each
shipped config (``configs/*.json``; a config ``X_suffix.json`` uses the
fixture ``X``) in a fresh interpreter on the sources of ``--checkout``
(default: this repository), so an older checkout that predates this script
can be run too.  Each command writes into ``OUT_DIR/<config>/<command>/``,
and its exit code and output go to ``OUT_DIR/<config>/<command>.txt`` with
the output directory replaced by ``<out>``.

``compare`` prints every file that differs between two run directories.
Files are split into number and text tokens.  For a differing file it
prints, on one line, the largest relative and the largest absolute change
of any float (a value at the round-off floor that goes 0 -> 2e-16 changes
by 1.0 relative but by 2e-16 absolute), and every changed integer or text
token (bond dimensions, qubit counts, PASS/FAIL/SKIP).  It exits 1
when anything differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("project", "estimate", "sweep", "oracle")

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
                     r"|\b(?:nan|inf)\b")


def shipped_configs(checkout: Path) -> list[str]:
    return sorted(p.stem for p in (checkout / "configs").glob("*.json"))


def fixture_for(checkout: Path, config: str) -> Path:
    """The fixture a config runs on: its own name, else its name's prefix."""
    fixtures = checkout / "src" / "ttprep" / "fixtures"
    name = config
    while not (fixtures / f"{name}.json").exists():
        if "_" not in name:
            raise FileNotFoundError(f"no shipped fixture for config {config}")
        name = name.rsplit("_", 1)[0]
    return fixtures / f"{name}.json"


def run(out_dir: Path, checkout: Path = REPO, configs=None) -> None:
    """Run every command on every selected config into out_dir."""
    checkout = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for config in configs or shipped_configs(checkout):
        fixture = fixture_for(checkout, config)
        for cmd in COMMANDS:
            dest = (out_dir / config / cmd).resolve()
            dest.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "ttprep.cli", cmd,
                 "--config", str(checkout / "configs" / f"{config}.json"),
                 "--fixture", str(fixture), "--out", str(dest)],
                env=env, capture_output=True, text=True, check=False)
            log = (f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
                   .replace(str(dest), "<out>"))
            (out_dir / config / f"{cmd}.txt").write_text(
                log, encoding="utf-8", newline="\n")


def _tokens(text: str):
    """The text pieces between the numbers of a file, and the numbers."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def _is_int(token: str) -> bool:
    return not any(ch in token for ch in ".eEni")


def compare_file(a: str, b: str) -> list[str]:
    """Differences between two texts, or [] when they are identical."""
    if a == b:
        return []
    text_a, nums_a = _tokens(a)
    text_b, nums_b = _tokens(b)
    if len(nums_a) != len(nums_b):
        return [f"structure differs: {len(nums_a)} vs {len(nums_b)} numbers"]
    out = [f"text {x!r} -> {y!r}"
           for x, y in zip(text_a, text_b) if x != y]
    worst_rel = worst_abs = None
    for x, y in zip(nums_a, nums_b):
        if x == y:
            continue
        if _is_int(x) and _is_int(y):
            out.append(f"integer {x} -> {y}")
            continue
        fx, fy = float(x), float(y)
        change = abs(fx - fy)
        scale = max(abs(fx), abs(fy))
        rel = change / scale if scale else 0.0
        if worst_rel is None or rel > worst_rel[0]:
            worst_rel = (rel, x, y)
        if worst_abs is None or change > worst_abs[0]:
            worst_abs = (change, x, y)
    if worst_rel is not None:
        out.insert(0, "largest relative float change {:.3e} ({} -> {}); "
                      "largest absolute change {:.3e} ({} -> {})".format(
                          *worst_rel, *worst_abs))
    return out


def compare(a_dir: Path, b_dir: Path) -> list[str]:
    """One report line per difference between two run directories."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    fa, fb = files(a_dir), files(b_dir)
    lines = [f"{p}: only in {a_dir}" for p in sorted(fa - fb)]
    lines += [f"{p}: only in {b_dir}" for p in sorted(fb - fa)]
    for p in sorted(fa & fb):
        diffs = compare_file((a_dir / p).read_text(encoding="utf-8"),
                             (b_dir / p).read_text(encoding="utf-8"))
        lines += [f"{p}: {d}" for d in diffs]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="run all commands on the shipped pairs")
    p_run.add_argument("out_dir", type=Path)
    p_run.add_argument("--checkout", type=Path, default=REPO,
                       help="repository whose src/ and configs/ are run")
    p_run.add_argument("--config", action="append",
                       help="run only this shipped config (repeatable)")
    p_cmp = sub.add_parser("compare", help="print differences of two runs")
    p_cmp.add_argument("a_dir", type=Path)
    p_cmp.add_argument("b_dir", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        run(args.out_dir, args.checkout, args.config)
        return 0
    lines = compare(args.a_dir, args.b_dir)
    print("\n".join(lines) if lines else "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
