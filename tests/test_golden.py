"""Frozen CLI outputs: every case re-runs the CLI in-process and compares
its stdout with the file under ``tests/golden/``.

Fixture cases must match byte for byte, and so must the Gaussian cases
(``cca`` and ``gauss-regress`` on ``gauss_model.json``, a fixed 4 x 3 model
whose CCM is wide, so the SVD takes its transposed branch).  The
rank-deficient cases (a joint of planted rank 2 decomposed at order 4, so
two zero modes are completed on both the oracle and the ACE path) must
agree within 1e-12 absolute on every number, since the zero-mode basis
passes through a sqrt-marginal round trip.

Regenerate (only when an output change is intended and recorded in
CHANGES.md) with ``PYTHONPATH=src python tests/test_golden.py [NAME ...]``:
only the named cases (e.g. ``ace_rankdef``), or every case when no name is
given.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from modalkit.cli import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RANKDEF_INPUT = GOLDEN / "synth_rankdef.json"
GAUSS_INPUT = GOLDEN / "gauss_model.json"


def _fixture_cases():
    for path in sorted((ROOT / "fixtures").glob("*.tsv")):
        src = ["--input", str(path)]
        stem = path.stem
        yield f"decompose_{stem}", ["decompose", *src, "--k", "1"]
        yield f"ace_{stem}", ["ace", *src, "--k", "1", "--tol", "1e-14"]
        yield f"recommend_{stem}", ["recommend", *src, "--k", "1", "--user", "0", "--top", "2"]
        yield f"common-info_{stem}", ["common-info", *src]
        for exp in ("sigma", "feature", "mi"):
            yield f"sc-{exp}_{stem}", [
                "sample-complexity", *src, "--k", "1", "--trials", "50", "--experiment", exp,
            ]
    yield "synth", ["synth", "--k", "2", "--seed", "7", "--x-size", "4", "--y-size", "5"]
    yield "synth_rankdef", [
        "synth", "--k", "2", "--seed", "7", "--x-size", "6", "--y-size", "5", "--eps", "0.1",
    ]


def _gaussian_cases():
    src = ["--input", str(GAUSS_INPUT)]
    yield "cca_gauss", ["cca", *src, "--k", "2"]
    yield "gauss-regress_gauss", ["gauss-regress", *src, "--k", "2"]


def _rankdef_cases():
    src = ["--input", str(RANKDEF_INPUT), "--format", "json"]
    yield "decompose_rankdef", ["decompose", *src, "--k", "4"]
    yield "ace_rankdef", ["ace", *src, "--k", "4", "--tol", "1e-14"]
    yield "common-info_rankdef", ["common-info", *src]


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli(argv)
    assert code == 0, argv
    return buf.getvalue()


def _assert_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert abs(got - want) <= 1e-12, f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize(
    "name,argv", [pytest.param(n, a, id=n) for n, a in [*_fixture_cases(), *_gaussian_cases()]]
)
def test_fixture_output_is_byte_identical(name, argv):
    assert _run(argv) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", [pytest.param(n, a, id=n) for n, a in _rankdef_cases()])
def test_rank_deficient_output_within_1e12(name, argv):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    _assert_close(json.loads(_run(argv)), want)


if __name__ == "__main__":
    # The rank-deficient cases read synth_rankdef.json, so fixture cases go first.
    cases = dict([*_fixture_cases(), *_gaussian_cases(), *_rankdef_cases()])
    names = sys.argv[1:] or list(cases)
    unknown = [n for n in names if n not in cases]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.json").write_text(_run(cases[name]), encoding="utf-8")
