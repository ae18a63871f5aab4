"""Golden byte-identity: checked-in reports regenerate byte for byte.

Each pair in ``docs/`` was produced by the CLI command listed here, the
input by ``zygdist generate`` at seed 7; any change to the numbers, their
order or the report layout fails the gate.
"""

from pathlib import Path

import pytest

from zygdist.cli import EXIT_OK, main

DOCS = Path(__file__).resolve().parent.parent / "docs"

GOLDEN = [
    ("distance-ibmo", "golden-input.json", "golden-report.json", ["distance-ibmo", "--depths", "6,7,8"]),
    ("sobolev", "golden-sobolev-input.json", "golden-sobolev-report.json", ["sobolev"]),
    ("measure-1d", "golden-measure-1d-input.json", "golden-measure-1d-report.json", ["measure"]),
    ("measure-2d", "golden-measure-2d-input.json", "golden-measure-2d-report.json", ["measure"]),
]


@pytest.mark.parametrize(
    "source, expected, argv", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_report_bytes(tmp_path, source, expected, argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--in", str(DOCS / source), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (DOCS / expected).read_bytes()
