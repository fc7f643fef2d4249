"""The README's library quick tour runs as written and does what it says."""

import re
from fractions import Fraction
from pathlib import Path

from tracetwist import TracePoint

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    tour: dict = {}
    exec(compile(blocks[0], str(README), "exec"), tour)
    assert tour["component"].value == "sl2r_compact"
    assert tour["S"] == (Fraction(-17, 16), -1)
    assert tour["q"] == TracePoint(Fraction(-17, 16), 0, 0)
    assert tour["orbit"].is_finite and tour["orbit"].cardinality == 2
