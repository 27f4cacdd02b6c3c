"""README.md's examples and figures, checked against the code."""

import contextlib
import io
import re
from pathlib import Path

from lockstep.catalog import get
from lockstep.explorer import explore
from lockstep.scenarios import loads

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    """The fenced code blocks of README.md in language ``lang``, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_every_json_block_is_a_scenario_that_loads():
    assert blocks("json")
    for text in blocks("json"):
        loads(text)


def test_the_quick_start_prints_what_its_comments_say():
    """Each ``print(...)  # X ...`` line of the Quick start prints X, the
    comment's first word."""
    code = blocks("python")[0]
    said = [line.split("#", 1)[1].split()[0] for line in code.splitlines()
            if line.startswith("print(") and "#" in line]
    assert said == ["90", "frozenset({'torn_read'})", "3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[:len(said)] == said


def test_the_catalog_table_counts_schedules_right():
    """Every catalog table row that gives a schedule count gives explore's."""
    rows = re.findall(r"^\| `([a-z-]+)` \| .*?(\d[\d ]*) schedules \|$", README, re.M)
    counts = {name: int(n.replace(" ", "")) for name, n in rows}
    assert counts == {"torn-read-locked": 6, "dekker-mutex": 7_625_520}
    for name, n in counts.items():
        assert explore(get(name)).schedules_complete == n
