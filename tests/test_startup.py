"""What importing the package costs: the modules it loads.

``import splitorders`` and ``import splitorders.cli`` must not pull in
``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``) or ``xml.etree.ElementTree``, which drawing does not load
either: ``render_polytope_svg`` writes its SVG as text.  Nor may they load
``fractions`` (which loads ``decimal``); the first Fraction built loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import splitorders
from splitorders.exponent import ExponentMatrix
from splitorders.render import render_polytope_svg

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(splitorders.__file__).resolve().parent.parent)

PROBE = """
import json, sys
before = set(sys.modules)
import splitorders, splitorders.cli
added = set(sys.modules) - before
from splitorders.exponent import ExponentMatrix
splitorders.render_polytope_svg(ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]]))
print(json.dumps({"added": sorted(added), "after_draw": sorted(sys.modules)}))
"""

NEVER_IMPORTED = ("dataclasses", "inspect", "xml.etree.ElementTree")

FRACTION_PROBE = """
import json, sys
before = set(sys.modules)
import splitorders, splitorders.cli
from splitorders.dvr import LocalMatrix, LocalScalar
loaded = [m for m in ("fractions", "decimal") if m in set(sys.modules) - before]
det = LocalMatrix([[1, 2], [3, 4]], 2).det()
value = LocalScalar("3/4", 2).value
from fractions import Fraction
print(json.dumps({
    "loaded_before_use": loaded,
    "real_fractions": [type(det) is Fraction, type(value) is Fraction],
    "values": [str(det), str(value)],
}))
"""


def _probe(script: str = PROBE) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def test_import_loads_no_dataclasses_inspect_or_elementtree():
    probe = _probe()
    assert "splitorders.cli" in probe["added"]
    assert [m for m in NEVER_IMPORTED if m in probe["added"]] == []
    assert "xml.etree.ElementTree" not in probe["after_draw"]


def test_import_loads_no_fractions_until_a_fraction_is_built():
    probe = _probe(FRACTION_PROBE)
    assert probe["loaded_before_use"] == []
    assert probe["real_fractions"] == [True, True]
    assert probe["values"] == ["-2", "3/4"]


def test_render_still_returns_the_golden_svg():
    nu = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
    variant = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    golden = (GOLDEN / "region.svg").read_text(encoding="utf-8")
    golden_variant = (GOLDEN / "region_variant_scale25.svg").read_text(encoding="utf-8")
    assert render_polytope_svg(nu) == golden
    assert render_polytope_svg(variant, scale=25.0) == golden_variant
