"""What importing the package costs: the modules it loads.

``import splitorders`` and ``import splitorders.cli`` must not pull in
``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``) or ``xml.etree.ElementTree``, which only drawing needs and
``render_polytope_svg`` loads on first use.
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


def _probe() -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
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
    # drawing loads ElementTree on first use
    assert "xml.etree.ElementTree" in probe["after_draw"]


def test_render_still_returns_the_golden_svg():
    nu = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
    variant = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    golden = (GOLDEN / "region.svg").read_text(encoding="utf-8")
    golden_variant = (GOLDEN / "region_variant_scale25_margin05.svg").read_text(
        encoding="utf-8"
    )
    assert render_polytope_svg(nu) == golden
    assert render_polytope_svg(variant, scale=25.0, margin=0.5) == golden_variant
