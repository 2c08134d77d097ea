"""The int64 bound on the engines' noise variance has one home.

``dp.MAX_NOISE_SIGMA2 = 2**62`` bounds every noise variance an engine holds,
so its noisy counts fit in int64. A second spelling of 2**62 elsewhere in the
package could drift from it, so no module but ``dp.py`` may spell it.
"""

import re
from pathlib import Path

import panelsynth
import panelsynth.dp

SPELLINGS = re.compile(r"2\s*\*\*\s*62|1\s*<<\s*62")


def test_dp_defines_the_bound():
    assert panelsynth.dp.MAX_NOISE_SIGMA2 == 2**62


def test_no_other_module_spells_the_bound():
    modules = sorted(Path(panelsynth.__file__).parent.glob("*.py"))
    assert Path(panelsynth.dp.__file__) in modules
    spelled = [path.name for path in modules
               if path.name != "dp.py" and SPELLINGS.search(path.read_text())]
    assert spelled == []
