"""No floating-point randomness enters a draw.

The exact samplers in ``dp.py`` take their randomness only from
``Generator.integers`` on bounded ranges. A float-valued draw (``random``,
``normal``, ``uniform``, ``exponential``, the ``standard_*`` family) turned
into an integer would sample a slightly different distribution and void the
privacy guarantee, so ``dp.py`` may call no Generator method but
``integers``.
"""

import ast
from pathlib import Path

import numpy as np

import panelsynth.dp

GENERATOR_METHODS = {name for name in dir(np.random.Generator) if not name.startswith("_")}
FLOAT_VALUED = {"random", "normal", "uniform", "exponential"} | {
    name for name in GENERATOR_METHODS if name.startswith("standard_")
}


def test_dp_calls_no_float_valued_generator_method():
    assert FLOAT_VALUED <= GENERATOR_METHODS
    tree = ast.parse(Path(panelsynth.dp.__file__).read_text())
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert called & FLOAT_VALUED == set()
    assert called & GENERATOR_METHODS == {"integers"}
