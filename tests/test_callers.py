"""Every top-level function and class in src/rdnorm, private ones too, has
a caller in src/rdnorm.

Code that only tests call belongs with the tests (tests/oracles.py), and a
private helper that a refactor leaves without a caller is deleted.  The
walk covers each module but __init__.py, which re-exports everything, and
counts a name as used where code other than its own definition names it.
Three names stand without a caller until the rules are proven and derived
from the Richaud-Degert shapes (ROADMAP items 7-9), which decide whether
they gain one or leave:

- rd_classify: the decomposition m = t**2 + r with |r| <= t and r | 4t,
  the shapes a derived rule ranges over (it builds RDForm);
- rd_unit: the closed-form unit for r in {1, -1, 2, -2}, for use where it
  is proven fundamental;
- reduce_half: the paper's half-window reduction for m = t**2 + 2, held by
  tests/test_reduction.py::TestReduceHalf.
"""

import ast
import os

import rdnorm

UNCALLED = {"rd_classify", "rd_unit", "reduce_half"}


def test_only_the_listed_names_lack_a_caller():
    src = os.path.dirname(rdnorm.__file__)
    defined, named = set(), set()
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        with open(os.path.join(src, filename)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            named |= {sub.id for sub in ast.walk(node)
                      if isinstance(sub, ast.Name) and sub.id != own}
    assert defined - named == UNCALLED
