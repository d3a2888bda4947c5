import re
from pathlib import Path

import conegate

ROOT = Path(__file__).resolve().parent.parent


def test_package_exports_every_name_the_product_paths_use():
    # the acceptance suite and the benchmark workloads read the package as cg.<name>
    names = set()
    for rel in ("tests/test_acceptance.py", "perfbench/workloads.py"):
        names |= set(re.findall(r"\bcg\.(\w+)", (ROOT / rel).read_text()))
    assert len(names) > 20
    assert sorted(n for n in names if not hasattr(conegate, n)) == []
