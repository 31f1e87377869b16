"""Every CLI job pays for `import isoplab.cli` before `main` runs.

The library keeps that import to what it uses: no `dataclasses` (which
pulls in `inspect`, `ast`, `dis` and `tokenize`), no `statistics` for one
median, and `hashlib` only inside the branch that digests a large set's
provenance.  The benchmark's instrumentation, on the other hand, looks up
`sys.modules["isoplab.<layer>"]` right after that import, so every module it
wraps must be loaded by it, not deferred.

The import runs in a fresh interpreter with `-I -S`, so neither the caller's
environment nor site-packages start-up hooks load modules of their own, and
with `-B`, so it leaves no bytecode files behind.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import isoplab.cli
loaded = sorted(sys.modules)
import layers
wrapped = sorted({{module for module, _ in layers.LAYER_FUNCTIONS.values()}})
print(json.dumps({{"loaded": loaded, "wrapped": wrapped}}))
"""

NOT_AT_STARTUP = ("dataclasses", "inspect", "hashlib", "statistics")


def import_cli_fresh():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_skips_unused_stdlib_modules():
    loaded = import_cli_fresh()["loaded"]
    assert [name for name in NOT_AT_STARTUP if name in loaded] == []


def test_cli_import_loads_every_wrapped_layer():
    modules = import_cli_fresh()
    assert modules["wrapped"] == [
        "isoplab.acceptance", "isoplab.cli", "isoplab.isoperimetry", "isoplab.metric",
        "isoplab.search",
    ]
    assert [name for name in modules["wrapped"] if name not in modules["loaded"]] == []
