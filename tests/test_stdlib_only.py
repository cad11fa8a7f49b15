"""The package imports only the standard library.

Every process the package starts — ``repro serve``, each ``repro bench-*``,
each test worker — pays for what it imports, resident and in threads, and
a third-party import is also a second program on machines that lack it.
So the law: importing the package's entry points loads no module outside
``sys.stdlib_module_names`` except the package's own.  It runs in a fresh
interpreter, and only modules *newly* loaded by those imports count:
whatever ``site`` loaded first (``.pth`` hooks and the like) is not the
package's doing.
"""

import os
import subprocess
import sys

import repro

ENTRY_POINTS = ("repro", "repro.cluster", "repro.serve", "repro.cli", "repro.bench")

PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
for name in {names!r}:
    __import__(name)
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print("\\n".join(sorted(loaded)))
"""


def newly_loaded_top_level_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-I", "-c", PROBE.format(src=src, names=ENTRY_POINTS)],
        capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_the_entry_points_load_nothing_outside_the_standard_library():
    loaded = newly_loaded_top_level_modules()
    assert "repro" in loaded and "asyncio" in loaded  # the probe saw the imports
    assert loaded - set(sys.stdlib_module_names) - {"repro"} == set()
