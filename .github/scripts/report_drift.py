"""Name what drifted in the regenerated ``BENCH_*.json`` reports, then fail.

CI's ``artifacts-stable`` job regenerates the eighteen deterministic
reports, each bench's at default size and at ``--quick`` size
(``BENCH_<name>_quick.json``; seven benches on simulated clocks, two on a
virtual-time event loop), and requires them byte-identical to the
committed ones.  ``git diff
--exit-code`` can only say *that* a byte moved; this says *where*: for each
report that differs from ``HEAD``, the path of its first differing key and
both values — a reordered float addition shows up as one busy-seconds
total, twelve digits in.  Exit status 1 on any drift, 0 on none.
"""

from __future__ import annotations

import json
import subprocess
import sys


def first_difference(committed, regenerated, path=""):
    """Return ``(path, committed, regenerated)`` of the first difference, or ``None``."""
    if isinstance(committed, dict) and isinstance(regenerated, dict):
        for key in committed:
            if key not in regenerated:
                return f"{path}.{key}", committed[key], "<absent>"
            found = first_difference(committed[key], regenerated[key], f"{path}.{key}")
            if found:
                return found
        for key in regenerated:
            if key not in committed:
                return f"{path}.{key}", "<absent>", regenerated[key]
        return None
    if isinstance(committed, list) and isinstance(regenerated, list):
        for i, (old, new) in enumerate(zip(committed, regenerated)):
            found = first_difference(old, new, f"{path}[{i}]")
            if found:
                return found
        if len(committed) != len(regenerated):
            return f"{path}.length", len(committed), len(regenerated)
        return None
    # repr, not ==: 0 and 0.0, or 1 and True, are different bytes on disk.
    if repr(committed) != repr(regenerated):
        return path, committed, regenerated
    return None


def main() -> int:
    changed = subprocess.run(
        ["git", "diff", "--name-only", "--", "BENCH_*.json"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    for name in changed:
        committed = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            check=True, capture_output=True, text=True,
        ).stdout
        with open(name, encoding="utf-8") as handle:
            regenerated = handle.read()
        found = first_difference(json.loads(committed), json.loads(regenerated))
        if found is None:
            print(f"{name}: same values, different bytes (key order or formatting)")
        else:
            path, old, new = found
            print(f"{name}: first drift at {path.lstrip('.')}: {old!r} -> {new!r}")
    if changed:
        print(f"{len(changed)} deterministic report(s) drifted")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
