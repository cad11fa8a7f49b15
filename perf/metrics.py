"""Names and units of every metric the benchmark emits.

``/BENCHMARK.json`` is where they are declared, with direction and
regression bound; ``README.md`` groups them by the layer that owns each
number.  Later issues cite the names verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: name -> unit
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

#: End-to-end metrics that are wall-clock times: normalised, with an
#: un-normalised ``raw.<name>`` twin in the per-layer set.
TIMED = tuple(name[4:] for name in PER_LAYER if name.startswith("raw."))
