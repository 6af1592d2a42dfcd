"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py WORKLOAD SEED SIZE

Times `import bellpoly`, then the workload's first call of each function it
uses (one item of each input class), which fills the program's lazy caches.
Generating the inputs is not timed.  Prints one JSON object:
{"import_s", "first_s", "problems"}.
"""

import json
import sys
import time
from pathlib import Path


def main(name: str, seed: int, size: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import bellpoly  # noqa: F401  (timed before anything else loads numpy)

    import_s = time.perf_counter() - start

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    firsts = wl.setup_items(wl.generate(seed, size == "tiny"))
    api = tracing.bind()
    start = time.perf_counter()
    outs = [wl.run(api, item) for item in firsts]
    first_s = time.perf_counter() - start
    problems = [p for item, out in zip(firsts, outs) for p in wl.check(item, out)[0]]
    print(json.dumps({"import_s": import_s, "first_s": first_s, "problems": problems}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
