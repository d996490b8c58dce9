"""Set-up probe: import gathernoc, load the layer database and build one
workload's configs, then print ``ready``.

run.py times a fresh interpreter running this file from process start to
the ``ready`` line; that is the workload's set-up time.

    python3 perfbench/setup_probe.py <workload> <seed> [--quick]
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports gathernoc)
from gathernoc import workload  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name](quick="--quick" in sys.argv[3:])
    wl.configs(workload.builtin_layer_db(), seed, HERE / "out")
    print("ready", flush=True)
