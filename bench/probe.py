"""Cold-start probe: `python3 bench/probe.py solve|certify` imports semdef,
builds the workload's inputs, makes its first small calls and exits.  Its
wall time from process start to exit is one sample of setup_s."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402

inputs.prepare(sys.argv[1])
