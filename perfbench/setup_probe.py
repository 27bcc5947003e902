"""Set-up probe, run in a fresh process: import the CLI, load one config, say ready.

Usage: python3 perfbench/setup_probe.py CONFIG
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kzrat.cli  # noqa: E402

kzrat.cli.load_config(sys.argv[1], {})
sys.stdout.write("ready\n")
sys.stdout.flush()
