"""``python -m repro.cli`` is the ``repro-irs`` console script."""

import sys

from repro.cli import run

sys.exit(run())
