"""``python -m benchmarks.e2e``: the same command as ``run.py``."""

import sys

from .cli import main

sys.exit(main())
