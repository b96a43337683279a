"""``python -m benchmarks.e2e`` — the same entry point as ``run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
