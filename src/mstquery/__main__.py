"""`python -m mstquery`: the same command line as the `mstquery` script."""

import sys

from .cli import main

sys.exit(main())
