"""`python -m qgha`: the same command line as the `qgha` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
