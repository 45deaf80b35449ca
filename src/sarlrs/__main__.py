"""`python -m sarlrs`: the same command line as the `sarlrs` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
