"""``python -m ftcost``: the command-line interface, runnable from a source tree."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
