"""``python -m emgtcn``: the command-line interface, without the
installed ``emgtcn`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
