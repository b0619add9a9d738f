"""``python -m mrscene``: the same command line as ``mrscene.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
