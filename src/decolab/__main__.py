"""``python -m decolab``: the same command line as the ``decolab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
