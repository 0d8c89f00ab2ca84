"""`python -m rdftuner`: the command line of `rdftuner.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
