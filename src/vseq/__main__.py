"""``python -m vseq``: the same entry point as the ``vseq`` command."""

from .cli import main

if __name__ == "__main__":
    main()
