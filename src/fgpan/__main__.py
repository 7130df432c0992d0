"""python -m fgpan: the command-line interface (fgpan.cli)."""

from .cli import main

if __name__ == "__main__":
    main()
