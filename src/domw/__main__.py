"""`python -m domw`: the same command line as the installed `domw` script."""

from .cli import main

if __name__ == "__main__":
    main()
