"""``python -m cartensor``: the same command line as the ``cartensor`` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
