"""``python -m qdelay``: the ``qdelay`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
