"""``python -m adkra``: the same command as the ``adkra`` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
