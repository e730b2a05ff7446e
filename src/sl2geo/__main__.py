"""``python -m sl2geo``: the sl2geo command without an installed script."""
from .cli import entry

if __name__ == "__main__":
    entry()
