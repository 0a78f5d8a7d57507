"""qpmforge: domain-engineered QPM crystal design and frequency-bin biphoton simulation."""

__version__ = "0.1.0"

from . import analysis, biphoton, crystal, interference, measurement, tomography

__all__ = [
    "analysis",
    "biphoton",
    "crystal",
    "interference",
    "measurement",
    "tomography",
]
