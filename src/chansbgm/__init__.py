"""Site-specific generative modeling of wireless channel parameters.

Learns mixture models of sparse channel coefficients from noisy,
compressed observations and generates physically consistent channel
parameters and realizations under arbitrary system configurations.

Each name is imported from the module that defines it (``dataset``,
``dictionary``, ``em``, ``generation``, ``metrics``, ...). The package
itself imports nothing, so ``python -m chansbgm.cli --threads N`` can cap
the linear-algebra thread pools before numpy starts them.
"""

__version__ = "0.1.0"
